package causality_test

import (
	"testing"

	"paracrash/internal/causality"
	"paracrash/internal/exps"
	"paracrash/internal/paracrash"
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

// traceProgram traces one cell of the paper's matrix the way a run does
// (untraced preamble, seeded library, traced body) and returns its emulator,
// whose persist order is built over the lowermost replayable ops.
func traceProgram(t testing.TB, backend string, prog exps.Program) (*paracrash.Emulator, pfs.FileSystem) {
	t.Helper()
	conf := exps.ConfigFor(backend)
	placement := prog.Placement
	if backend == "glusterfs" {
		placement = prog.GlusterPlacement
	}
	if placement != nil {
		conf.FilePlacement = placement
	}
	w, lib := prog.Make(workloads.DefaultH5Params())
	return traceCell(t, backend, conf, w, lib)
}

func traceCell(t testing.TB, backend string, conf pfs.Config, w paracrash.Workload, lib paracrash.Library) (*paracrash.Emulator, pfs.FileSystem) {
	t.Helper()
	fs, err := exps.NewFS(backend, conf, trace.NewRecorder())
	if err != nil {
		t.Fatal(err)
	}
	rec := fs.Recorder()
	rec.SetEnabled(false)
	if err := w.Preamble(fs); err != nil {
		t.Fatal(err)
	}
	if lib != nil {
		tree, err := fs.Mount()
		if err != nil {
			t.Fatal(err)
		}
		if err := lib.Seed(tree); err != nil {
			t.Fatal(err)
		}
	}
	rec.Reset()
	rec.SetEnabled(true)
	if err := w.Run(fs); err != nil {
		t.Fatal(err)
	}
	return paracrash.NewEmulator(causality.Build(rec.Ops()), fs.PersistConfig()), fs
}

// TestPersistOrderMatchesPairwiseCells: on the traced graph of every cell of
// the paper's matrix (11 programs × six backends) and of the 24 generated
// POSIX programs on six backends, the relation built row by row equals
// Algorithm 2 evaluated pair by pair.
func TestPersistOrderMatchesPairwiseCells(t *testing.T) {
	for _, backend := range exps.FSNames() {
		t.Run(backend, func(t *testing.T) {
			t.Parallel()
			edges := 0
			check := func(t *testing.T, emu *paracrash.Emulator, fs pfs.FileSystem) {
				edges += causality.ReferencePersistOrder(t, t.Name(), emu.PO, fs.PersistConfig())
			}
			for _, prog := range exps.Programs() {
				t.Run(prog.Name, func(t *testing.T) {
					emu, fs := traceProgram(t, backend, prog)
					check(t, emu, fs)
				})
			}
			for seed := int64(1); seed <= 24; seed++ {
				gen := workloads.Generate(workloads.DefaultGenConfig(seed))
				t.Run(gen.Name(), func(t *testing.T) {
					emu, fs := traceCell(t, backend, exps.ConfigFor(backend), gen, nil)
					check(t, emu, fs)
				})
			}
			// A cell may have none (gpfs issues barriers only on fsync).
			if edges == 0 {
				t.Fatal("no persists-before edge in any cell; the comparison is vacuous")
			}
		})
	}
}

var persistOrderSink *causality.PersistOrder

// BenchmarkNewPersistOrder is Algorithm 2 alone on the first emulate-k2
// benchmark cell, lustre/H5-create.
func BenchmarkNewPersistOrder(b *testing.B) {
	prog, err := exps.ProgramByName("H5-create")
	if err != nil {
		b.Fatal(err)
	}
	emu, fs := traceProgram(b, "lustre", prog)
	cfg := fs.PersistConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		persistOrderSink = causality.NewPersistOrder(emu.G, emu.Universe, cfg)
	}
}
