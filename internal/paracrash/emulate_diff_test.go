package paracrash_test

import (
	"fmt"
	"runtime"
	"testing"

	"paracrash/internal/exps"
	"paracrash/internal/obs"
	"paracrash/internal/paracrash"
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

// emulatorCell builds one (backend, program) cell of the paper's matrix the
// way exps.RunOne does: the program's placement hints over the backend's
// config, a fresh recorder, default H5 parameters.
func emulatorCell(t testing.TB, backend string, prog exps.Program) (pfs.FileSystem, paracrash.Workload, paracrash.Library) {
	t.Helper()
	conf := exps.ConfigFor(backend)
	placement := prog.Placement
	if backend == "glusterfs" {
		placement = prog.GlusterPlacement
	}
	if placement != nil {
		conf.FilePlacement = placement
	}
	fs, err := exps.NewFS(backend, conf, trace.NewRecorder())
	if err != nil {
		t.Fatal(err)
	}
	w, lib := prog.Make(workloads.DefaultH5Params())
	return fs, w, lib
}

// TestEmulatorMatchesReference: Generate emits the reference's sequence of
// (Front, Keep, Victims), element by element, on all six backends × the
// paper's 11 programs at k ∈ {0, 1, 2} (k = 3 on the POSIX programs), under
// both front modes, with and without the pruning victim filter, and with
// MaxStates cutting the run short mid-front. On the k = 2 all-cuts cell,
// Required-based feasibility and DependsOn are also held to the reference on
// every state the pipeline checks or the classifier probes.
func TestEmulatorMatchesReference(t *testing.T) {
	for _, backend := range exps.FSNames() {
		for _, prog := range exps.Programs() {
			t.Run(backend+"/"+prog.Name, func(t *testing.T) {
				t.Parallel() // the reference takes seconds on the two-client programs
				ks := []int{0, 1, 2}
				if prog.POSIX {
					ks = append(ks, 3)
				}
				probed := 0
				for _, k := range ks {
					for _, mode := range []paracrash.FrontMode{paracrash.FrontEnd, paracrash.FrontAllCuts} {
						for _, filter := range []bool{true, false} {
							if prog.POSIX && filter {
								continue // the filter only rejects library data chunks
							}
							label := fmt.Sprintf("k=%d mode=%d filter=%v", k, mode, filter)
							cfg := paracrash.DefaultOptions().Emulator
							cfg.K, cfg.FrontMode = k, mode
							probe := k == 2 && mode == paracrash.FrontAllCuts && filter != prog.POSIX
							fs, w, lib := emulatorCell(t, backend, prog)
							st, err := paracrash.EmulatorDiff(fs, lib, w, cfg, filter, probe)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							if st.States == 0 {
								t.Fatalf("%s: no states generated", label)
							}
							probed += st.Probed
							if st.States < 3 {
								continue
							}
							// Cut the run short: two thirds of the way is inside a
							// front on every cell that has more states than fronts.
							cfg.MaxStates = 2 * st.States / 3
							fs, w, lib = emulatorCell(t, backend, prog)
							cut, err := paracrash.EmulatorDiff(fs, lib, w, cfg, filter, false)
							if err != nil {
								t.Fatalf("%s MaxStates=%d: %v", label, cfg.MaxStates, err)
							}
							if cut.States != cfg.MaxStates {
								t.Fatalf("%s MaxStates=%d: %d states", label, cfg.MaxStates, cut.States)
							}
						}
					}
				}
				if probed == 0 {
					t.Fatal("nothing probed")
				}
			})
		}
	}
}

// generateCell traces one cell of the paper's matrix and returns its emulator
// with the pruning configuration at k.
func generateCell(t testing.TB, backend, program string, k int) (*paracrash.Emulator, paracrash.EmulatorConfig) {
	t.Helper()
	prog, err := exps.ProgramByName(program)
	if err != nil {
		t.Fatal(err)
	}
	fs, w, lib := emulatorCell(t, backend, prog)
	cfg := paracrash.DefaultOptions().Emulator
	cfg.K = k
	emu, cfg, err := paracrash.EmulatorFor(fs, lib, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return emu, cfg
}

// TestEmulatorAllocations: with the closure table and the scratch sets an
// emitted state costs its own Keep and Victims plus the duplicate index's
// copy — nothing per candidate. The loop this replaced allocated about
// 30,000 times per emitted state on this cell.
func TestEmulatorAllocations(t *testing.T) {
	emu, cfg := generateCell(t, "lustre", "H5-create", 2)
	states := 0
	allocs := testing.AllocsPerRun(5, func() {
		states = emu.Generate(cfg, func(paracrash.CrashState) bool { return true })
	})
	if states < 100 {
		t.Fatalf("only %d states", states)
	}
	if per := allocs / float64(states); per > 16 {
		t.Fatalf("%.0f allocations for %d states = %.1f per emitted state, want <= 16", allocs, states, per)
	}
}

// TestEmulatorCounters: the effort counters add up — every tested keep set
// is emitted, a duplicate or infeasible. At k = 2 most second victims are
// closure hits, which are walked but not tested; skipping them leaves no
// duplicate below k = 3, where a combination reached through a hit is
// emitted before the same keep set comes up again without it.
func TestEmulatorCounters(t *testing.T) {
	seen := map[string]int64{}
	for _, cell := range []struct {
		backend, program string
		k                int
	}{{"lustre", "H5-create", 2}, {"beegfs", "ARVR", 3}} {
		emu, cfg := generateCell(t, cell.backend, cell.program, cell.k)
		emu.Obs = obs.NewRun()
		states := emu.Generate(cfg, func(paracrash.CrashState) bool { return true })
		c := emu.Obs.Summary().Counters
		if int64(states) != c["emulate/states"] || states == 0 {
			t.Fatalf("%v: Generate returned %d, emulate/states = %d", cell, states, c["emulate/states"])
		}
		if got := c["emulate/candidates"] - c["emulate/duplicates"] - c["emulate/infeasible"]; got != c["emulate/states"] {
			t.Fatalf("%v: candidates %d - duplicates %d - infeasible %d = %d, emulate/states = %d", cell,
				c["emulate/candidates"], c["emulate/duplicates"], c["emulate/infeasible"], got, c["emulate/states"])
		}
		if c["emulate/states-capped"] != 0 || c["emulate/fronts-capped"] != 0 {
			t.Fatalf("%v: uncapped run flagged: %v", cell, c)
		}
		if cell.k == 2 && (c["emulate/closure-hits"] <= c["emulate/candidates"] || c["emulate/duplicates"] != 0) {
			t.Fatalf("%v: closure hits %d, candidates %d, duplicates %d: expected mostly hits and no duplicate at k = 2",
				cell, c["emulate/closure-hits"], c["emulate/candidates"], c["emulate/duplicates"])
		}
		for name, v := range c {
			seen[name] += v
		}
	}
	for _, name := range []string{"emulate/candidates", "emulate/duplicates", "emulate/infeasible", "emulate/closure-hits"} {
		if seen[name] == 0 {
			t.Errorf("%s never counted on these cells", name)
		}
	}
}

// TestEmulatorCaps tests the two caps at the cap: one below, exactly at and
// one above what the cell holds. Reaching a cap exactly with nothing left is
// a complete run and must not read as capped.
func TestEmulatorCaps(t *testing.T) {
	emu, cfg := generateCell(t, "beegfs", "ARVR", 1)
	run := func(cfg paracrash.EmulatorConfig) (states int, c map[string]int64) {
		emu.Obs = obs.NewRun()
		states = emu.Generate(cfg, func(paracrash.CrashState) bool { return true })
		return states, emu.Obs.Summary().Counters
	}
	cfg.MaxStates, cfg.MaxFronts = 0, 0
	n, c := run(cfg)
	f := int(c["emulate/fronts"])
	if n < 4 || f < 4 || n <= f {
		t.Fatalf("cell too small to test caps on: %d states, %d fronts", n, f)
	}
	for _, tc := range []struct {
		maxStates, maxFronts       int
		wantStates, wantFronts     int // -1: fewer than the full run
		statesCapped, frontsCapped int64
	}{
		{maxStates: n - 1, wantStates: n - 1, wantFronts: f, statesCapped: 1},
		{maxStates: n, wantStates: n, wantFronts: f},
		{maxStates: n + 1, wantStates: n, wantFronts: f},
		{maxFronts: f - 1, wantStates: -1, wantFronts: f - 1, frontsCapped: 1},
		{maxFronts: f, wantStates: n, wantFronts: f},
		{maxFronts: f + 1, wantStates: n, wantFronts: f},
	} {
		cfg.MaxStates, cfg.MaxFronts = tc.maxStates, tc.maxFronts
		states, c := run(cfg)
		label := fmt.Sprintf("MaxStates=%d MaxFronts=%d (cell: %d states, %d fronts)", tc.maxStates, tc.maxFronts, n, f)
		if tc.wantStates >= 0 && states != tc.wantStates || tc.wantStates < 0 && states >= n {
			t.Errorf("%s: %d states", label, states)
		}
		if int(c["emulate/fronts"]) != tc.wantFronts {
			t.Errorf("%s: %d fronts, want %d", label, c["emulate/fronts"], tc.wantFronts)
		}
		if c["emulate/states-capped"] != tc.statesCapped || c["emulate/fronts-capped"] != tc.frontsCapped {
			t.Errorf("%s: states-capped=%d fronts-capped=%d, want %d and %d", label,
				c["emulate/states-capped"], c["emulate/fronts-capped"], tc.statesCapped, tc.frontsCapped)
		}
		if got := c["emulate/candidates"] - c["emulate/duplicates"] - c["emulate/infeasible"]; got != int64(states) {
			t.Errorf("%s: counters give %d states, emitted %d", label, got, states)
		}
	}
}

// TestEmulatorKeepNotAliased: an emitted state owns its Keep. Scribbling
// over each one as it arrives changes no other state and no later emission,
// the duplicate detection of the same front included.
func TestEmulatorKeepNotAliased(t *testing.T) {
	emu, cfg := generateCell(t, "beegfs", "ARVR", 3) // k = 3: the duplicate index is in use
	var clean, scribbled []paracrash.CrashState
	emu.Generate(cfg, func(cs paracrash.CrashState) bool {
		cs.Keep = cs.Keep.Clone()
		clean = append(clean, cs)
		return true
	})
	emu.Obs = obs.NewRun()
	emu.Generate(cfg, func(cs paracrash.CrashState) bool {
		scribbled = append(scribbled, paracrash.CrashState{Front: cs.Front, Keep: cs.Keep.Clone(), Victims: cs.Victims})
		for i := range cs.Keep {
			cs.Keep[i] = ^uint64(0)
		}
		return true
	})
	if emu.Obs.Counter("emulate/duplicates").Value() == 0 {
		t.Fatal("no duplicate on this cell: the duplicate index goes untested")
	}
	if len(clean) != len(scribbled) {
		t.Fatalf("%d states, %d when every emitted Keep is overwritten", len(clean), len(scribbled))
	}
	for i := range clean {
		if !clean[i].Keep.Equal(scribbled[i].Keep) {
			t.Fatalf("state %d changed after an earlier Keep was overwritten", i)
		}
	}
}

// TestEmulatorMemoryBoundedByFront: the emulator keeps nothing per state
// past the front that produced it. On a cell with over 10^4 states and a
// visitor that retains nothing, the live heap inside the last front's visit
// is within 1 MB of the live heap inside the first front's.
func TestEmulatorMemoryBoundedByFront(t *testing.T) {
	emu, cfg := generateCell(t, "gpfs", "H5-parallel-resize", 3)
	cfg.VictimFilter = nil
	emu.Obs = obs.NewRun()
	fronts := emu.Obs.Counter("emulate/fronts")
	total := emu.Generate(cfg, func(paracrash.CrashState) bool { return true })
	lastFront := fronts.Value()
	if total < 10000 {
		t.Fatalf("cell has %d states, need >= 10^4", total)
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	emu.Obs = obs.NewRun()
	fronts = emu.Obs.Counter("emulate/fronts")
	var first, last uint64
	emu.Generate(cfg, func(paracrash.CrashState) bool {
		switch f := fronts.Value(); {
		case f == 1 && first == 0:
			first = heap()
		case f == lastFront && last == 0:
			last = heap()
		}
		return true
	})
	if first == 0 || last == 0 {
		t.Fatal("a sample was not taken")
	}
	t.Logf("%d states, %d fronts: live heap %d bytes in the first front, %d in the last", total, lastFront, first, last)
	if last > first+1<<20 {
		t.Fatalf("live heap grew from %d to %d bytes over %d states", first, last, total)
	}
}

var generateSink int

// BenchmarkEmulatorGenerate is Algorithm 1 alone on the first emulate-k2
// benchmark cell: lustre/H5-create, pruning filter, k = 2.
func BenchmarkEmulatorGenerate(b *testing.B) {
	emu, cfg := generateCell(b, "lustre", "H5-create", 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		generateSink = emu.Generate(cfg, func(paracrash.CrashState) bool { return true })
	}
}
