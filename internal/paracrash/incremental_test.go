package paracrash_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"paracrash/internal/causality"
	"paracrash/internal/exps"
	"paracrash/internal/paracrash"
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

// incrementalPrograms is the differential suite's workload matrix: one
// program per family (CrashMonkey-style random generation, B3-style bounded
// enumeration), both small enough that every backend explores them in
// milliseconds yet with enough renames/unlinks to exercise delta replay.
func incrementalPrograms(t *testing.T) []*workloads.Program {
	t.Helper()
	progs := []*workloads.Program{
		workloads.Generate(workloads.GenConfig{Seed: 11, Ops: 5, Files: 2, Dirs: 1, WithFsync: true}),
	}
	n := 0
	workloads.Enumerate(workloads.EnumConfig{MaxOps: 2, Files: 2, WithFsync: true}, func(p *workloads.Program) bool {
		// Take a spread of enumerated bodies rather than the first few
		// (early programs are single-op and reconstruct trivially).
		if n%7 == 3 {
			progs = append(progs, p)
		}
		n++
		return len(progs) < 4
	})
	if len(progs) < 2 {
		t.Fatal("workload matrix is degenerate")
	}
	return progs
}

// newFS returns a constructor of fresh clusters of backend.
func newFS(t *testing.T, backend string) func() pfs.FileSystem {
	return func() pfs.FileSystem {
		fs, err := exps.NewFS(backend, exps.ConfigFor(backend), trace.NewRecorder())
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
}

// runEngine runs one (backend, program) cell with default options and
// returns the report.
func runEngine(t *testing.T, backend string, prog *workloads.Program, mode paracrash.Mode) *paracrash.Report {
	t.Helper()
	fs, err := exps.NewFS(backend, exps.ConfigFor(backend), trace.NewRecorder())
	if err != nil {
		t.Fatal(err)
	}
	opts := paracrash.DefaultOptions()
	opts.Mode = mode
	rep, err := paracrash.Run(fs, nil, prog, opts)
	if err != nil {
		t.Fatalf("%s/%s: %v", backend, prog.Name(), err)
	}
	return rep
}

// TestIncrementalEngineEquivalence holds the one exploration engine to its
// reference on every backend and both workload families: every generated
// crash state must reconstruct and recover exactly as a full rebuild on a
// fresh cluster does, at no more than a full rebuild's work per state
// (paracrash.ReferenceDiff). The complete reports are pinned by
// TestIncrementalGoldenFingerprints.
func TestIncrementalEngineEquivalence(t *testing.T) {
	progs := incrementalPrograms(t)
	for _, backend := range exps.FSNames() {
		for _, prog := range progs {
			for _, mode := range goldenModes {
				t.Run(backend+"/"+prog.Name()+"/"+mode.String(), func(t *testing.T) {
					checked, err := paracrash.ReferenceDiff(newFS(t, backend), prog, mode)
					if err != nil {
						t.Error(err)
					}
					if checked == 0 {
						t.Error("no crash states generated; the reference check is vacuous")
					}
				})
			}
		}
	}
}

// TestIncrementalImageKeyReference holds the image key to the full rebuild
// on a block cell and a vfs cell of states-k2 (brute force, k = 2), where
// many kept sets share an image: every state must reconstruct as the full
// rebuild does, and every state sharing an image key with another must
// rebuild to a byte-identical outcome (paracrash.ReferenceDiffAt).
func TestIncrementalImageKeyReference(t *testing.T) {
	for _, c := range []struct{ backend, prog string }{{"gpfs", "H5-create"}, {"beegfs", "H5-parallel-create"}} {
		t.Run(c.backend+"/"+c.prog, func(t *testing.T) {
			prog, err := exps.ProgramByName(c.prog)
			if err != nil {
				t.Fatal(err)
			}
			w, _ := prog.Make(workloads.DefaultH5Params())
			checked, images, err := paracrash.ReferenceDiffAt(newFS(t, c.backend), w, paracrash.ModeBrute, 2)
			if err != nil {
				t.Fatal(err)
			}
			if images*2 > checked {
				t.Fatalf("%d crash states over %d image keys: too few shared images to test the key", checked, images)
			}
			t.Logf("%d crash states, %d image keys", checked, images)
		})
	}
}

// TestIncrementalEffortOrderIndependent pins the premise behind visiting
// crash states in generation order only: reconstruction work does not depend
// on the order. Walking a cell's states in generation order and in a seeded
// permutation must measure the same restores, op applies and legal-set
// sizes, for the engine's check (representative=true) and for the per-state
// reference's, which consults no class (representative=false). The cells
// stay far below the reconstructor's 4,096-entry caches, whose resets would
// make the counts depend on order for a reason unrelated to this premise.
func TestIncrementalEffortOrderIndependent(t *testing.T) {
	gen := workloads.Generate(workloads.GenConfig{Seed: 11, Ops: 5, Files: 2, Dirs: 1, WithFsync: true})
	h5, err := exps.ProgramByName("H5-create")
	if err != nil {
		t.Fatal(err)
	}
	identity := func(n int) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	shuffled := func(n int) []int { return rand.New(rand.NewSource(29)).Perm(n) }
	for _, backend := range exps.FSNames() {
		for _, prog := range []string{gen.Name(), h5.Name} {
			for _, rep := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/%s/representative=%t", backend, prog, rep), func(t *testing.T) {
					opts := paracrash.DefaultOptions()
					opts.Mode = paracrash.ModeBrute
					effort := func(perm func(int) []int) paracrash.Stats {
						t.Helper()
						fs, err := exps.NewFS(backend, exps.ConfigFor(backend), trace.NewRecorder())
						if err != nil {
							t.Fatal(err)
						}
						var w paracrash.Workload = gen
						var lib paracrash.Library
						if prog == h5.Name {
							w, lib = h5.Make(workloads.DefaultH5Params())
						}
						st, err := paracrash.OrderEffort(fs, lib, w, opts, perm, !rep)
						if err != nil {
							t.Fatal(err)
						}
						return st
					}
					inOrder, permuted := effort(identity), effort(shuffled)
					if inOrder.StatesGenerated < 2 || inOrder.StatesGenerated > 1024 {
						t.Fatalf("%d states generated; want a cell with something to reorder and far below the caches", inOrder.StatesGenerated)
					}
					type work struct{ restores, replayed, legalPFS, legalLib int }
					a := work{inOrder.ServerRestores, inOrder.OpsReplayed, inOrder.LegalPFSStates, inOrder.LegalLibStates}
					b := work{permuted.ServerRestores, permuted.OpsReplayed, permuted.LegalPFSStates, permuted.LegalLibStates}
					if a != b {
						t.Errorf("effort depends on visiting order over %d states: generation order %+v, permuted %+v",
							inOrder.StatesGenerated, a, b)
					}
				})
			}
		}
	}
}

// TestIncrementalReconstructionContent is the state-level differential: on
// every backend, reconstructing each crash state the incremental way (only
// the crashed servers restored, each replaying only its own kept ops, in
// per-server order) must leave the cluster byte-identical — Serialize of
// every store — to the full rebuild (every server restored, kept ops replayed
// in universe order). This is the physical-commutativity invariant the
// O(delta) engine rests on, checked directly against the stores rather than
// through verdicts.
func TestIncrementalReconstructionContent(t *testing.T) {
	prog := workloads.Generate(workloads.GenConfig{Seed: 23, Ops: 5, Files: 2, Dirs: 1, WithFsync: true})
	for _, backend := range exps.FSNames() {
		t.Run(backend, func(t *testing.T) {
			fs, err := exps.NewFS(backend, exps.ConfigFor(backend), trace.NewRecorder())
			if err != nil {
				t.Fatal(err)
			}
			rec := fs.Recorder()
			rec.SetEnabled(false)
			if err := prog.Preamble(fs); err != nil {
				t.Fatal(err)
			}
			initial := fs.Snapshot()
			rec.Reset()
			rec.SetEnabled(true)
			if err := prog.Run(fs); err != nil {
				t.Fatal(err)
			}
			rec.SetEnabled(false)

			g := causality.Build(rec.Ops())
			emu := paracrash.NewEmulator(g, fs.PersistConfig())
			serverOps := emu.ServerOps()

			serialize := func() (content, hash string) {
				st := fs.Snapshot()
				for _, p := range fs.Procs() {
					content += "== " + p + " ==\n"
					if f, ok := st.FS[p]; ok {
						content += f.Serialize()
						hash += f.Hash() + "|"
					}
					if d, ok := st.Dev[p]; ok {
						content += d.Serialize()
						hash += d.Hash() + "|"
					}
				}
				return content, hash
			}

			checked := 0
			emu.Generate(paracrash.DefaultOptions().Emulator, func(cs paracrash.CrashState) bool {
				fs.Restore(initial)
				for _, i := range emu.Universe {
					if cs.Keep.Get(i) {
						_ = fs.ApplyLowermost(g.Ops[i])
					}
				}
				wantContent, wantHash := serialize()

				fs.Restore(initial)
				for p, ops := range serverOps {
					snap, _ := initial.ServerSnap(p)
					fs.RestoreServerSnap(p, snap)
					for _, i := range ops {
						if cs.Keep.Get(i) {
							_ = fs.ApplyLowermost(g.Ops[i])
						}
					}
				}
				gotContent, gotHash := serialize()
				if gotContent != wantContent {
					t.Errorf("state %d: per-server reconstruction diverges\n--- universe order ---\n%s--- per-server ---\n%s",
						checked, wantContent, gotContent)
					return false
				}
				if gotHash != wantHash {
					t.Errorf("state %d: content identical but Hash diverges: %q vs %q", checked, wantHash, gotHash)
					return false
				}
				checked++
				return true
			})
			if checked == 0 {
				t.Fatal("no crash states generated; the differential is vacuous")
			}
			t.Logf("%d crash states byte-identical under both reconstructions", checked)
		})
	}
}

// TestIncrementalFaultTransparency: a backend fault during incremental
// reconstruction stays with the states it touches. On a backend whose apply
// of one op panics, each state whose image needs that op is quarantined with
// the panic text, and every other state the run judges carries the verdict
// a run on the unbroken backend gives it: an aborted bring leaves no
// half-built prefix root for a later state to start from. lustre exercises
// the kernel-level shared-disk path whose cross-server WAL recovery is the
// hardest case.
func TestIncrementalFaultTransparency(t *testing.T) {
	prog := workloads.Generate(workloads.GenConfig{Seed: 11, Ops: 5, Files: 2, Dirs: 1, WithFsync: true})
	for _, backend := range []string{"beegfs", "lustre"} {
		t.Run(backend, func(t *testing.T) {
			run := func(wrap func(pfs.FileSystem) pfs.FileSystem) (pfs.FileSystem, map[string]paracrash.Judged) {
				fs, err := exps.NewFS(backend, exps.ConfigFor(backend), trace.NewRecorder())
				if err != nil {
					t.Fatal(err)
				}
				_, judged, err := paracrash.EngineRun(wrap(fs), nil, prog, paracrash.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				return fs, judged
			}
			fs, clean := run(func(fs pfs.FileSystem) pfs.FileSystem { return fs })
			var writes []*trace.Op // tagged lowermost ops change a store
			for _, op := range fs.Recorder().Ops() {
				if (op.Layer == trace.LayerLocalFS || op.Layer == trace.LayerBlock) && op.Tag != "" {
					writes = append(writes, op)
				}
			}
			bad := writes[len(writes)/2]
			_, faulted := run(func(fs pfs.FileSystem) pfs.FileSystem {
				return paracrash.PanicOnApply(fs, func(op *trace.Op) bool { return op.ID == bad.ID })
			})

			skipped, same := 0, 0
			for key, got := range faulted {
				want, ok := clean[key]
				switch {
				case got.Skipped:
					skipped++
					if !strings.Contains(got.Consequence, "backend bug applying "+bad.Key()) {
						t.Errorf("state %x quarantined for %q", key, got.Consequence)
					}
				case !ok:
					// Visited only here: a quarantined probe reads as
					// consistent, so pruning may skip less.
				case got.Verdict != want.Verdict:
					t.Errorf("state %x: verdict %+v, on the unbroken backend %+v", key, got.Verdict, want.Verdict)
				default:
					same++
				}
			}
			if skipped == 0 || same == 0 {
				t.Fatalf("%d states quarantined, %d judged as on the unbroken backend: the test needs both", skipped, same)
			}
			t.Logf("op %s: %d states quarantined, %d judged as on the unbroken backend", bad.Key(), skipped, same)
		})
	}
}

// TestIncrementalChaosResume: the incremental engine under kill/resume chaos
// — repeated mid-run deadline kills, resuming from the checkpoint journal
// each round — must converge to the byte-exact report of a clean
// uninterrupted incremental run. The arithmetic charge
// simulation makes resumed verdicts charge what a fresh serial walk would,
// so even ServerRestores/OpsReplayed survive the chaos unchanged.
func TestIncrementalChaosResume(t *testing.T) {
	prog := workloads.Generate(workloads.GenConfig{Seed: 11, Ops: 5, Files: 2, Dirs: 1, WithFsync: true})
	backend := "lustre"
	base := runEngine(t, backend, prog, paracrash.ModePruning)
	baseFP := exps.ReportFingerprint(base)

	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	deadline := 2 * time.Millisecond
	kills := 0
	for attempt := 0; ; attempt++ {
		if attempt > 60 {
			t.Fatal("chaos run did not converge in 60 kill/resume rounds")
		}
		fs, err := exps.NewFS(backend, exps.ConfigFor(backend), trace.NewRecorder())
		if err != nil {
			t.Fatal(err)
		}
		opts := paracrash.DefaultOptions()
		opts.Checkpoint = paracrash.OpenCheckpoint(path)
		opts.Checkpoint.Every = 1

		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		rep, err := paracrash.RunContext(ctx, fs, nil, prog, opts)
		cancel()
		if err == nil {
			if fp := exps.ReportFingerprint(rep); fp != baseFP {
				t.Errorf("chaos-resumed incremental report differs after %d kills:\n--- clean ---\n%s--- chaos ---\n%s",
					kills, baseFP, fp)
			}
			t.Logf("survived %d mid-run kills; final round resumed %d verdicts", kills, opts.Checkpoint.Resumed())
			return
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("chaos round %d died with a non-deadline error: %v", attempt, err)
		}
		kills++
		deadline += deadline / 2
	}
}
