package paracrash_test

import (
	"context"
	"testing"

	"paracrash/internal/exps"
	"paracrash/internal/obs"
	"paracrash/internal/paracrash"
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

// runWithObs runs ARVR on BeeGFS with an attached observability run.
func runWithObs(t *testing.T, mode paracrash.Mode) (*paracrash.Report, *obs.Run) {
	t.Helper()
	prog, err := exps.ProgramByName("ARVR")
	if err != nil {
		t.Fatal(err)
	}
	opts := paracrash.DefaultOptions()
	opts.Mode = mode
	r := obs.NewRun()
	opts.Obs = r
	rep, err := exps.RunOne("beegfs", prog, opts, workloads.DefaultH5Params(), exps.ConfigFor("beegfs"))
	if err != nil {
		t.Fatalf("RunOne(mode=%s): %v", mode, err)
	}
	return rep, r
}

// TestObsCountersReconcileWithStats is the tentpole's accounting contract:
// the counters must equal the report's Stats exactly, for every strategy.
func TestObsCountersReconcileWithStats(t *testing.T) {
	for _, mode := range []paracrash.Mode{paracrash.ModeBrute, paracrash.ModePruning} {
		t.Run(mode.String(), func(t *testing.T) {
			rep, r := runWithObs(t, mode)
			s := r.Summary()
			wantCounters := map[string]int64{
				"states/generated":    int64(rep.Stats.StatesGenerated),
				"states/checked":      int64(rep.Stats.StatesChecked),
				"states/deduped":      int64(rep.Stats.StatesDeduped),
				"states/pruned":       int64(rep.Stats.StatesPruned),
				"restores/servers":    int64(rep.Stats.ServerRestores),
				"ops/replayed":        int64(rep.Stats.OpsReplayed),
				"states/inconsistent": int64(rep.Inconsistent),
				"trace/ops":           int64(rep.Stats.TraceOps),
				"trace/lowermost":     int64(rep.Stats.LowermostOps),
			}
			for name, want := range wantCounters {
				if got := s.Counters[name]; got != want {
					t.Errorf("counter %s = %d, Stats say %d", name, got, want)
				}
			}
			wantGauges := map[string]int64{
				"legal/pfs":      int64(rep.Stats.LegalPFSStates),
				"legal/lib":      int64(rep.Stats.LegalLibStates),
				"states/classes": int64(rep.Stats.StateClasses),
			}
			for name, want := range wantGauges {
				if got := s.Gauges[name]; got != want {
					t.Errorf("gauge %s = %d, Stats say %d", name, got, want)
				}
			}
			// Every pipeline phase must have timed exactly one span.
			phases := []string{obs.PhaseTrace, obs.PhaseGraph, obs.PhaseGenerate, obs.PhaseExplore}
			byName := map[string]obs.TimerStat{}
			for _, ts := range s.Timers {
				byName[ts.Name] = ts
			}
			for _, ph := range phases {
				if ts, ok := byName["phase/"+ph]; !ok || ts.Count != 1 {
					t.Errorf("phase %s: timer = %+v, want one span", ph, ts)
				}
			}
		})
	}
}

// TestObsRestoreShares: the digest and legal-replay sub-counters are shares
// of restores/servers, and so is the classifier's restores/probe; the
// capped-enumeration counters are registered at 0 on a run whose legal sets
// fit under MaxLegalStates, and so are the library walk's counters on a run
// without a library layer.
func TestObsRestoreShares(t *testing.T) {
	rep, r := runWithObs(t, paracrash.ModeBrute)
	c := r.Summary().Counters
	if c["restores/legal"] == 0 || c["restores/digest"] == 0 {
		t.Errorf("restores/legal=%d restores/digest=%d, want both counted", c["restores/legal"], c["restores/digest"])
	}
	if shares := c["restores/legal"] + c["restores/digest"]; shares > int64(rep.Stats.ServerRestores) {
		t.Errorf("shares add up to %d, more than the %d restores", shares, rep.Stats.ServerRestores)
	}
	if c["classify/probes"] == 0 || c["restores/probe"] > int64(rep.Stats.ServerRestores) {
		t.Errorf("classify/probes=%d restores/probe=%d of %d restores",
			c["classify/probes"], c["restores/probe"], rep.Stats.ServerRestores)
	}
	for _, name := range []string{"legal/pfs-capped", "legal/lib-capped", "legal/lib-sets", "legal/lib-replayed", "legal/lib-parses", "legal/lib-steps"} {
		if v, ok := c[name]; !ok || v != 0 {
			t.Errorf("%s = %d (registered %t), want registered at 0", name, v, ok)
		}
	}
}

// TestRestoreServerTimer: every per-server restore the engine counts is one
// "pfs/restore-server" span, on a file-system backend and on a block one.
func TestRestoreServerTimer(t *testing.T) {
	for _, tc := range []struct{ backend, program string }{{"beegfs", "ARVR"}, {"gpfs", "H5-create"}} {
		prog, err := exps.ProgramByName(tc.program)
		if err != nil {
			t.Fatal(err)
		}
		opts := paracrash.DefaultOptions()
		opts.Obs = obs.NewRun()
		rep, err := exps.RunOne(tc.backend, prog, opts, workloads.DefaultH5Params(), exps.ConfigFor(tc.backend))
		if err != nil {
			t.Fatal(err)
		}
		s := opts.Obs.Summary()
		var spans int64
		for _, ts := range s.Timers {
			if ts.Name == "pfs/restore-server" {
				spans = ts.Count
			}
		}
		if restores := s.Counters["restores/servers"]; spans != restores || restores != int64(rep.Stats.ServerRestores) || restores == 0 {
			t.Errorf("%s/%s: %d pfs/restore-server spans, restores/servers %d, Stats %d",
				tc.backend, tc.program, spans, restores, rep.Stats.ServerRestores)
		}
	}
}

// TestObsSkipCounterMatchesReport: on a backend whose every apply on one
// server panics, states/skipped counts each quarantined state the report
// lists once, whether the state was quarantined by the run itself or by a
// fleet shard.
func TestObsSkipCounterMatchesReport(t *testing.T) {
	prog, err := exps.ProgramByName("ARVR")
	if err != nil {
		t.Fatal(err)
	}
	opts := func(r *obs.Run) paracrash.Options {
		opts := paracrash.DefaultOptions()
		opts.Obs = r
		return opts
	}
	check := func(label string, rep *paracrash.Report, r *obs.Run) {
		t.Helper()
		if len(rep.Skipped) == 0 {
			t.Fatalf("%s: a panicking backend quarantined nothing", label)
		}
		if got := r.Counter("states/skipped").Value(); got != int64(len(rep.Skipped)) {
			t.Errorf("%s: states/skipped = %d, report lists %d skipped states", label, got, len(rep.Skipped))
		}
	}
	ctx := context.Background()
	r := obs.NewRun()
	rep, err := runARVROn(t, ctx, panicOnStorage1, opts(r))
	if err != nil {
		t.Fatal(err)
	}
	check("run", rep, r)

	var shards []*paracrash.ShardReport
	for i := 0; i < 3; i++ {
		fs, w, lib := emulatorCell(t, "beegfs", prog)
		sr, err := paracrash.RunShard(ctx, panicOnStorage1(fs), lib, w, opts(nil), paracrash.ShardSpec{Index: i, Count: 3})
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, sr)
	}
	r = obs.NewRun()
	fs, w, lib := emulatorCell(t, "beegfs", prog)
	merged, err := paracrash.MergeShards(ctx, panicOnStorage1(fs), lib, w, opts(r), shards)
	if err != nil {
		t.Fatal(err)
	}
	check("3-shard merge", merged, r)
}

// TestLegalEnumerationCap tests MaxLegalStates at the cap on one cell per
// layer: with n the most preserved sets any generated front has, a cap of
// n-1 cuts that front's enumeration and says so once on the layer's capped
// counter; a cap of n, where the enumeration ends exactly, and of n+1 do not.
func TestLegalEnumerationCap(t *testing.T) {
	for _, tc := range []struct{ backend, program, layer string }{
		{"beegfs", "ARVR", "pfs"},
		{"lustre", "H5-create", "lib"},
	} {
		prog, err := exps.ProgramByName(tc.program)
		if err != nil {
			t.Fatal(err)
		}
		newCell := func() (pfs.FileSystem, paracrash.Library, paracrash.Workload) {
			fs, err := exps.NewFS(tc.backend, exps.ConfigFor(tc.backend), trace.NewRecorder())
			if err != nil {
				t.Fatal(err)
			}
			w, lib := prog.Make(workloads.DefaultH5Params())
			return fs, lib, w
		}
		n, capped, sizes, err := paracrash.LegalCapCounts(newCell, tc.layer)
		if err != nil {
			t.Fatal(err)
		}
		label := tc.backend + "/" + tc.program + "/" + tc.layer
		if n < 2 {
			t.Fatalf("%s: widest front has %d preserved sets, too few to test a cap", label, n)
		}
		if capped != [3]int{1, 0, 0} {
			t.Errorf("%s: capped counter at n-1, n, n+1 (n=%d) = %v, want [1 0 0]", label, n, capped)
		}
		if sizes[0] > n-1 || sizes[1] != sizes[2] {
			t.Errorf("%s: legal-set sizes at n-1, n, n+1 (n=%d) = %v", label, n, sizes)
		}
	}
}

// TestObsPreservesDeterminism pins the acceptance criterion: a run with
// metrics attached produces a report byte-identical to a run with obs
// disabled.
func TestObsPreservesDeterminism(t *testing.T) {
	base := runCell(t, "beegfs", "ARVR", paracrash.ModeBrute, 1) // obs off
	if rep, _ := runWithObs(t, paracrash.ModeBrute); exps.ReportFingerprint(rep) != exps.ReportFingerprint(base) {
		t.Error("fingerprint with obs differs from the obs-off run")
	}
}

// TestObsRecoverCallsPerImage: recover/calls counts the crash-state
// recoveries the engine runs, one per outcome-memo miss. The memo is keyed
// by image, so on a states-k2 cell (gpfs/H5-create, brute force, k = 2) the
// counter equals the number of distinct image keys the judged states
// produced — fewer than their distinct kept sets.
func TestObsRecoverCallsPerImage(t *testing.T) {
	prog, err := exps.ProgramByName("H5-create")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := exps.NewFS("gpfs", exps.ConfigFor("gpfs"), trace.NewRecorder())
	if err != nil {
		t.Fatal(err)
	}
	w, lib := prog.Make(workloads.DefaultH5Params())
	opts := paracrash.DefaultOptions()
	opts.Mode = paracrash.ModeBrute
	opts.Emulator.K = 2
	r := obs.NewRun()
	opts.Obs = r
	keeps, images, err := paracrash.EngineImages(fs, lib, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	calls := r.Counter("recover/calls").Value()
	if calls != int64(images) {
		t.Errorf("recover/calls = %d, the judged states produced %d distinct image keys", calls, images)
	}
	if images >= keeps {
		t.Errorf("%d image keys over %d kept sets: the cell merges no kept sets, so the test lost its teeth", images, keeps)
	}
	t.Logf("%d kept sets, %d image keys, %d recoveries", keeps, images, calls)
}
