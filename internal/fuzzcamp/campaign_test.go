package fuzzcamp

import (
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"paracrash/internal/exps"
	"paracrash/internal/obs"
	"paracrash/internal/paracrash"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

// TestCampaignSmokeGreen runs a tiny campaign (2 seeds + the length-1
// enumeration on the two cheapest backends) and expects every oracle to pass
// with the exact run accounting: five explorer invocations per cell.
func TestCampaignSmokeGreen(t *testing.T) {
	run := obs.NewRun()
	res, err := Run(Config{
		Backends: []string{"ext4", "glusterfs"},
		Seeds:    2,
		EnumOps:  1,
		Obs:      run,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("campaign not green:\n%s", res.Format())
	}
	if res.Cells != res.Workloads*2 {
		t.Fatalf("cells = %d, want workloads(%d) × 2 backends", res.Cells, res.Workloads)
	}
	if want := int64(res.Cells * 5); res.ExplorerRuns != want {
		t.Fatalf("explorer runs = %d, want %d (5 per cell)", res.ExplorerRuns, want)
	}
	sum := run.Summary()
	if sum.Counters["campaign/cells"] != int64(res.Cells) {
		t.Fatalf("obs cells counter = %d, want %d", sum.Counters["campaign/cells"], res.Cells)
	}
	if sum.Counters["campaign/explorer-runs"] != res.ExplorerRuns {
		t.Fatalf("obs run counter = %d, want %d", sum.Counters["campaign/explorer-runs"], res.ExplorerRuns)
	}
}

// TestCampaignAllBackendsGreen is the cross-backend acceptance check: every
// oracle green on all six file systems.
func TestCampaignAllBackendsGreen(t *testing.T) {
	if testing.Short() {
		t.Skip("full-backend campaign in -short mode")
	}
	res, err := Run(Config{Seeds: 4, EnumOps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("campaign not green:\n%s", res.Format())
	}
	if len(res.Backends) != 6 {
		t.Fatalf("default backends = %v, want all six", res.Backends)
	}
}

// TestCampaignEnumerationInclusion pins the workload list composition: with
// Seeds=0 the campaign tests exactly the bounded enumeration.
func TestCampaignEnumerationInclusion(t *testing.T) {
	ec := workloads.DefaultEnumConfig()
	ec.MaxOps = 2
	wantEnum := workloads.Enumerate(ec, func(*workloads.Program) bool { return true })

	cfg := Config{Seeds: 0, EnumOps: 2, Backends: []string{"ext4"}}.withDefaults()
	progs := cfg.workloadList()
	if len(progs) != wantEnum {
		t.Fatalf("workload list has %d programs, want %d enumerated", len(progs), wantEnum)
	}
	// Seeds and enumeration compose: generated programs come first.
	cfg = Config{Seeds: 3, EnumOps: 2, Backends: []string{"ext4"}}.withDefaults()
	progs = cfg.workloadList()
	if len(progs) != 3+wantEnum {
		t.Fatalf("workload list has %d programs, want %d", len(progs), 3+wantEnum)
	}
	if !strings.HasPrefix(progs[0].Name(), "gen-") || !strings.HasPrefix(progs[3].Name(), "enum-") {
		t.Fatalf("workload order wrong: %s, %s", progs[0].Name(), progs[3].Name())
	}
}

// fsyncSeed finds a generator seed whose body contains an fsync — the
// injection tests key on it so minimization has a crisp 1–2 op core.
func fsyncSeed(t *testing.T) int64 {
	t.Helper()
	for seed := int64(0); seed < 64; seed++ {
		p := workloads.Generate(workloads.DefaultGenConfig(seed))
		for _, op := range p.Body() {
			if op.Kind == workloads.OpFsync {
				return seed
			}
		}
	}
	t.Fatal("no seed in 0..63 generates an fsync op")
	return 0
}

func hasFsync(p *workloads.Program) bool {
	for _, op := range p.Body() {
		if op.Kind == workloads.OpFsync {
			return true
		}
	}
	return false
}

// TestCampaignInjectedViolationMinimized drives the whole failure pipeline
// through the test-only injection hook: detection, delta-debugging
// minimization down to the op core, and a replayable corpus file.
func TestCampaignInjectedViolationMinimized(t *testing.T) {
	seed := fsyncSeed(t)
	dir := t.TempDir()
	res, err := Run(Config{
		Backends:  []string{"ext4"},
		SeedStart: seed,
		Seeds:     1,
		CorpusDir: dir,
		Inject: func(backend string, p *workloads.Program) string {
			if hasFsync(p) {
				return "injected: body contains fsync"
			}
			return ""
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Fatalf("violations = %d, want 1:\n%s", len(res.Violations), res.Format())
	}
	v := res.Violations[0]
	if v.Oracle != OracleInjected {
		t.Fatalf("oracle = %q, want injected", v.Oracle)
	}
	if v.MinimizedTo > 6 {
		t.Fatalf("minimized reproducer has %d ops, want <= 6:\n%s", v.MinimizedTo, res.Format())
	}
	if v.MinimizedTo >= v.MinimizedFrom {
		t.Fatalf("minimization did not shrink: %d -> %d ops", v.MinimizedFrom, v.MinimizedTo)
	}
	if v.CorpusFile == "" {
		t.Fatal("no corpus file written")
	}
	if _, err := os.Stat(v.CorpusFile); err != nil {
		t.Fatal(err)
	}

	// The corpus entry must replay: same violation, clean execution.
	rep, err := LoadRepro(v.CorpusFile)
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Program()
	if !hasFsync(p) {
		t.Fatalf("minimized reproducer lost the violation:\n%s", p.Script())
	}
	fs, err := exps.NewFS("ext4", exps.ConfigFor("ext4"), trace.NewRecorder())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Preamble(fs); err != nil {
		t.Fatalf("reproducer preamble does not replay: %v", err)
	}
	if err := p.Run(fs); err != nil {
		t.Fatalf("reproducer body does not replay: %v", err)
	}
}

// TestCampaignDedupesSignatures checks that violations sharing a signature
// collapse to one corpus entry.
func TestCampaignDedupesSignatures(t *testing.T) {
	res, err := Run(Config{
		Backends: []string{"ext4"},
		Seeds:    2,
		Inject: func(backend string, p *workloads.Program) string {
			return "always-on violation"
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 || res.Duplicates != 1 {
		t.Fatalf("violations=%d duplicates=%d, want 1 and 1:\n%s",
			len(res.Violations), res.Duplicates, res.Format())
	}
}

// TestCampaignTimeBudget checks that an expired budget skips cells instead
// of running them, and is reported.
func TestCampaignTimeBudget(t *testing.T) {
	res, err := Run(Config{
		Backends:   []string{"ext4"},
		Seeds:      2,
		TimeBudget: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut || res.CellsSkipped != res.Cells {
		t.Fatalf("timed-out campaign ran cells: skipped=%d cells=%d timedOut=%v",
			res.CellsSkipped, res.Cells, res.TimedOut)
	}
	if res.ExplorerRuns != 0 {
		t.Fatalf("explorer ran %d times after budget expiry", res.ExplorerRuns)
	}
	if res.OK() {
		t.Fatal("timed-out campaign must not report OK")
	}
}

// TestCampaignPanickingCellFails: a panic while a cell is evaluated — here
// the injection hook's, on one backend — is the campaign's error: it lands
// in Result.Errors with the cell's program, its backend and the panic text,
// OK() is false, and every other cell is still evaluated.
func TestCampaignPanickingCellFails(t *testing.T) {
	var evaluated atomic.Int64
	res, err := Run(Config{
		Backends: []string{"ext4", "glusterfs"},
		Seeds:    2,
		Inject: func(backend string, p *workloads.Program) string {
			if backend == "glusterfs" {
				panic("engine bug on " + p.Name())
			}
			evaluated.Add(1)
			return ""
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatalf("a campaign whose cells panicked reports OK:\n%s", res.Format())
	}
	if len(res.Errors) != 2 {
		t.Fatalf("%d errors, want one per glusterfs cell:\n%s", len(res.Errors), res.Format())
	}
	for i, e := range res.Errors {
		name := workloads.Generate(workloads.DefaultGenConfig(int64(i))).Name()
		if want := name + " on glusterfs: panic: engine bug on " + name; e != want {
			t.Errorf("error %q, want %q", e, want)
		}
	}
	if n := evaluated.Load(); n != 2 {
		t.Errorf("%d ext4 cells evaluated, want 2", n)
	}
}

// TestQuarantinedFailsRun: a report with quarantined states is an error
// naming the backend, the number of states and the first reason; a report
// without is none.
func TestQuarantinedFailsRun(t *testing.T) {
	if err := quarantined("ext4", &paracrash.Report{}); err != nil {
		t.Fatalf("clean report: %v", err)
	}
	rep := &paracrash.Report{Skipped: []paracrash.SkippedState{
		{Reason: "quarantined: panic applying ops on meta/1: boom"},
		{Reason: "quarantined: second"},
	}}
	err := quarantined("beegfs", rep)
	if err == nil {
		t.Fatal("report with 2 quarantined states: no error")
	}
	for _, want := range []string{"beegfs", "2 crash states quarantined", "panic applying ops on meta/1: boom"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "second") {
		t.Errorf("error %q names more than the first reason", err)
	}
}
