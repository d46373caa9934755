package paracrash_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"paracrash/internal/exps"
	"paracrash/internal/faultinject"
	"paracrash/internal/obs"
	"paracrash/internal/paracrash"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

// reportPair holds one cell's brute-force reference run (representative
// exploration disabled) and the collapsed run under test. onDigest, filled
// by namedPair, is the collapsed run's class-digest share of its restores
// (restores/digest on the primary and on its parallel workers).
type reportPair struct {
	off, on  *paracrash.Report
	onDigest int
}

// assertEquivalent is the differential oracle shared by every test below:
// the collapsed report must be byte-identical in shape to brute force
// (same inconsistent states, skip list and bugs — the ReportKernel), and
// the effort stats must reconcile exactly — every generated state lands in
// either StatesChecked or StatesDeduped, pruning decisions are unchanged,
// and the collapsed run never pays more restores than the reference.
func assertEquivalent(t *testing.T, label string, p reportPair) {
	t.Helper()
	if k, b := exps.ReportKernel(p.on), exps.ReportKernel(p.off); k != b {
		t.Errorf("%s: representative report differs from brute force:\n--- brute ---\n%s--- representative ---\n%s", label, b, k)
	}
	son, soff := p.on.Stats, p.off.Stats
	if son.StatesGenerated != soff.StatesGenerated {
		t.Errorf("%s: generated %d states, brute %d", label, son.StatesGenerated, soff.StatesGenerated)
	}
	if son.StatesChecked+son.StatesDeduped != soff.StatesChecked {
		t.Errorf("%s: checked(%d)+deduped(%d) != brute checked(%d)",
			label, son.StatesChecked, son.StatesDeduped, soff.StatesChecked)
	}
	if son.StatesPruned != soff.StatesPruned {
		t.Errorf("%s: pruned %d states, brute %d", label, son.StatesPruned, soff.StatesPruned)
	}
	if soff.StatesDeduped != 0 || soff.StateClasses != 0 {
		t.Errorf("%s: brute reference recorded dedup stats: %d deduped, %d classes",
			label, soff.StatesDeduped, soff.StateClasses)
	}
	if son.ServerRestores > soff.ServerRestores {
		t.Errorf("%s: representative restored %d servers, brute only %d",
			label, son.ServerRestores, soff.ServerRestores)
	}
	if son.StatesDeduped > 0 && son.StateClasses == 0 {
		t.Errorf("%s: %d states deduped but no classes reported", label, son.StatesDeduped)
	}
}

// namedPair runs a named program cell twice through exps (which wires I/O
// libraries for the H5 workloads) with representative exploration off and on.
func namedPair(t *testing.T, fsName, progName string, mode paracrash.Mode, workers int) reportPair {
	t.Helper()
	prog, err := exps.ProgramByName(progName)
	if err != nil {
		t.Fatal(err)
	}
	var p reportPair
	for _, disable := range []bool{true, false} {
		opts := paracrash.DefaultOptions()
		opts.Mode = mode
		opts.Workers = workers
		opts.DisableRepresentative = disable
		opts.Obs = obs.NewRun()
		rep, err := exps.RunOne(fsName, prog, opts, workloads.DefaultH5Params(), exps.ConfigFor(fsName))
		if err != nil {
			t.Fatalf("%s/%s disable=%v: %v", fsName, progName, disable, err)
		}
		if disable {
			p.off = rep
		} else {
			p.on = rep
			p.onDigest = int(opts.Obs.Counter("restores/digest").Value() + opts.Obs.Counter("worker/restores/digest").Value())
		}
	}
	return p
}

// generatedPair is namedPair for fuzz-style workloads (generated or
// enumerated programs), run through the engine directly with no library.
func generatedPair(t *testing.T, fsName string, w *workloads.Program, mode paracrash.Mode) reportPair {
	t.Helper()
	var p reportPair
	for _, disable := range []bool{true, false} {
		fs, err := exps.NewFS(fsName, exps.ConfigFor(fsName), trace.NewRecorder())
		if err != nil {
			t.Fatal(err)
		}
		opts := paracrash.DefaultOptions()
		opts.Mode = mode
		opts.DisableRepresentative = disable
		rep, err := paracrash.Run(fs, nil, w, opts)
		if err != nil {
			t.Fatalf("%s/%s disable=%v: %v", fsName, w.Name(), disable, err)
		}
		if disable {
			p.off = rep
		} else {
			p.on = rep
		}
	}
	return p
}

// TestRepresentativeDifferentialNamed is the headline harness: for every
// backend (with its bench workload, covering both the POSIX and the HDF5
// library families) the representative run must be report-equivalent to
// brute force. The ARVR/BeeGFS cell additionally pins the collapse the
// committed bench relies on: an order-of-magnitude drop in checked states,
// and with it in the restores the representative run pays outside its class
// digest. The digest itself reconstructs and recovers every distinct kept
// set — the restores brute force pays too, so the total only matches brute
// force (the bound in assertEquivalent) — and every verdict reuses its
// recovered outcome, leaving legal-state replay as the verdicts' restores.
func TestRepresentativeDifferentialNamed(t *testing.T) {
	cells := []struct {
		fs, prog string
		mode     paracrash.Mode
		workers  int
	}{
		{"beegfs", "ARVR", paracrash.ModeBrute, 1},
		{"beegfs", "ARVR", paracrash.ModeBrute, 4},
		{"beegfs", "ARVR", paracrash.ModePruning, 1},
		{"orangefs", "CR", paracrash.ModePruning, 1},
		{"glusterfs", "WAL", paracrash.ModePruning, 1},
		{"gpfs", "H5-create", paracrash.ModePruning, 1},
		{"lustre", "H5-resize", paracrash.ModePruning, 1},
		{"ext4", "CR", paracrash.ModePruning, 1},
	}
	for _, c := range cells {
		label := c.fs + "/" + c.prog + "/" + c.mode.String()
		p := namedPair(t, c.fs, c.prog, c.mode, c.workers)
		assertEquivalent(t, label, p)
		if c.fs == "beegfs" && c.mode == paracrash.ModeBrute {
			s := p.on.Stats
			if s.StatesChecked*5 > s.StatesGenerated {
				t.Errorf("%s: only collapsed %d -> %d states, want >= 5x", label, s.StatesGenerated, s.StatesChecked)
			}
			if v := s.ServerRestores - p.onDigest; v*5 > p.off.Stats.ServerRestores {
				t.Errorf("%s: restores outside the class digest %d (of %d) vs brute %d, want >= 5x drop",
					label, v, s.ServerRestores, p.off.Stats.ServerRestores)
			}
		}
	}
}

// TestRepresentativeDifferentialFuzz replays the fuzz campaign's workload
// families — generated programs (seed order) and the length-1 bounded
// enumeration — through the differential oracle on the two cheapest
// backends, mirroring the campaign smoke cell grid.
func TestRepresentativeDifferentialFuzz(t *testing.T) {
	var progs []*workloads.Program
	for seed := int64(0); seed < 3; seed++ {
		progs = append(progs, workloads.Generate(workloads.DefaultGenConfig(seed)))
	}
	ec := workloads.DefaultEnumConfig()
	ec.MaxOps = 1
	workloads.Enumerate(ec, func(p *workloads.Program) bool {
		progs = append(progs, p)
		return true
	})
	for _, fsName := range []string{"ext4", "glusterfs"} {
		for _, w := range progs {
			label := fsName + "/" + w.Name()
			assertEquivalent(t, label, generatedPair(t, fsName, w, paracrash.ModeBrute))
		}
	}
}

// TestRepresentativeFaultTransparency checks that fault injection does not
// perturb the collapsed run: with healing quotas (the default MaxPerPoint)
// and retries, the faulted representative report is byte-identical to the
// unfaulted representative report, and still kernel-equivalent to the
// unfaulted brute-force reference. The class digests are recomputed under
// fire, so this exercises the shadow pipeline's retry path directly.
func TestRepresentativeFaultTransparency(t *testing.T) {
	for _, mode := range []paracrash.Mode{paracrash.ModeBrute, paracrash.ModePruning} {
		clean := paracrash.DefaultOptions()
		clean.Mode = mode
		cleanFP, err := runWithOpts(t, nil, clean)
		if err != nil {
			t.Fatal(err)
		}
		bref := clean
		bref.DisableRepresentative = true
		prog, err := exps.ProgramByName("ARVR")
		if err != nil {
			t.Fatal(err)
		}
		brute, err := exps.RunOne("beegfs", prog, bref, workloads.DefaultH5Params(), exps.ConfigFor("beegfs"))
		if err != nil {
			t.Fatal(err)
		}
		faulted := clean
		faulted.Retry = paracrash.RetryPolicy{MaxAttempts: 4, Backoff: time.Microsecond}
		faulted.Faults = faultinject.New(faultinject.Config{Seed: 11, Rate: 0.25})
		faultedFP, err := runWithOpts(t, nil, faulted)
		if err != nil {
			t.Fatal(err)
		}
		if faultedFP != cleanFP {
			t.Errorf("mode %s: faulted representative run diverged from the unfaulted one", mode)
		}
		rep, err := exps.RunOne("beegfs", prog, faulted, workloads.DefaultH5Params(), exps.ConfigFor("beegfs"))
		if err != nil {
			t.Fatal(err)
		}
		if exps.ReportKernel(rep) != exps.ReportKernel(brute) {
			t.Errorf("mode %s: faulted representative run not kernel-equivalent to brute force", mode)
		}
	}
}

// TestRepresentativeQuarantineDoesNotPoisonClass drives every apply into a
// hard fault (no healing, retries exhausted). Quarantine cannot poison a
// class for two reasons this test pins end to end: a skipped verdict is
// never recorded as a representative, and the shadow digest replays the
// same kept ops as reconstruct, so a state whose reconstruction hard-faults
// never obtains a class key and cannot silently inherit a healthy verdict.
// The observable: the skip list and the whole report kernel match brute
// force exactly (the only attributed states are the zero-apply ones that
// genuinely succeed in both runs).
func TestRepresentativeQuarantineDoesNotPoisonClass(t *testing.T) {
	hard := func(disable bool) *paracrash.Report {
		prog, err := exps.ProgramByName("ARVR")
		if err != nil {
			t.Fatal(err)
		}
		opts := paracrash.DefaultOptions()
		opts.DisableRepresentative = disable
		opts.Retry = paracrash.RetryPolicy{MaxAttempts: 2, Backoff: time.Microsecond}
		opts.Faults = faultinject.New(faultinject.Config{
			Seed: 3, Rate: 1, Kinds: []faultinject.Kind{faultinject.KindErr},
			Sites: []string{"pfs/apply"}, MaxPerPoint: 1 << 30,
		})
		rep, err := exps.RunOne("beegfs", prog, opts, workloads.DefaultH5Params(), exps.ConfigFor("beegfs"))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	on, off := hard(false), hard(true)
	if len(on.Skipped) == 0 {
		t.Fatal("hard faults quarantined nothing — the test lost its teeth")
	}
	assertEquivalent(t, "hard-faults", reportPair{off: off, on: on})
}

// TestRepresentativeChaosResume kills a representative run mid-class —
// with Checkpoint.Every=1 every kill lands between a representative's
// journal record and its members' attribution — and resumes until it
// completes. The journal holds one record per class (members are never
// journaled), so the resumed run must re-record each class from the
// replayed representative and attribute members exactly like an
// uninterrupted run: the final report must be byte-identical to a clean
// representative run, and kernel-identical to brute force.
func TestRepresentativeChaosResume(t *testing.T) {
	for _, workers := range []int{1, 4} {
		base := paracrash.DefaultOptions()
		base.Workers = workers
		baseFP, err := runWithOpts(t, nil, base)
		if err != nil {
			t.Fatal(err)
		}
		bref := base
		bref.DisableRepresentative = true
		bruteFP, err := runWithOpts(t, nil, bref)
		if err != nil {
			t.Fatal(err)
		}
		if baseFP == bruteFP {
			t.Fatal("representative run indistinguishable from brute force; the chaos test would prove nothing")
		}

		path := filepath.Join(t.TempDir(), "ckpt.jsonl")
		deadline := 2 * time.Millisecond
		kills := 0
		var finalFP string
		for attempt := 0; ; attempt++ {
			if attempt > 60 {
				t.Fatal("chaos run did not converge in 60 kill/resume rounds")
			}
			opts := paracrash.DefaultOptions()
			opts.Workers = workers
			opts.Checkpoint = paracrash.OpenCheckpoint(path)
			opts.Checkpoint.Every = 1
			opts.Faults = faultinject.New(faultinject.Config{Seed: 13, Rate: 0.25})

			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			fp, err := runWithOpts(t, ctx, opts)
			cancel()
			if err == nil {
				finalFP = fp
				break
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("chaos round %d died with a non-deadline error: %v", attempt, err)
			}
			kills++
			deadline += deadline / 2
		}
		if finalFP != baseFP {
			t.Errorf("workers=%d: resumed representative report differs from the uninterrupted one after %d kills:\n--- clean ---\n%s--- chaos ---\n%s",
				workers, kills, baseFP, finalFP)
		}
	}
}
