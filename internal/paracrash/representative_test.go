package paracrash_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"paracrash/internal/exps"
	"paracrash/internal/obs"
	"paracrash/internal/paracrash"
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

// referencePair holds one cell's engine run and its per-state reference run
// (paracrash.ReferenceRun: every state judged on its own, no class memo).
// engineJudged is nil when the engine ran through the public API; onDigest
// is the engine run's class-lookup share of its restores (restores/digest).
type referencePair struct {
	engine, ref             *paracrash.Report
	engineJudged, refJudged map[string]paracrash.Judged
	onDigest                int
}

// assertMatchesReference is the oracle shared by every test below. The
// engine's report must equal the reference's in verdict content (the
// ReportKernel: inconsistent states, skip list and bugs), and the state
// counts must reconcile: the same states generated and pruned, and every
// state the reference visited lands in either StatesChecked or
// StatesDeduped. Where the engine's per-state verdicts are at hand, every
// state either run judged must carry the same verdict in both, so each
// attributed verdict is the one the state earns on its own (class
// homogeneity); no quarantined verdict is ever attributed; and
// StatesDeduped counts exactly the visited states that took their class's
// verdict. With boundRestores the engine must also restore no more servers
// than the reference.
func assertMatchesReference(t *testing.T, label string, p referencePair, boundRestores bool) {
	t.Helper()
	if k, r := exps.ReportKernel(p.engine), exps.ReportKernel(p.ref); k != r {
		t.Errorf("%s: engine report differs from the per-state reference:\n--- reference ---\n%s--- engine ---\n%s", label, r, k)
	}
	se, sr := p.engine.Stats, p.ref.Stats
	if se.StatesGenerated != sr.StatesGenerated {
		t.Errorf("%s: generated %d states, reference %d", label, se.StatesGenerated, sr.StatesGenerated)
	}
	if se.StatesChecked+se.StatesDeduped != sr.StatesChecked {
		t.Errorf("%s: checked(%d)+deduped(%d) != reference checked(%d)",
			label, se.StatesChecked, se.StatesDeduped, sr.StatesChecked)
	}
	if se.StatesPruned != sr.StatesPruned {
		t.Errorf("%s: pruned %d states, reference %d", label, se.StatesPruned, sr.StatesPruned)
	}
	if se.StatesDeduped > 0 && se.StateClasses == 0 {
		t.Errorf("%s: %d states deduped but no classes reported", label, se.StatesDeduped)
	}
	if boundRestores && se.ServerRestores > sr.ServerRestores {
		t.Errorf("%s: engine restored %d servers, reference only %d", label, se.ServerRestores, sr.ServerRestores)
	}
	if p.engineJudged == nil {
		return
	}
	attributed, bad := 0, 0
	for key, ref := range p.refJudged {
		got, ok := p.engineJudged[key]
		switch {
		case !ok:
			t.Errorf("%s: reference judged state %x, the engine holds no verdict for it", label, key)
			bad++
		case got.Verdict != ref.Verdict:
			t.Errorf("%s: state %x (attributed %t): engine verdict %+v, reference %+v", label, key, got.Attributed, got.Verdict, ref.Verdict)
			bad++
		}
		if ok && ref.Visited && got.Attributed {
			attributed++
		}
		if bad >= 5 {
			t.Fatalf("%s: giving up after %d per-state differences", label, bad)
		}
	}
	for key, got := range p.engineJudged {
		if _, ok := p.refJudged[key]; !ok {
			t.Errorf("%s: engine judged state %x, the reference never did", label, key)
		}
		if got.Attributed && got.Skipped {
			t.Errorf("%s: state %x was attributed a quarantined verdict", label, key)
		}
	}
	if attributed != se.StatesDeduped {
		t.Errorf("%s: %d visited states took their class's verdict, StatesDeduped says %d", label, attributed, se.StatesDeduped)
	}
}

// cellRun builds a fresh cell and runs it through run (paracrash.EngineRun
// or paracrash.ReferenceRun).
type cellRun func(pfs.FileSystem, paracrash.Library, paracrash.Workload, paracrash.Options) (*paracrash.Report, map[string]paracrash.Judged, error)

// namedPair runs a named program cell (with its placement hints and, for
// the H5 workloads, its I/O library) through the engine and the reference,
// each on the cell's backend as wrap wraps it (nil: as it is).
func namedPair(t *testing.T, fsName, progName string, wrap func(pfs.FileSystem) pfs.FileSystem, opts paracrash.Options) referencePair {
	t.Helper()
	prog, err := exps.ProgramByName(progName)
	if err != nil {
		t.Fatal(err)
	}
	run := func(f cellRun, opts paracrash.Options) (*paracrash.Report, map[string]paracrash.Judged) {
		fs, w, lib := emulatorCell(t, fsName, prog)
		if wrap != nil {
			fs = wrap(fs)
		}
		rep, judged, err := f(fs, lib, w, opts)
		if err != nil {
			t.Fatalf("%s/%s: %v", fsName, progName, err)
		}
		return rep, judged
	}
	var p referencePair
	p.ref, p.refJudged = run(paracrash.ReferenceRun, opts)
	opts.Obs = obs.NewRun()
	p.engine, p.engineJudged = run(paracrash.EngineRun, opts)
	p.onDigest = int(opts.Obs.Counter("restores/digest").Value())
	return p
}

// generatedPair is namedPair for fuzz-style workloads (generated or
// enumerated programs), run with no library.
func generatedPair(t *testing.T, fsName string, w *workloads.Program, opts paracrash.Options) referencePair {
	t.Helper()
	run := func(f cellRun) (*paracrash.Report, map[string]paracrash.Judged) {
		fs, err := exps.NewFS(fsName, exps.ConfigFor(fsName), trace.NewRecorder())
		if err != nil {
			t.Fatal(err)
		}
		rep, judged, err := f(fs, nil, w, opts)
		if err != nil {
			t.Fatalf("%s/%s: %v", fsName, w.Name(), err)
		}
		return rep, judged
	}
	var p referencePair
	p.engine, p.engineJudged = run(paracrash.EngineRun)
	p.ref, p.refJudged = run(paracrash.ReferenceRun)
	return p
}

// TestRepresentativeDifferentialNamed is the headline harness: for every
// backend (with its bench workload, covering both the POSIX and the HDF5
// library families) the engine must match the per-state reference state by
// state. The ARVR/BeeGFS cell additionally pins the collapse the committed
// bench relies on: an order-of-magnitude drop in checked states, and with
// it in the restores the engine pays outside its class lookups. The lookup
// itself reconstructs and recovers every distinct kept set — the restores
// the reference pays too, so the total only stays within the reference's
// (the bound in assertMatchesReference) — and every verdict reuses its
// recovered outcome, leaving legal-state replay as the verdicts' restores.
func TestRepresentativeDifferentialNamed(t *testing.T) {
	cells := []struct {
		fs, prog string
		mode     paracrash.Mode
	}{
		{"beegfs", "ARVR", paracrash.ModeBrute},
		{"beegfs", "ARVR", paracrash.ModePruning},
		{"orangefs", "CR", paracrash.ModePruning},
		{"glusterfs", "WAL", paracrash.ModePruning},
		{"gpfs", "H5-create", paracrash.ModePruning},
		{"lustre", "H5-resize", paracrash.ModePruning},
		{"ext4", "CR", paracrash.ModePruning},
	}
	for _, c := range cells {
		label := fmt.Sprintf("%s/%s/%s", c.fs, c.prog, c.mode)
		opts := paracrash.DefaultOptions()
		opts.Mode = c.mode
		p := namedPair(t, c.fs, c.prog, nil, opts)
		assertMatchesReference(t, label, p, true)
		if c.fs == "beegfs" && c.mode == paracrash.ModeBrute {
			s := p.engine.Stats
			if s.StatesChecked*5 > s.StatesGenerated {
				t.Errorf("%s: only collapsed %d -> %d states, want >= 5x", label, s.StatesGenerated, s.StatesChecked)
			}
			if v := s.ServerRestores - p.onDigest; v*5 > p.ref.Stats.ServerRestores {
				t.Errorf("%s: restores outside the class lookups %d (of %d) vs reference %d, want >= 5x drop",
					label, v, s.ServerRestores, p.ref.Stats.ServerRestores)
			}
		}
	}
}

// TestRepresentativeDifferentialFuzz replays the fuzz campaign's workload
// families — generated programs (seed order) and the length-1 bounded
// enumeration — through the reference oracle on the two cheapest backends,
// mirroring the campaign smoke cell grid.
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
	opts := paracrash.DefaultOptions()
	opts.Mode = paracrash.ModeBrute
	for _, fsName := range []string{"ext4", "glusterfs"} {
		for _, w := range progs {
			assertMatchesReference(t, fsName+"/"+w.Name(), generatedPair(t, fsName, w, opts), true)
		}
	}
}

// TestRepresentativeFaultTransparency: a backend fault perturbs the class
// memo no more than it perturbs the per-state reference. On a backend whose
// apply of ARVR's rename panics, in both modes, the engine matches the
// per-state reference on the same backend state by state, and every state
// it does not quarantine carries the verdict the unbroken backend gives it:
// a class whose lookup was quarantined neither loses nor lends a verdict.
func TestRepresentativeFaultTransparency(t *testing.T) {
	prog, err := exps.ProgramByName("ARVR")
	if err != nil {
		t.Fatal(err)
	}
	broken := func(fs pfs.FileSystem) pfs.FileSystem {
		return paracrash.PanicOnApply(fs, func(op *trace.Op) bool { return op.Name == "rename" })
	}
	for _, mode := range []paracrash.Mode{paracrash.ModeBrute, paracrash.ModePruning} {
		opts := paracrash.DefaultOptions()
		opts.Mode = mode
		fs, w, lib := emulatorCell(t, "beegfs", prog)
		_, clean, err := paracrash.EngineRun(fs, lib, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		p := namedPair(t, "beegfs", "ARVR", broken, opts)
		if len(p.engine.Skipped) == 0 {
			t.Fatalf("mode %s: a panicking rename quarantined nothing", mode)
		}
		assertMatchesReference(t, "broken/"+mode.String(), p, true)
		same := 0
		for key, got := range p.engineJudged {
			if want, ok := clean[key]; ok && !got.Skipped {
				if got.Verdict != want.Verdict {
					t.Errorf("mode %s: state %x: verdict %+v, on the unbroken backend %+v", mode, key, got.Verdict, want.Verdict)
				}
				same++
			}
		}
		if same == 0 {
			t.Fatalf("mode %s: every state was quarantined", mode)
		}
	}
}

// TestRepresentativeQuarantineDoesNotPoisonClass runs on a backend whose
// every apply on one server panics. Quarantine cannot poison a class for
// two reasons this test pins end to end: a skipped verdict is never
// recorded as a representative, and the class lookup replays the same kept
// ops as a verdict, so a state whose reconstruction panics never obtains a
// class key and cannot silently inherit a healthy verdict. The observable:
// on the same backend, the skip list, the whole report kernel and every
// state's verdict match the per-state reference.
func TestRepresentativeQuarantineDoesNotPoisonClass(t *testing.T) {
	opts := paracrash.DefaultOptions()
	p := namedPair(t, "beegfs", "ARVR", panicOnStorage1, opts)
	if len(p.engine.Skipped) == 0 {
		t.Fatal("a panicking backend quarantined nothing — the test lost its teeth")
	}
	assertMatchesReference(t, "hard-faults", p, true)
}

// TestRepresentativeChaosResume kills a run mid-class — with
// Checkpoint.Every=1 every kill lands between a representative's journal
// record and its members' attribution — and resumes until it completes.
// The journal holds one record per class (members are never journaled), so
// the resumed run must re-record each class from the replayed
// representative and attribute members exactly like an uninterrupted run:
// the final report must be byte-identical to a clean run, and
// kernel-identical to the per-state reference.
func TestRepresentativeChaosResume(t *testing.T) {
	prog, err := exps.ProgramByName("ARVR")
	if err != nil {
		t.Fatal(err)
	}
	fs, w, lib := emulatorCell(t, "beegfs", prog)
	ref, _, err := paracrash.ReferenceRun(fs, lib, w, paracrash.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	base := paracrash.DefaultOptions()
	clean, err := exps.RunOne("beegfs", prog, base, workloads.DefaultH5Params(), exps.ConfigFor("beegfs"))
	if err != nil {
		t.Fatal(err)
	}
	if clean.Stats.StatesDeduped == 0 {
		t.Fatal("no state was attributed from a class; the chaos test would prove nothing")
	}

	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	deadline := 2 * time.Millisecond
	kills := 0
	var final *paracrash.Report
	for attempt := 0; ; attempt++ {
		if attempt > 60 {
			t.Fatal("chaos run did not converge in 60 kill/resume rounds")
		}
		opts := base
		opts.Checkpoint = paracrash.OpenCheckpoint(path)
		opts.Checkpoint.Every = 1

		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		rep, err := exps.RunOneContext(ctx, "beegfs", prog, opts, workloads.DefaultH5Params(), exps.ConfigFor("beegfs"))
		cancel()
		if err == nil {
			final = rep
			break
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("chaos round %d died with a non-deadline error: %v", attempt, err)
		}
		kills++
		deadline += deadline / 2
	}
	if got, want := exps.ReportFingerprint(final), exps.ReportFingerprint(clean); got != want {
		t.Errorf("resumed report differs from the uninterrupted one after %d kills:\n--- clean ---\n%s--- chaos ---\n%s",
			kills, want, got)
	}
	assertMatchesReference(t, "chaos", referencePair{engine: final, ref: ref}, false)
}
