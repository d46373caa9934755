package paracrash

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"paracrash/internal/causality"
	"paracrash/internal/obs"
	"paracrash/internal/pfs"
	"paracrash/internal/pfs/beegfs"
	"paracrash/internal/trace"
	"paracrash/internal/vfs"
)

// digestSession builds the minimal white-box session classKey needs: a recorded run of the in-package rename workload on
// BeeGFS with its causality graph and emulator.
func digestSession(t *testing.T) (*session, []CrashState) {
	t.Helper()
	rec := trace.NewRecorder()
	fs := beegfs.New(pfs.DefaultConfig(), rec)
	w := renameWorkload{}
	rec.SetEnabled(false)
	if err := w.Preamble(fs); err != nil {
		t.Fatal(err)
	}
	initial := fs.Snapshot()
	rec.Reset()
	rec.SetEnabled(true)
	if err := w.Run(fs); err != nil {
		t.Fatal(err)
	}
	rec.SetEnabled(false)
	g := causality.Build(rec.Ops())
	emu := NewEmulator(g, fs.PersistConfig())
	s := &session{
		fs: fs, g: g, emu: emu, initial: initial,
		opts:       DefaultOptions(),
		pfsOps:     NewLayerOps(g, trace.LayerPFS, nil),
		checkCache: map[string]Verdict{},
		classes:    map[string]Verdict{},
		fronts:     map[string]*frontStatus{},
	}
	var err error
	if s.recon, err = newReconstructor(s); err != nil {
		t.Fatal(err)
	}
	var states []CrashState
	emu.Generate(s.opts.Emulator, func(cs CrashState) bool {
		states = append(states, cs)
		return true
	})
	if len(states) < 4 {
		t.Fatalf("workload generated only %d crash states", len(states))
	}
	return s, states
}

// recoveredContent reconstructs a crash state the slow honest way and
// returns what the outcome's class digest is supposed to digest: the serialized
// mount tree, or the recovery/mount failure text.
func recoveredContent(t *testing.T, s *session, cs CrashState) string {
	t.Helper()
	s.fs.Restore(s.initial)
	for _, i := range s.emu.Universe {
		if !cs.Keep.Get(i) {
			continue
		}
		_ = s.fs.ApplyLowermost(s.g.Ops[i])
	}
	if err := s.fs.Recover(); err != nil {
		return "UNRECOVERABLE: " + err.Error()
	}
	tree, err := s.fs.Mount()
	if err != nil {
		return "UNMOUNTABLE: " + err.Error()
	}
	return tree.Serialize()
}

// TestClassKeyNeverCollidesAcrossRecoveredContent is the collision proof
// behind representative attribution: the class key embeds the StateDigest
// of the state's recovered content, so two crash states whose recovered
// content differs can never land in the same equivalence class, and states
// sharing a class digest provably recovered to identical content.
func TestClassKeyNeverCollidesAcrossRecoveredContent(t *testing.T) {
	s, states := digestSession(t)
	saved := s.fs.Snapshot()
	contentByClass := map[string]string{}
	distinct := map[string]bool{}
	for _, cs := range states {
		key, err := s.classKey(cs)
		ckey := string(key)
		if err != nil || ckey == "" {
			t.Fatalf("classKey empty on a healthy backend for state %s: %v", cs.Keep.Key(), err)
		}
		want := recoveredContent(t, s, cs)
		s.fs.Restore(saved)
		distinct[want] = true
		if got, ok := contentByClass[ckey]; ok {
			if got != want {
				t.Fatalf("class %q holds two different recovered states:\n%q\nvs\n%q", ckey, got, want)
			}
			continue
		}
		contentByClass[ckey] = want
		// The digest component must be exactly the StateDigest of the
		// recovered content — that is what "promoting StateDigest to the
		// bucketing key" means, and what keeps the key collision-free.
		if wantPrefix := StateDigest("crash", want) + "|"; !strings.HasPrefix(ckey, wantPrefix) {
			t.Fatalf("class key %q does not embed StateDigest of the recovered content (%q)", ckey, wantPrefix)
		}
	}
	if len(distinct) < 2 {
		t.Fatalf("workload produced %d distinct recovered states; collision test needs variety", len(distinct))
	}
	if len(contentByClass) < len(distinct) {
		t.Fatalf("%d classes cover %d distinct recovered states", len(contentByClass), len(distinct))
	}
}

// TestCrashDigestDeterministicAndStatePreserving pins two contracts the
// call sites rely on: repeated digests of one state are identical (memo or
// not), and after a class lookup — whose recovery mutates the live cluster
// in place — the next bring of any state still lands on exactly that
// state's content.
func TestCrashDigestDeterministicAndStatePreserving(t *testing.T) {
	s, states := digestSession(t)
	cs, other := states[len(states)/2], states[0]
	want := recoveredContent(t, s, other)

	digest := func() string {
		t.Helper()
		o, err := s.recon.recoveredOutcome(cs)
		if err != nil {
			t.Fatal(err)
		}
		return o.digest
	}
	d1 := digest()
	s.recon.outcomes = map[string]*recoveredOutcome{} // force a recompute past the memo
	if d2 := digest(); d1 != d2 {
		t.Fatalf("crash digest not deterministic: %q vs %q", d1, d2)
	}
	if err := s.recon.bring(other); err != nil {
		t.Fatal(err)
	}
	o, err := s.recon.recoveredOutcome(other)
	if err != nil {
		t.Fatal(err)
	}
	if o.treeStr != want {
		t.Fatalf("bring after a class lookup reconstructed the wrong content:\n%q\nwant\n%q", o.treeStr, want)
	}
}

// TestCrashDigestAtOutcomeCap: class digests live in the outcome memo and
// share its maxOutcomes cap. A brute-force walk over the rename workload's
// k = 2 states starts with the memo pre-filled so that the images it
// reconstructs bring it to one below the cap, exactly to it, one past it,
// and far past it (a clear mid-walk). Every fill must judge every state as
// the unfilled walk does, with the same class memo and the same checked and
// deduplicated counts; the memo never holds more than maxOutcomes entries;
// and every class lookup of an image the memo does not hold reconstructs
// it — no digest outlives its outcome.
func TestCrashDigestAtOutcomeCap(t *testing.T) {
	type walk struct {
		verdicts map[string]Verdict
		classes  int
		stats    Stats
		distinct int // images in the memo at the end
	}
	run := func(fill int) walk {
		t.Helper()
		opts := DefaultOptions()
		opts.Mode = ModeBrute
		opts.Emulator.K = 2
		s, err := prepare(context.Background(), beegfs.New(pfs.DefaultConfig(), trace.NewRecorder()), nil, renameWorkload{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		states := s.generate()
		for i := 0; i < fill; i++ {
			s.recon.outcomes[fmt.Sprintf("filler-%d", i)] = &recoveredOutcome{}
		}
		w := walk{verdicts: map[string]Verdict{}}
		for i, cs := range states {
			_, held := s.recon.outcomes[string(s.recon.imageKey(cs.Keep))]
			before := s.stats.ServerRestores
			r := s.check(cs)
			s.countVisit(r)
			w.verdicts[stateKey(cs)] = r
			if !held && s.stats.ServerRestores == before {
				t.Fatalf("fill %d, state %d: class lookup of an image the outcome memo does not hold reconstructed nothing", fill, i)
			}
			if n := len(s.recon.outcomes); n > maxOutcomes {
				t.Fatalf("fill %d, state %d: outcome memo holds %d entries, cap %d", fill, i, n, maxOutcomes)
			}
		}
		w.classes, w.stats = len(s.classes), s.stats
		w.distinct = len(s.recon.outcomes) - fill
		return w
	}
	want := run(0)
	d := want.distinct
	if d < 8 || want.stats.StatesDeduped == 0 {
		t.Fatalf("%d images, %d states deduped: the walk is too small to cross a clear", d, want.stats.StatesDeduped)
	}
	for _, fill := range []int{maxOutcomes - d - 1, maxOutcomes - d, maxOutcomes - d + 1, maxOutcomes - d/2} {
		got := run(fill)
		if got.classes != want.classes || got.stats.StatesChecked != want.stats.StatesChecked || got.stats.StatesDeduped != want.stats.StatesDeduped {
			t.Errorf("fill %d: %d classes, %d checked, %d deduped; unfilled walk %d, %d, %d", fill,
				got.classes, got.stats.StatesChecked, got.stats.StatesDeduped,
				want.classes, want.stats.StatesChecked, want.stats.StatesDeduped)
		}
		for k, r := range want.verdicts {
			if got.verdicts[k] != r {
				t.Fatalf("fill %d: state verdict %+v, unfilled walk %+v", fill, got.verdicts[k], r)
			}
		}
		if fill == maxOutcomes-d/2 && got.stats.ServerRestores <= want.stats.ServerRestores {
			t.Errorf("fill %d: the memo was cleared, yet the walk restored %d servers, no more than the unfilled walk's %d",
				fill, got.stats.ServerRestores, want.stats.ServerRestores)
		}
	}
}

// TestClassKeyHoldsEveryLayerStatus: the class key carries the status
// vector of every layer the verdict consults, so fronts whose vectors differ
// on any layer never share a class. Dropping the library vector changes no
// verdict of any paper program at k <= 2 on any backend — there the library
// vector follows from the PFS one, as every lowermost op under a library op
// passes through a PFS op — so this pins the key's composition directly,
// with the PFS layer's ops standing in for a second layer.
func TestClassKeyHoldsEveryLayerStatus(t *testing.T) {
	s, states := digestSession(t)
	s.libOps = NewLayerOps(s.g, trace.LayerPFS, nil)
	for _, cs := range states {
		key, err := s.classKey(cs)
		ckey := string(key)
		if err != nil {
			t.Fatal(err)
		}
		o, err := s.recon.recoveredOutcome(cs)
		if err != nil {
			t.Fatal(err)
		}
		want := o.digest + "|" + statusKey(s.pfsOps.StatusAgainst(cs.Front)) + "|" + statusKey(s.libOps.StatusAgainst(cs.Front))
		if ckey != want {
			t.Fatalf("class key %q, want digest|pfs status|library status %q", ckey, want)
		}
	}
}

// TestRepresentativeQuarantinedVerdictIsNoClass: a state whose class lookup
// succeeds but whose verdict panics is quarantined, and its verdict is never
// recorded for its class, so every other member is judged on its own instead
// of inheriting the quarantine. The walk's recovered outcomes are memoised
// before the backend's Mount is made to panic, so each lookup succeeds and
// each verdict's legal-state replay panics.
func TestRepresentativeQuarantinedVerdictIsNoClass(t *testing.T) {
	opts := DefaultOptions()
	opts.Mode = ModeBrute
	fs := &panicOnMount{FileSystem: beegfs.New(pfs.DefaultConfig(), trace.NewRecorder())}
	s, err := prepare(context.Background(), fs, nil, renameWorkload{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	states := s.generate()
	for _, cs := range states {
		if _, err := s.recon.recoveredOutcome(cs); err != nil {
			t.Fatal(err)
		}
	}
	fs.armed = true
	classOf := map[string]int{}
	for _, cs := range states {
		r := s.check(cs)
		if r.Class == "" {
			t.Fatalf("class lookup failed for state %x", cs.Keep.Key())
		}
		if !r.Skipped || !strings.Contains(r.Consequence, "backend bug mounting") {
			t.Fatalf("state %x judged %+v with every mount panicking", cs.Keep.Key(), r)
		}
		if r.attributed {
			t.Fatalf("state %x was attributed a quarantined verdict", cs.Keep.Key())
		}
		classOf[r.Class]++
	}
	if len(classOf) == len(states) {
		t.Fatal("no two states share a class — the test lost its teeth")
	}
	if len(s.classes) != 0 {
		t.Fatalf("%d quarantined verdicts recorded as class representatives", len(s.classes))
	}
}

// storeContent serializes every server store of fs.
func storeContent(fs pfs.FileSystem) string {
	st := fs.Snapshot()
	var b strings.Builder
	for _, p := range fs.Procs() {
		b.WriteString("== " + p + " ==\n")
		if f, ok := st.FS[p]; ok {
			b.WriteString(f.Serialize())
		}
		if d, ok := st.Dev[p]; ok {
			b.WriteString(d.Serialize())
		}
	}
	return b.String()
}

// TestRepresentativeBackendPanicQuarantined: a backend whose apply of one op
// panics. Every visited state whose image needs that op lands in
// Report.Skipped at its first attempt, with the server and the panic text
// in its reason, states/skipped counts exactly those, no class is recorded
// from a skipped state, and every other state is judged as on the unbroken
// backend, because the next bring starts from a clean cluster.
func TestRepresentativeBackendPanicQuarantined(t *testing.T) {
	opts := DefaultOptions()
	opts.Mode = ModeBrute
	opts.Emulator.K = 2
	clean, err := prepare(context.Background(), beegfs.New(pfs.DefaultConfig(), trace.NewRecorder()), nil, renameWorkload{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	states := clean.generate()
	if _, err := clean.explore(nil, nil); err != nil {
		t.Fatal(err)
	}
	var changing []int // the ops that change a store
	for _, i := range clean.emu.Universe {
		if p, ok := clean.g.Ops[i].Payload.(vfs.Op); ok && p.Kind != vfs.OpSync {
			changing = append(changing, i)
		}
	}
	if len(changing) == 0 {
		t.Fatal("the workload has no store-changing op")
	}
	x := changing[len(changing)/2]

	r := obs.NewRun()
	opts.Obs = r
	bad := clean.g.Ops[x]
	fs := PanicOnApply(beegfs.New(pfs.DefaultConfig(), trace.NewRecorder()), func(op *trace.Op) bool { return op.ID == bad.ID })
	s, err := prepare(context.Background(), fs, nil, renameWorkload{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.explore(nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	want := 0
	var with, without *CrashState
	for i, cs := range states {
		if !s.feasible(cs) {
			continue
		}
		if cs.Keep.Get(x) {
			want++
			with = &states[i]
			continue
		}
		without = &states[i]
		strip := func(r Verdict) Verdict { r.attributed = false; return r }
		if got, ref := strip(s.checkCache[stateKey(cs)]), strip(clean.checkCache[stateKey(cs)]); got != ref {
			t.Errorf("state %d does not apply the op, yet is judged %+v, on the unbroken backend %+v", i, got, ref)
		}
	}
	if want == 0 || without == nil {
		t.Fatalf("%d of %d states keep op %d: the test needs states on both sides", want, len(states), x)
	}
	if len(rep.Skipped) != want {
		t.Errorf("%d states skipped, %d keep the op whose apply panics", len(rep.Skipped), want)
	}
	t.Logf("%d of %d states keep op %d and are skipped", want, len(states), x)
	wantReason := "quarantined: panic applying ops on " + bad.Proc + ": backend bug applying " + bad.Key()
	for _, sk := range rep.Skipped {
		if sk.Reason != wantReason {
			t.Fatalf("skip reason %q, want %q", sk.Reason, wantReason)
		}
	}
	if n := r.Counter("states/skipped").Value(); n != int64(len(rep.Skipped)) {
		t.Errorf("states/skipped = %d, the report skips %d states", n, len(rep.Skipped))
	}
	for ckey, cr := range s.classes {
		if cr.Skipped {
			t.Errorf("class %x recorded a skipped verdict", ckey)
		}
	}

	// An aborted bring leaves the cluster half-built; the next one must not
	// start from it.
	if err := s.recon.bring(*with); err == nil || !strings.Contains(err.Error(), "backend bug applying") {
		t.Fatalf("bring of a state keeping the op: %v", err)
	}
	if err := s.recon.bring(*without); err != nil {
		t.Fatal(err)
	}
	clean.fs.Restore(clean.initial)
	for _, i := range clean.emu.Universe {
		if without.Keep.Get(i) {
			_ = clean.fs.ApplyLowermost(clean.g.Ops[i])
		}
	}
	if got, ref := storeContent(s.fs), storeContent(clean.fs); got != ref {
		t.Errorf("bring after an aborted bring:\n%s\nfull rebuild:\n%s", got, ref)
	}
}
