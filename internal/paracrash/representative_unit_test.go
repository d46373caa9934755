package paracrash

import (
	"strings"
	"testing"

	"paracrash/internal/causality"
	"paracrash/internal/pfs"
	"paracrash/internal/pfs/beegfs"
	"paracrash/internal/trace"
)

// digestSession builds the minimal white-box session crashDigest and
// classKey need: a recorded run of the in-package rename workload on
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
		opts:           DefaultOptions(),
		pfsOps:         NewLayerOps(g, trace.LayerPFS, nil),
		checkCache:     map[string]checkResult{},
		classes:        map[string]checkResult{},
		dedupKeys:      map[string]bool{},
		imageDigests:   map[string]string{},
		frontPFSStatus: map[string]string{},
		frontLibStatus: map[string]string{},
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
// returns what the shadow pipeline is supposed to digest: the serialized
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
		ckey, err := s.classKey(cs)
		if err != nil || ckey == "" {
			t.Fatalf("classKey empty without fault injection for state %s: %v", cs.Keep.Key(), err)
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
	// Digest memoisation must not leak across kept sets: every memo entry
	// keys a single kept set's digest.
	if len(s.imageDigests) == 0 {
		t.Fatal("shadow pipeline memoised nothing")
	}
}

// TestCrashDigestDeterministicAndStatePreserving pins two contracts the
// call sites rely on: repeated digests of one state are identical (memo or
// not), and after the shadow pipeline — whose recovery mutates the live
// cluster in place — the next bring of any state still lands on exactly that
// state's content.
func TestCrashDigestDeterministicAndStatePreserving(t *testing.T) {
	s, states := digestSession(t)
	cs, other := states[len(states)/2], states[0]
	want := recoveredContent(t, s, other)

	d1, err := s.crashDigest(cs)
	if err != nil {
		t.Fatal(err)
	}
	s.imageDigests = map[string]string{} // force a recompute past the memo
	d2, err := s.crashDigest(cs)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("crashDigest not deterministic: %q vs %q", d1, d2)
	}
	if err := s.recon.bring(other); err != nil {
		t.Fatal(err)
	}
	o, err := s.recon.recoveredOutcome(other)
	if err != nil {
		t.Fatal(err)
	}
	if o.treeStr != want {
		t.Fatalf("bring after the shadow pipeline reconstructed the wrong content:\n%q\nwant\n%q", o.treeStr, want)
	}
}
