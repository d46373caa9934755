// Representative-state exploration (Pathfinder-style): most generated
// crash states collapse into a small number of equivalence classes whose
// members are indistinguishable to the checker, so one representative per
// class is reconstructed and judged and its verdict is attributed to every
// member.
//
// The class key is a model-independent pre-check digest of exactly the
// inputs the verdict is a pure function of:
//
//   - the recovered content of the crash state (the StateDigest of what
//     recovery and mount produce from the kept ops — the kept sequence
//     only ever reaches the verdict through this content, so states that
//     recover identically are indistinguishable to every later step),
//   - the PFS-layer status vector of the crash front (legal-state sets are
//     keyed on it, and it is the only way the verdict consults Front), and
//   - the library-layer status vector, when a library is checked.
//
// The recovered content is computed by the emulator's in-memory shadow
// pipeline — apply the kept ops to a scratch restore, run recovery, mount —
// which is memoised per kept set and charges nothing: the Stats model the
// cost of touching a real cluster (server restores, op replays), which
// representative exploration pays once per class, while classification is
// pure user-space emulation. On ARVR/BeeGFS the 105 generated states
// collapse into 15 classes over 6 distinct recovered states.
//
// Attribution keeps the report byte-identical to brute force: a member
// inherits its representative's full checkResult — recovered-state content
// (hence InconsistentState.Key and Bug.CauseKey grouping), consequence and
// legal-set sizes — and only the effort stats differ (members land in
// Stats.StatesDeduped instead of StatesChecked and charge no restores or
// replays). Quarantined verdicts are never recorded as class
// representatives: a state that faulted through every retry says nothing
// about its class, so each member re-attempts on its own and a poisoned
// representative cannot silence a whole class.
package paracrash

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"

	"paracrash/internal/causality"
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
)

// representative reports whether representative-state exploration is on
// (the default; Options.DisableRepresentative falls back to brute force).
func (s *session) representative() bool {
	return !s.opts.DisableRepresentative
}

// classKey computes the crash state's equivalence-class digest: the
// recovered-content digest of the kept ops plus the per-layer status
// vectors of the front. States sharing the key recover to identical
// content and are judged against identical legal-state sets, so they
// share one verdict. An empty key (digest quarantined by persistent
// faults) means the state classifies itself — sound, never wrong.
func (s *session) classKey(cs CrashState) string {
	d, err := s.crashDigest(cs)
	if err != nil {
		return ""
	}
	var b strings.Builder
	b.WriteString(d)
	b.WriteByte('|')
	b.WriteString(s.frontStatus(cs.Front, s.pfsOps, s.frontPFSStatus))
	if s.libOps != nil {
		b.WriteByte('|')
		b.WriteString(s.frontStatus(cs.Front, s.libOps, s.frontLibStatus))
	}
	return b.String()
}

// crashDigest runs the shadow pipeline for a kept set: bring the cluster to
// the kept ops, run recovery and mount, and digest the outcome (recovery and
// mount failures fold their deterministic error text in — states that fail
// differently must not share a class, their consequences differ). The
// pipeline leaves the live cluster repairable (mutated servers are marked
// dirty and the next bring restores them from prefix roots) and nothing is
// charged: this is the emulator's in-memory classification step, not a
// modeled cluster touch.
// Injected faults retry under the policy like any other faultable work; an
// exhausted retry budget surfaces as an error and the caller falls back to
// a private class.
func (s *session) crashDigest(cs CrashState) (string, error) {
	kk := s.recon.keepKey(cs)
	if d, ok := s.imageDigests[kk]; ok {
		return d, nil
	}
	// Reconstruct the kept set through the reconstructor and judge the live
	// cluster. The reconstruction is uncharged, and both its prefix roots and
	// the recovery outcome stay cached: when this state misses its class and
	// needs a real verdict next, bring and fsck+mount are both no-ops.
	var content string
	err := s.withRetry(func() error {
		if berr := s.recon.bring(cs); berr != nil {
			return berr
		}
		o, derr := s.recon.recoveredOutcome(cs)
		if derr != nil {
			return derr
		}
		switch {
		case o.recoverErr != "":
			content = "UNRECOVERABLE: " + o.recoverErr
		case o.mountErr != "":
			content = "UNMOUNTABLE: " + o.mountErr
		default:
			content = o.treeStr
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	d := StateDigest("crash", content)
	s.imageDigests[kk] = d
	return d, nil
}

// frontStatus memoises a layer's status vector per crash front (many states
// share a front, and StatusAgainst walks every descendant list).
func (s *session) frontStatus(front causality.Bitset, lo *LayerOps, memo map[string]string) string {
	fk := front.Key()
	if v, ok := memo[fk]; ok {
		return v
	}
	v := statusKey(lo.StatusAgainst(front))
	memo[fk] = v
	return v
}

// recordClass stores a freshly computed (or resumed) verdict as its class
// representative. Skipped verdicts are never recorded — quarantine must not
// poison a class — and the first verdict wins, matching the visiting order.
func (s *session) recordClass(ckey string, r checkResult) {
	if ckey == "" || r.skipped {
		return
	}
	if _, ok := s.classes[ckey]; !ok {
		s.classes[ckey] = r
	}
}

// attributeClass adopts a representative's verdict for a member state:
// the verdict is cached under the member's own key, the member is marked
// deduplicated (handle charges StatesDeduped instead of StatesChecked),
// and only the legal-set maxima are folded in — no restores or replays.
func (s *session) attributeClass(key string, r checkResult) {
	s.chargeLegal(r)
	s.checkCache[key] = r
	s.dedupKeys[key] = true
}

// LegalMemo shares legal-state sets across runs: the enumerated set for a
// given (scope, layer, model, status vector) is identical for every run of
// the same workload on the same file system, so a fuzz campaign's seven-odd
// explorer runs per cell enumerate each set once. Sets are stored only
// after a successful (unfaulted) enumeration and are read-only afterwards,
// so sharing them across concurrent sessions is safe.
//
// The scope key folds in the file-system name, server count, workload name
// and a trace digest; callers reusing one memo across workloads must ensure
// workload names identify the traced body (the fuzz campaign's generated
// and enumerated program names do).
type LegalMemo struct {
	mu sync.Mutex
	m  map[string]map[string]bool
}

// NewLegalMemo returns an empty cross-run legal-state memo.
func NewLegalMemo() *LegalMemo {
	return &LegalMemo{m: map[string]map[string]bool{}}
}

// Len returns the number of memoised legal-state sets.
func (m *LegalMemo) Len() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

func (m *LegalMemo) get(key string) (map[string]bool, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	set, ok := m.m[key]
	return set, ok
}

func (m *LegalMemo) put(key string, set map[string]bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.m[key]; !ok {
		m.m[key] = set
	}
}

// legalMemoScope derives the session's memo namespace from everything a
// legal-state set depends on besides (layer, model, status): the backend,
// its server count, the workload identity, the traced ops and the
// enumeration cap.
func legalMemoScope(fs pfs.FileSystem, workload string, ops []*trace.Op, opts Options) string {
	h := sha256.New()
	for _, op := range ops {
		fmt.Fprintf(h, "%s|%+v\n", op.Key(), op.Payload)
	}
	return fmt.Sprintf("%s|%d|%s|%x|mls=%d", fs.Name(), len(fs.Procs()), workload, h.Sum(nil)[:8], opts.MaxLegalStates)
}

// memoLookup consults the cross-run memo (nil-safe; "" scope = memo off).
func (s *session) memoLookup(layer string, model Model, statusKey string) (map[string]bool, bool) {
	if s.opts.LegalMemo == nil || s.memoScope == "" {
		return nil, false
	}
	return s.opts.LegalMemo.get(s.memoScope + "|" + layer + "|" + model.String() + "|" + statusKey)
}

// memoStore publishes a successfully enumerated set to the cross-run memo.
func (s *session) memoStore(layer string, model Model, statusKey string, set map[string]bool) {
	if s.opts.LegalMemo == nil || s.memoScope == "" {
		return
	}
	s.opts.LegalMemo.put(s.memoScope+"|"+layer+"|"+model.String()+"|"+statusKey, set)
}
