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
// The recovered content is computed by a shadow pipeline — bring the live
// cluster to the kept ops, run recovery, mount — memoised per kept set. Its
// restores and op applies are real work and are counted like any other
// (restores/digest is their share of restores/servers); a state that then
// needs a verdict reuses the memoised recovery outcome instead of being
// reconstructed again. On ARVR/BeeGFS the 105
// generated states collapse into 15 classes over 6 distinct recovered
// states.
//
// Attribution keeps the report's verdicts identical to brute force: a
// member inherits its representative's full checkResult — recovered-state
// content (hence InconsistentState.Key and Bug.CauseKey grouping) and
// consequence — and only the effort stats differ (members land in
// Stats.StatesDeduped instead of StatesChecked and need no verdict of their
// own). Quarantined verdicts are never recorded as class
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
// share one verdict. A digest that faulted through every retry comes back
// as the error, with an empty key: the state then belongs to no class.
func (s *session) classKey(cs CrashState) (string, error) {
	d, err := s.crashDigest(cs)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(d)
	b.WriteByte('|')
	b.WriteString(s.frontStatus(cs.Front, s.pfsOps, s.frontPFSStatus))
	if s.libOps != nil {
		b.WriteByte('|')
		b.WriteString(s.frontStatus(cs.Front, s.libOps, s.frontLibStatus))
	}
	return b.String(), nil
}

// crashDigest runs the shadow pipeline for a kept set: bring the cluster to
// the kept ops, run recovery and mount, and digest the outcome (recovery and
// mount failures fold their deterministic error text in — states that fail
// differently must not share a class, their consequences differ). Recovery
// leaves the live cluster mutated, which is harmless: the next bring
// restores every server. The pipeline's restores also count on
// restores/digest.
// Injected faults retry under the policy like any other faultable work; an
// exhausted retry budget surfaces as an error and check quarantines the
// state, as a verdict that faulted through its budget would be.
func (s *session) crashDigest(cs CrashState) (string, error) {
	kk := s.recon.keepKey(cs)
	if d, ok := s.imageDigests[kk]; ok {
		return d, nil
	}
	// Reconstruct the kept set through the reconstructor and judge the live
	// cluster. Both its prefix roots and the recovery outcome stay cached:
	// when this state misses its class and needs a real verdict next, the
	// verdict reuses the outcome without reconstructing again.
	var content string
	before := s.stats.ServerRestores
	err := s.withRetry(func() error {
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
	s.ctrDigestRestore.Add(int64(s.stats.ServerRestores - before))
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
// the verdict is cached under the member's own key and the member is marked
// deduplicated (counted in StatesDeduped instead of StatesChecked).
func (s *session) attributeClass(key string, r checkResult) {
	s.checkCache[key] = r
	s.dedupKeys[key] = true
}

// LegalMemo shares legal-state sets across runs: the enumerated set for a
// given (scope, layer, model, status vector) is identical for every run of
// the same workload on the same file system, so a fuzz campaign's seven
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

// memoLookup consults the cross-run memo (nil-safe).
func (s *session) memoLookup(layer string, model Model, statusKey string) (map[string]bool, bool) {
	m := s.opts.LegalMemo
	if m == nil {
		return nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	set, ok := m.m[s.memoScope+"|"+layer+"|"+model.String()+"|"+statusKey]
	return set, ok
}

// memoStore publishes a successfully enumerated set to the cross-run memo.
func (s *session) memoStore(layer string, model Model, statusKey string, set map[string]bool) {
	if m := s.opts.LegalMemo; m != nil {
		m.mu.Lock()
		m.m[s.memoScope+"|"+layer+"|"+model.String()+"|"+statusKey] = set
		m.mu.Unlock()
	}
}
