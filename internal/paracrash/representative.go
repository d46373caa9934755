// The class memo (Pathfinder-style representative testing): most generated
// crash states collapse into a small number of equivalence classes whose
// members are indistinguishable to the checker, so one representative per
// class is judged and its verdict is attributed to every member.
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
// The recovered content comes from the reconstructor's outcome memo, which
// digests each outcome once when it builds it: looking a state up brings
// the cluster to the store images its kept ops leave, runs recovery and
// mounts, unless the image's outcome is memoised. Those restores and op
// applies are counted like any other (restores/digest is their share of
// restores/servers); a state that then needs a verdict reuses the memoised
// outcome instead of being reconstructed again. A digest lives exactly as long as its outcome, so
// the class memo's keys cost no memory beyond the outcome memo's cap. On
// ARVR/BeeGFS the 105 generated states collapse into 15 classes over 6
// distinct recovered states.
//
// Attribution keeps the report's verdicts those of judging every state: a
// member inherits its representative's full Verdict — recovered-state
// content (hence InconsistentState.Key and Bug.CauseKey grouping) and
// consequence — and only the effort stats differ (members land in
// Stats.StatesDeduped instead of StatesChecked and need no verdict of their
// own). The per-state reference in reference_test.go holds the engine to
// that, state by state. Quarantined verdicts are never recorded as class
// representatives: a state whose judgement failed says nothing about its
// class, so each member re-attempts on its own and a poisoned
// representative cannot silence a whole class.
package paracrash

import (
	"crypto/sha256"
	"fmt"

	"paracrash/internal/causality"
)

// frontStatus is one crash front's status vectors on both layers, memoised
// per front: many states share a front, and StatusAgainst walks every
// descendant list. The class key and the verdict read the same entry.
type frontStatus struct {
	pfs, lib []Status // lib is nil without a library layer
	// key is the class key's status part: "|pfs" or "|pfs|lib" in statusKey
	// form.
	key string
}

// front returns the front's status entry.
func (s *session) front(f causality.Bitset) *frontStatus {
	s.frontBuf = f.AppendKey(s.frontBuf[:0])
	if e, ok := s.fronts[string(s.frontBuf)]; ok {
		return e
	}
	e := &frontStatus{pfs: s.pfsOps.StatusAgainst(f)}
	e.key = "|" + statusKey(e.pfs)
	if s.libOps != nil {
		e.lib = s.libOps.StatusAgainst(f)
		e.key += "|" + statusKey(e.lib)
	}
	s.fronts[string(s.frontBuf)] = e
	return e
}

// status is the classifier's status source: lo's status vector against the
// front, read from the front's entry when lo is one of the session's two
// layers and computed afresh for any other.
func (s *session) status(lo *LayerOps, f causality.Bitset) []Status {
	switch {
	case lo == s.pfsOps:
		return s.front(f).pfs
	case lo == s.libOps && lo != nil:
		return s.front(f).lib
	}
	return lo.StatusAgainst(f)
}

// classKey computes the crash state's equivalence-class key: the
// recovered-content digest of the kept ops plus the per-layer status
// vectors of the front. States sharing the key recover to identical
// content and are judged against identical legal-state sets, so they share
// one verdict. Recovery leaves the live cluster mutated, which is harmless:
// the next bring restores every server. A digest that failed — an error or
// a panic — comes back as the error, with an empty key: the state then
// belongs to no class, and check quarantines it, as a failed verdict would
// be. The key is built in the session's scratch buffer and is valid until
// the next call.
func (s *session) classKey(cs CrashState) ([]byte, error) {
	var o *recoveredOutcome
	before := s.stats.ServerRestores
	err := guard(func() (err error) {
		o, err = s.recon.recoveredOutcome(cs)
		return err
	})
	s.ctrDigestRestore.Add(int64(s.stats.ServerRestores - before))
	if err != nil {
		return nil, err
	}
	s.classBuf = append(append(s.classBuf[:0], o.digest...), s.front(cs.Front).key...)
	return s.classBuf, nil
}

// recordClass stores a freshly computed (or resumed) verdict as the
// representative of its class. Skipped verdicts are never recorded —
// quarantine must not poison a class — and the first verdict wins, matching
// the visiting order.
func (s *session) recordClass(v Verdict) {
	if v.Class == "" || v.Skipped {
		return
	}
	if _, ok := s.classes[v.Class]; !ok {
		s.classes[v.Class] = v
	}
}

// identity is the run's identity across runs and processes: the backend,
// its server count, the workload name and a digest of the traced ops. The
// checkpoint fingerprint (which journals and shard reports carry) keys on
// it, so verdicts and class keys are reused only by a run that traced the
// same ops.
func (s *session) identity() string {
	if s.id == "" {
		h := sha256.New()
		for _, op := range s.g.Ops {
			fmt.Fprintf(h, "%s|%+v\n", op.Key(), op.Payload)
		}
		s.id = fmt.Sprintf("%s|%d|%s|%x", s.fs.Name(), len(s.fs.Procs()), s.program, h.Sum(nil)[:8])
	}
	return s.id
}
