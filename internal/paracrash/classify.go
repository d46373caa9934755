package paracrash

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"paracrash/internal/causality"
	"paracrash/internal/trace"
)

// BugKind distinguishes the paper's two failure patterns (Table 1).
type BugKind int

const (
	// BugUnknown marks inconsistencies whose pairwise pattern could not be
	// isolated (e.g. multi-op interactions beyond the pair tests).
	BugUnknown BugKind = iota
	// BugReordering: OA should persist before OB but the state where OA is
	// lost and OB persisted fails (Table 1a).
	BugReordering
	// BugAtomicity: OA and OB must persist together; either mixed state
	// fails (Table 1b).
	BugAtomicity
)

// String returns the report name of the kind.
func (k BugKind) String() string {
	switch k {
	case BugReordering:
		return "reordering"
	case BugAtomicity:
		return "atomicity"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the kind by name (for machine-readable reports).
func (k BugKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON parses the kind by name, inverting MarshalJSON so
// persisted reports round-trip.
func (k *BugKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	switch s {
	case "reordering":
		*k = BugReordering
	case "atomicity":
		*k = BugAtomicity
	case "unknown":
		*k = BugUnknown
	default:
		return fmt.Errorf("paracrash: unknown bug kind %q", s)
	}
	return nil
}

// Bug is a deduplicated crash-consistency bug.
type Bug struct {
	Kind BugKind
	// Layer is the I/O layer the bug is attributed to ("pfs" or the
	// library name, e.g. "hdf5").
	Layer string
	// FS is the file system under test.
	FS string
	// Program is the test program that exposed the bug.
	Program string
	// OpA and OpB are the involved operation signatures; for reordering
	// bugs OpA should persist before OpB but was observed lost while OpB
	// survived.
	OpA, OpB string
	// Consequence summarises the observed damage.
	Consequence string
	// States counts the distinct inconsistent crash states deduplicated
	// into this bug.
	States int
	// Group is the BugSet aggregation key the bug was deduplicated under —
	// kind, layer and culprit class, or the in-flight parent operation. It is
	// the only identity stable across exploration strategies (see CauseKey).
	Group string
}

// Signature returns the dedup key (paper §5.2): bugs with the same cause
// share the kind and the normalised operation pair (including the I/O
// library objects carried in tags).
func (b *Bug) Signature() string {
	return fmt.Sprintf("%s|%s|%s|%s", b.Kind, b.Layer, b.OpA, b.OpB)
}

// CauseKey returns the bug's root-cause identity at the granularity the
// exploration strategies agree on: the BugSet aggregation group (kind, layer
// and culprit class, or the in-flight parent operation). The representative
// operation pair is NOT part of the identity — OpA is the causally latest
// victim among the states a strategy happened to classify, and OpB the pair
// of whichever state was aggregated first, so both shift when pruning
// classifies fewer states than brute force (the fuzz campaign's
// pruning-soundness oracle found exactly that on a 2-op lustre workload:
// same group, victim scsi_write(inode) under brute vs scsi_write(log) under
// pruning). For bugs built outside a BugSet the culprit class alone is the
// fallback key.
func (b *Bug) CauseKey() string {
	if b.Group != "" {
		return b.Group
	}
	return fmt.Sprintf("%s|%s|%s", b.Kind, b.Layer, stripServer(b.OpB))
}

// stripServer drops the "#i" server index from an op signature, leaving
// the class signature (see OpSignatureClass).
func stripServer(sig string) string {
	if i := strings.LastIndexByte(sig, '#'); i >= 0 {
		return sig[:i]
	}
	return sig
}

// OpSignature renders an op in the paper's "op(object)@server#i" notation
// for display.
func OpSignature(o *trace.Op) string {
	obj := o.Tag
	if obj == "" {
		obj = o.Path
	}
	return fmt.Sprintf("%s(%s)@%s", o.Name, obj, strings.ReplaceAll(o.Proc, "/", "#"))
}

// OpSignatureClass is OpSignature with the server index stripped — the
// aggregation key (paper §5.2: bugs involving the same operations on the
// same structures share a cause regardless of which server they landed on).
func OpSignatureClass(o *trace.Op) string {
	proc := o.Proc
	if i := strings.IndexByte(proc, '/'); i >= 0 {
		proc = proc[:i]
	}
	obj := o.Tag
	if obj == "" {
		obj = o.Path
	}
	return fmt.Sprintf("%s(%s)@%s", o.Name, obj, proc)
}

// Classifier isolates the failure pattern of an inconsistent crash state by
// re-testing targeted persistence combinations (Table 1), using a
// minimal-culprit search: for a victim operation OA, the culprit OB is the
// causally earliest surviving operation whose presence makes the state
// illegal. The check function reconstructs a crash state and reports
// whether it is consistent.
//
// The search runs in bitset words: candidates, cuts and probe states are
// built in scratch sets from the graph's ancestor table and the persist
// order's closures, and every probe is looked up in a cache keyed by word
// hash and confirmed with Equal (the emulator's duplicate-index pattern). A
// probe the cache has seen allocates nothing; only a new one is copied,
// handed to Check and remembered.
//
// Above the probe cache sits the culprit memo, one entry per (front,
// victim). Every probe the search makes for candidate b is a function of
// (front, victim, b) alone, and the state's keep set only chooses which
// candidates are searched, so the memo records per candidate whether it was
// probed and whether it is a culprit, with the culprit's kind. A later state on the same front and victim skips the candidates the
// memo has cleared word by word and probes only the untested ones; every
// probe it skips would have hit the probe cache, so the sequence of Check
// calls is the one the search makes without the memo.
//
// ClassifyState retains cs.Front in both caches, so fronts must not be
// modified afterwards — the engine never does. A Classifier is not safe for
// concurrent use.
type Classifier struct {
	G  *causality.Graph
	PO *causality.PersistOrder
	// Check reconstructs and checks a crash state, returning whether it is
	// consistent.
	Check func(cs CrashState) bool
	// Status returns a layer's status vector against a crash front, for
	// in-flight classification: the engine's per-front memo.
	Status func(lo *LayerOps, front causality.Bitset) []Status

	// culpritOps marks the ops that can be a culprit: lowermost ops that
	// carry a payload and are not syncs.
	culpritOps causality.Bitset
	// none is the empty set, the closure of an op outside the persist order.
	none causality.Bitset
	// cands, cut and keep are scratch sets for one victim's search.
	cands, cut, keep causality.Bitset
	// probes holds every probe state judged so far, by probeHash.
	probes map[uint64][]probeEntry
	// memo holds the culprit search's entries, by memoHash.
	memo map[uint64][]*culpritMemo
	// sig and class memoise OpSignature and OpSignatureClass per node, and
	// inflight the in-flight group key of a layer op's node.
	sig, class, inflight []string
}

// probeEntry is a probe state the classifier has judged and whether it
// passed; front is the caller's (read-only) front, keep the classifier's
// own copy.
type probeEntry struct {
	front, keep causality.Bitset
	pass        bool
}

// culpritMemo is the culprit search's record for one (front, victim):
// cleared marks the candidates probed and found not to be the culprit, and
// culprits holds those found to be one, with their kind.
// front is the caller's (read-only) front.
type culpritMemo struct {
	front    causality.Bitset
	victim   int
	cleared  causality.Bitset
	culprits []culprit
}

// culprit is a candidate the search found to be a victim's minimal culprit.
type culprit struct {
	b    int
	kind BugKind
}

// culprit returns candidate b's record if the search found b to be a
// culprit. A victim has few: each search stops at its first.
func (m *culpritMemo) culprit(b int) (culprit, bool) {
	for _, cu := range m.culprits {
		if cu.b == b {
			return cu, true
		}
	}
	return culprit{}, false
}

// NewClassifier returns a classifier over the emulator's graph that judges
// probes with check and reads layer status vectors from status. status is
// called only for states classified with a layer, so callers that never
// pass one may give nil.
func NewClassifier(e *Emulator, check func(cs CrashState) bool, status func(lo *LayerOps, front causality.Bitset) []Status) *Classifier {
	n := e.G.Len()
	c := &Classifier{
		G: e.G, PO: e.PO, Check: check, Status: status,
		culpritOps: causality.NewBitset(n),
		none:       causality.NewBitset(n),
		cands:      causality.NewBitset(n),
		cut:        causality.NewBitset(n),
		keep:       causality.NewBitset(n),
		probes:     map[uint64][]probeEntry{},
		memo:       map[uint64][]*culpritMemo{},
		sig:        make([]string, n),
		class:      make([]string, n),
		inflight:   make([]string, n),
	}
	for i, o := range e.G.Ops {
		if o.IsLowermost() && o.Payload != nil && !o.Sync {
			c.culpritOps.Set(i)
		}
	}
	return c
}

// probe judges the state (front, keep) with the given victims and reports
// whether it passed. keep may be scratch: a cache hit reads it only, and a
// miss hands Check a copy, which the cache keeps.
func (c *Classifier) probe(front, keep causality.Bitset, victims ...int) bool {
	h := probeHash(front, keep)
	for _, e := range c.probes[h] {
		if e.keep.Equal(keep) && e.front.Equal(front) {
			return e.pass
		}
	}
	e := probeEntry{front: front, keep: keep.Clone()}
	e.pass = c.Check(CrashState{Front: front, Keep: e.keep, Victims: append([]int(nil), victims...)})
	c.probes[h] = append(c.probes[h], e)
	return e.pass
}

// probeHash is the probe cache's key for (front, keep). Equal hashes do not
// imply equal states: a hit is confirmed with Equal.
func probeHash(front, keep causality.Bitset) uint64 {
	return front.Hash()*1099511628211 ^ keep.Hash()
}

// memoFor returns the culprit memo of (front, v), creating it empty; fh is
// front.Hash(). A hit is confirmed with Equal, like a probe's.
func (c *Classifier) memoFor(front causality.Bitset, fh uint64, v int) *culpritMemo {
	h := memoHash(fh, v)
	for _, m := range c.memo[h] {
		if m.victim == v && m.front.Equal(front) {
			return m
		}
	}
	m := &culpritMemo{front: front, victim: v, cleared: causality.NewBitset(c.G.Len())}
	c.memo[h] = append(c.memo[h], m)
	return m
}

// memoHash is the culprit memo's key for a front hash and a victim. Equal
// hashes do not imply equal entries: a hit is confirmed with Equal.
func memoHash(fh uint64, v int) uint64 {
	return (fh ^ uint64(v)) * 1099511628211
}

// closure returns the persists-before closure of op i (Algorithm 1's
// depends_on over the whole trace); intersected with a front it is
// DependsOn(i, front). The result is shared and must not be modified.
func (c *Classifier) closure(i int) causality.Bitset {
	if cl := c.PO.Closure(i); cl != nil {
		return cl
	}
	return c.none
}

// downTo sets dst to the members of the front that are b or strictly
// happen-before b: front ∩ (ancestors(b) ∪ {b}).
func (c *Classifier) downTo(dst, front causality.Bitset, b int) {
	copy(dst, c.G.Ancestors(b))
	dst.Set(b)
	dst.Intersect(front)
}

// opSig returns OpSignature and OpSignatureClass of node i, memoised.
func (c *Classifier) opSig(i int) (sig, class string) {
	if c.sig[i] == "" {
		c.sig[i], c.class[i] = OpSignature(c.G.Ops[i]), OpSignatureClass(c.G.Ops[i])
	}
	return c.sig[i], c.class[i]
}

// PairResult describes one classified pair.
type PairResult struct {
	Kind BugKind
	A, B int // graph node indices (A dropped / should-persist-first)
	ASig string
	BSig string
	// BClass is the culprit's class signature (server index stripped), the
	// aggregation key.
	BClass string
	// GroupKey, when non-empty, overrides the dedup key (used for in-flight
	// atomicity, where every split of the same parent op is one bug).
	GroupKey string
}

// ClassifyState isolates the operation pairs responsible for an
// inconsistent crash state. lo is the LayerOps of the layer the
// inconsistency was attributed to (used to detect in-flight atomicity).
func (c *Classifier) ClassifyState(cs CrashState, lo *LayerOps) []PairResult {
	if len(cs.Victims) == 0 {
		return c.classifyInFlight(cs, lo)
	}
	var results []PairResult
	fh := cs.Front.Hash()
	for _, v := range cs.Victims {
		if pr, ok := c.classifyVictim(cs, fh, v); ok {
			results = append(results, pr)
		}
	}
	if len(results) == 0 {
		// No victim-caused pair isolated: the crash front itself may split
		// an operation that should have been atomic.
		return c.classifyInFlight(cs, lo)
	}
	return results
}

// classifyVictim finds the minimal culprit for victim v: the causally
// earliest kept op b such that keeping exactly b's causal past (minus v's
// persistence closure) already fails the check. It then distinguishes
// reordering from atomicity by testing the opposite mixed state. fh is
// cs.Front.Hash().
func (c *Classifier) classifyVictim(cs CrashState, fh uint64, v int) (PairResult, bool) {
	front := cs.Front
	vClosure := c.closure(v)
	m := c.memoFor(front, fh, v)
	// Candidates: kept ops causally after v and outside its closure that can
	// be a culprit. Every member of the front within v's closure is dropped
	// with v, so subtracting the whole closure equals subtracting
	// DependsOn(v, front). Candidates the memo has cleared would only repeat
	// probes the cache answers, and are skipped.
	copy(c.cands, cs.Keep)
	c.cands.Intersect(c.G.Descendants(v))
	c.cands.Intersect(c.culpritOps)
	c.cands.Subtract(vClosure)
	c.cands.Subtract(m.cleared)

	// Candidates are tested in recording order, a topological order: when
	// the first one fails, no failing candidate happens-before it, so it is
	// the minimal culprit.
	found := culprit{b: -1}
search:
	for wi, w := range c.cands {
		for ; w != 0; w &= w - 1 {
			b := wi*64 + bits.TrailingZeros64(w)
			if cu, ok := m.culprit(b); ok {
				found = cu
				break search
			}
			c.downTo(c.cut, front, b)
			copy(c.keep, c.cut)
			c.keep.Subtract(vClosure)
			// The failure must be caused by losing the victim: if the same
			// cut fails with the victim kept, the cut itself is the problem
			// (an in-flight atomicity handled elsewhere), not this victim.
			if c.probe(front, c.keep, v) || !c.probe(front, c.cut) {
				m.cleared.Set(b)
				continue
			}
			found = culprit{b: b, kind: c.kindOf(front, v, b)}
			m.culprits = append(m.culprits, found)
			break search
		}
	}
	if found.b < 0 {
		return PairResult{}, false
	}
	aSig, _ := c.opSig(v)
	bSig, bClass := c.opSig(found.b)
	return PairResult{
		Kind: found.kind, A: v, B: found.b,
		ASig: aSig, BSig: bSig, BClass: bClass,
	}, true
}

// kindOf distinguishes reordering from atomicity for victim v and its
// culprit b: keep v, drop the culprit (s10), then drop both (s00). c.cut
// holds the culprit's cut.
func (c *Classifier) kindOf(front causality.Bitset, v, b int) BugKind {
	copy(c.keep, c.cut)
	c.keep.Subtract(c.closure(b))
	s10Pass := c.probe(front, c.keep, b)
	c.keep.Subtract(c.closure(v))
	s00Pass := c.probe(front, c.keep, v, b)

	// Paper §5.3: the state with OA lost and OB persisted fails while other
	// combinations pass ⇒ reordering; both mixed states fail with both pure
	// states passing ⇒ atomicity. When s00 is polluted by an unrelated bug
	// (it fails too), the baseline pass (the search's cut probe) stands in
	// for the "any other combination passes" condition and we default to
	// reordering, as the paper does.
	if !s10Pass && s00Pass {
		return BugAtomicity
	}
	return BugReordering
}

// classifyInFlight handles victimless inconsistent states: the crash front
// split the storage footprint of a layer operation that should have been
// atomic. The missing and surviving descendants of the in-flight op form an
// atomicity pair.
func (c *Classifier) classifyInFlight(cs CrashState, lo *LayerOps) []PairResult {
	if lo == nil {
		return nil
	}
	var results []PairResult
	for i, st := range c.Status(lo, cs.Front) {
		if st != StatusInflight {
			continue
		}
		var present, missing int = -1, -1
		for _, d := range lo.descendants[i] {
			if c.G.Ops[d].Sync {
				continue // syncs carry no state; name the real writes
			}
			if cs.Front.Get(d) {
				if present < 0 || d > present {
					present = d
				}
			} else if missing < 0 || d < missing {
				missing = d
			}
		}
		if present < 0 || missing < 0 {
			continue
		}
		aSig, _ := c.opSig(missing)
		bSig, bClass := c.opSig(present)
		results = append(results, PairResult{
			Kind: BugAtomicity, A: missing, B: present,
			ASig: aSig, BSig: bSig, BClass: bClass,
			GroupKey: c.inflightKey(lo, i),
		})
	}
	return results
}

// inflightKey returns the group key of an in-flight split of lo.Ops[i],
// memoised per node.
func (c *Classifier) inflightKey(lo *LayerOps, i int) string {
	n := lo.nodeIdx[i]
	if c.inflight[n] == "" {
		c.inflight[n] = "inflight|" + lo.Ops[i].Key()
	}
	return c.inflight[n]
}

// BugSet aggregates classified pairs into deduplicated bugs. Two pairs
// share a root cause when they have the same kind, layer and culprit
// operation class (its signature with the server index stripped), or, for
// an in-flight atomicity split, the same in-flight parent operation (paper
// §5.2); the representative victim is the causally latest one, which is
// the common element of every implied persistence closure.
type BugSet struct {
	bugs  map[string]*Bug
	bestA map[string]int
	// knownBad records the (dropped, kept) op pairs already attributed: a
	// reordering pair as (OA, OB), an atomicity pair both ways round. The
	// pruning exploration mode keys on these (paper §5.3).
	knownBad map[[2]int]bool
}

// NewBugSet returns an empty aggregate.
func NewBugSet() *BugSet {
	return &BugSet{
		bugs:     map[string]*Bug{},
		bestA:    map[string]int{},
		knownBad: map[[2]int]bool{},
	}
}

// Add records a classified pair for the given program/fs/layer and returns
// the (possibly pre-existing) bug.
func (s *BugSet) Add(pr PairResult, layer, fsName, program, consequence string) *Bug {
	switch pr.Kind {
	case BugReordering:
		s.knownBad[[2]int{pr.A, pr.B}] = true
	case BugAtomicity:
		s.knownBad[[2]int{pr.A, pr.B}] = true
		s.knownBad[[2]int{pr.B, pr.A}] = true
	}
	// Group by kind, layer and culprit: every victim whose loss manifests
	// against the same surviving operation shares the root cause, and the
	// causally latest victim (the common element of all implied persistence
	// closures) is the canonical OpA. In-flight atomicity overrides the key
	// with its parent operation.
	key := pr.GroupKey
	if key == "" {
		key = pr.BClass
	}
	if key == "" {
		key = pr.BSig
	}
	group := pr.Kind.String() + "|" + layer + "|" + key
	if old, ok := s.bugs[group]; ok {
		old.States++
		if pr.A > s.bestA[group] {
			s.bestA[group] = pr.A
			old.OpA = pr.ASig
		}
		return old
	}
	b := &Bug{
		Kind: pr.Kind, Layer: layer, FS: fsName, Program: program,
		OpA: pr.ASig, OpB: pr.BSig, Consequence: consequence, States: 1,
		Group: group,
	}
	s.bugs[group] = b
	s.bestA[group] = pr.A
	return b
}

// KnownBad reports whether the crash state matches an already-identified
// scenario: a known reordering pair with OA dropped and OB kept, or a known
// atomic pair split across the persistence boundary. It does not allocate.
func (s *BugSet) KnownBad(cs CrashState) bool {
	for pair := range s.knownBad {
		if cs.Front.Get(pair[0]) && !cs.Keep.Get(pair[0]) && cs.Keep.Get(pair[1]) {
			return true
		}
	}
	return false
}

// Bugs returns the deduplicated bugs sorted by signature for stable output.
// Signatures alone can tie — two in-flight atomicity groups may involve
// identically named op pairs and differ only in the observed damage — so the
// sort tiebreaks on consequence, state count and finally the group key, which
// is unique within a set and makes the order total; anything less falls back
// to map iteration and the report is not reproducible (both gaps found by the
// fuzz campaign).
func (s *BugSet) Bugs() []*Bug {
	out := make([]*Bug, 0, len(s.bugs))
	for _, b := range s.bugs {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool {
		if si, sj := out[i].Signature(), out[j].Signature(); si != sj {
			return si < sj
		}
		if out[i].Consequence != out[j].Consequence {
			return out[i].Consequence < out[j].Consequence
		}
		if out[i].States != out[j].States {
			return out[i].States < out[j].States
		}
		return out[i].Group < out[j].Group
	})
	return out
}
