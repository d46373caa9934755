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
// handed to Check and remembered. ClassifyState retains cs.Front in that
// cache, so fronts must not be modified afterwards — the engine never
// does. A Classifier is not safe for concurrent use.
type Classifier struct {
	G  *causality.Graph
	PO *causality.PersistOrder
	// Check reconstructs and checks a crash state, returning whether it is
	// consistent and (when inconsistent) the canonical content of the
	// recovered state at the failing layer.
	Check func(cs CrashState) (bool, string)

	// culpritOps marks the ops that can be a culprit: lowermost ops that
	// carry a payload and are not syncs.
	culpritOps causality.Bitset
	// none is the empty set, the closure of an op outside the persist order.
	none causality.Bitset
	// cands, cut and keep are scratch sets for one victim's search.
	cands, cut, keep causality.Bitset
	// probes holds every probe state judged so far, by probeHash.
	probes map[uint64][]probeEntry
	// sig and class memoise OpSignature and OpSignatureClass per node.
	sig, class []string
}

// classifyCheck is the outcome of one probe state.
type classifyCheck struct {
	pass  bool
	state string
}

// probeEntry is a probe state the classifier has judged; front is the
// caller's (read-only) front, keep the classifier's own copy.
type probeEntry struct {
	front, keep causality.Bitset
	classifyCheck
}

// NewClassifier returns a classifier over the emulator's graph.
func NewClassifier(e *Emulator, check func(cs CrashState) (bool, string)) *Classifier {
	n := e.G.Len()
	c := &Classifier{
		G: e.G, PO: e.PO, Check: check,
		culpritOps: causality.NewBitset(n),
		none:       causality.NewBitset(n),
		cands:      causality.NewBitset(n),
		cut:        causality.NewBitset(n),
		keep:       causality.NewBitset(n),
		probes:     map[uint64][]probeEntry{},
		sig:        make([]string, n),
		class:      make([]string, n),
	}
	for i, o := range e.G.Ops {
		if o.IsLowermost() && o.Payload != nil && !o.Sync {
			c.culpritOps.Set(i)
		}
	}
	return c
}

// probe judges the state (front, keep) with the given victims. keep may be
// scratch: a cache hit reads it only, and a miss hands Check a copy, which
// the cache keeps.
func (c *Classifier) probe(front, keep causality.Bitset, victims ...int) classifyCheck {
	h := probeHash(front, keep)
	for _, e := range c.probes[h] {
		if e.keep.Equal(keep) && e.front.Equal(front) {
			return e.classifyCheck
		}
	}
	e := probeEntry{front: front, keep: keep.Clone()}
	e.pass, e.state = c.Check(CrashState{Front: front, Keep: e.keep, Victims: append([]int(nil), victims...)})
	c.probes[h] = append(c.probes[h], e)
	return e.classifyCheck
}

// probeHash is the probe cache's key for (front, keep). Equal hashes do not
// imply equal states: a hit is confirmed with Equal.
func probeHash(front, keep causality.Bitset) uint64 {
	return front.Hash()*1099511628211 ^ keep.Hash()
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
	// StateKey is the canonical content of the minimal failing state.
	StateKey string
	// GroupKey, when non-empty, overrides the dedup key (used for in-flight
	// atomicity, where every split of the same parent op is one bug).
	GroupKey string
}

// ClassifyState isolates the operation pairs responsible for an
// inconsistent crash state. lo is the LayerOps of the layer the
// inconsistency was attributed to (used to detect in-flight atomicity);
// state is the canonical content of the inconsistent recovered state.
func (c *Classifier) ClassifyState(cs CrashState, lo *LayerOps, state string) []PairResult {
	if len(cs.Victims) == 0 {
		return c.classifyInFlight(cs, lo, state)
	}
	var results []PairResult
	for _, v := range cs.Victims {
		if pr, ok := c.classifyVictim(cs, v); ok {
			results = append(results, pr)
		}
	}
	if len(results) == 0 {
		// No victim-caused pair isolated: the crash front itself may split
		// an operation that should have been atomic.
		return c.classifyInFlight(cs, lo, state)
	}
	return results
}

// classifyVictim finds the minimal culprit for victim v: the causally
// earliest kept op b such that keeping exactly b's causal past (minus v's
// persistence closure) already fails the check. It then distinguishes
// reordering from atomicity by testing the opposite mixed state.
func (c *Classifier) classifyVictim(cs CrashState, v int) (PairResult, bool) {
	front := cs.Front
	vClosure := c.closure(v)
	// Candidates: kept ops causally after v and outside its closure that can
	// be a culprit. Every member of the front within v's closure is dropped
	// with v, so subtracting the whole closure equals subtracting
	// DependsOn(v, front).
	copy(c.cands, cs.Keep)
	c.cands.Intersect(c.G.Descendants(v))
	c.cands.Intersect(c.culpritOps)
	c.cands.Subtract(vClosure)

	// Candidates are tested in recording order, a topological order: when
	// the first one fails, no failing candidate happens-before it, so it is
	// the minimal culprit.
	culprit := -1
	culpritState := ""
search:
	for wi, w := range c.cands {
		for ; w != 0; w &= w - 1 {
			b := wi*64 + bits.TrailingZeros64(w)
			c.downTo(c.cut, front, b)
			copy(c.keep, c.cut)
			c.keep.Subtract(vClosure)
			res := c.probe(front, c.keep, v)
			if res.pass {
				continue
			}
			// The failure must be caused by losing the victim: if the same
			// cut fails with the victim kept, the cut itself is the problem
			// (an in-flight atomicity handled elsewhere), not this victim.
			if !c.probe(front, c.cut).pass {
				continue
			}
			culprit, culpritState = b, res.state
			break search
		}
	}
	if culprit < 0 {
		return PairResult{}, false
	}

	// Distinguish reordering from atomicity: keep v, drop the culprit (s10),
	// then drop both (s00). c.cut still holds the culprit's cut.
	copy(c.keep, c.cut)
	c.keep.Subtract(c.closure(culprit))
	s10Pass := c.probe(front, c.keep, culprit).pass
	c.keep.Subtract(vClosure)
	s00Pass := c.probe(front, c.keep, v, culprit).pass

	// Paper §5.3: the state with OA lost and OB persisted fails while other
	// combinations pass ⇒ reordering; both mixed states fail with both pure
	// states passing ⇒ atomicity. When s00 is polluted by an unrelated bug
	// (it fails too), the baseline pass (checked above) stands in for the
	// "any other combination passes" condition and we default to
	// reordering, as the paper does.
	kind := BugReordering
	if !s10Pass && s00Pass {
		kind = BugAtomicity
	}
	aSig, _ := c.opSig(v)
	bSig, bClass := c.opSig(culprit)
	return PairResult{
		Kind: kind, A: v, B: culprit,
		ASig: aSig, BSig: bSig, BClass: bClass,
		StateKey: culpritState,
	}, true
}

// classifyInFlight handles victimless inconsistent states: the crash front
// split the storage footprint of a layer operation that should have been
// atomic. The missing and surviving descendants of the in-flight op form an
// atomicity pair.
func (c *Classifier) classifyInFlight(cs CrashState, lo *LayerOps, state string) []PairResult {
	if lo == nil {
		return nil
	}
	status := lo.StatusAgainst(cs.Front)
	var results []PairResult
	for i, st := range status {
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
			StateKey: state,
			GroupKey: "inflight|" + lo.Ops[i].Key(),
		})
	}
	return results
}

// BugSet aggregates classified pairs into deduplicated bugs. Two pairs
// share a root cause when they have the same kind, layer, culprit operation
// and failing-state content (paper §5.2); the representative victim is the
// causally latest one, which is the common element of every implied
// persistence closure.
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
	bclass := pr.BClass
	if bclass == "" {
		bclass = pr.BSig
	}
	group := fmt.Sprintf("%s|%s|%s", pr.Kind, layer, bclass)
	if pr.GroupKey != "" {
		group = fmt.Sprintf("%s|%s|%s", pr.Kind, layer, pr.GroupKey)
	}
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
// fuzz campaign's serial-vs-parallel differential oracle).
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
