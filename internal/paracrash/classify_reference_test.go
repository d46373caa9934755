package paracrash

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"paracrash/internal/causality"
	"paracrash/internal/pfs"
)

// referenceClassifier is the Table 1 classifier as it ran before the
// ancestor table, kept as the oracle: downTo asks HB per front member,
// candidates come from Keep.Members() with a per-op filter, minimality is a
// scan of a failed map, and probes are cached by Front.Key()|Keep.Key()
// strings. It reads the graph only through HB and the persist order only
// through DependsOn.
type referenceClassifier struct {
	G     *causality.Graph
	PO    *causality.PersistOrder
	Check func(cs CrashState) (bool, string)
	cache map[string]classifyCheck
}

func newReferenceClassifier(e *Emulator, check func(cs CrashState) (bool, string)) *referenceClassifier {
	return &referenceClassifier{G: e.G, PO: e.PO, Check: check, cache: map[string]classifyCheck{}}
}

func (c *referenceClassifier) checkCached(cs CrashState) classifyCheck {
	key := cs.Front.Key() + "|" + cs.Keep.Key()
	if v, ok := c.cache[key]; ok {
		return v
	}
	pass, state := c.Check(cs)
	v := classifyCheck{pass: pass, state: state}
	c.cache[key] = v
	return v
}

func (c *referenceClassifier) downTo(front causality.Bitset, b int) causality.Bitset {
	out := causality.NewBitset(c.G.Len())
	for _, x := range front.Members() {
		if x == b || c.G.HB(x, b) {
			out.Set(x)
		}
	}
	return out
}

func (c *referenceClassifier) ClassifyState(cs CrashState, lo *LayerOps, state string) []PairResult {
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
		return c.classifyInFlight(cs, lo, state)
	}
	return results
}

func (c *referenceClassifier) classifyVictim(cs CrashState, v int) (PairResult, bool) {
	vClosure := c.PO.DependsOn(v, cs.Front)
	var cands []int
	for _, b := range cs.Keep.Members() {
		ob := c.G.Ops[b]
		if !ob.IsLowermost() || ob.Payload == nil || ob.Sync {
			continue
		}
		if c.G.HB(v, b) && !vClosure.Get(b) {
			cands = append(cands, b)
		}
	}
	sort.Ints(cands)

	failed := map[int]bool{}
	culprit := -1
	culpritState := ""
	for _, b := range cands {
		base := c.downTo(cs.Front, b)
		keep := base.Clone()
		keep.Subtract(vClosure)
		res := c.checkCached(CrashState{Front: cs.Front, Keep: keep, Victims: []int{v}})
		if res.pass {
			continue
		}
		if !c.checkCached(CrashState{Front: cs.Front, Keep: base}).pass {
			continue
		}
		failed[b] = true
		culpritState = res.state
		minimal := true
		for _, b2 := range cands {
			if b2 != b && failed[b2] && c.G.HB(b2, b) {
				minimal = false
				break
			}
		}
		if minimal {
			culprit = b
			break
		}
	}
	if culprit < 0 {
		return PairResult{}, false
	}

	bClosure := c.PO.DependsOn(culprit, cs.Front)
	s10 := c.downTo(cs.Front, culprit)
	s10.Subtract(bClosure)
	s10Pass := c.checkCached(CrashState{Front: cs.Front, Keep: s10, Victims: []int{culprit}}).pass
	s00 := c.downTo(cs.Front, culprit)
	s00.Subtract(bClosure)
	s00.Subtract(vClosure)
	s00Pass := c.checkCached(CrashState{Front: cs.Front, Keep: s00, Victims: []int{v, culprit}}).pass

	kind := BugReordering
	if !s10Pass && s00Pass {
		kind = BugAtomicity
	}
	return PairResult{
		Kind: kind, A: v, B: culprit,
		ASig: OpSignature(c.G.Ops[v]), BSig: OpSignature(c.G.Ops[culprit]),
		BClass:   OpSignatureClass(c.G.Ops[culprit]),
		StateKey: culpritState,
	}, true
}

func (c *referenceClassifier) classifyInFlight(cs CrashState, lo *LayerOps, state string) []PairResult {
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
				continue
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
		results = append(results, PairResult{
			Kind: BugAtomicity, A: missing, B: present,
			ASig: OpSignature(c.G.Ops[missing]), BSig: OpSignature(c.G.Ops[present]),
			BClass:   OpSignatureClass(c.G.Ops[present]),
			StateKey: state,
			GroupKey: "inflight|" + lo.Ops[i].Key(),
		})
	}
	return results
}

// ClassifyDiffStats is what ClassifyDiff counted on the way.
type ClassifyDiffStats struct {
	// States is the number of generated states, Inconsistent the number
	// classified, Pairs the pairs they yielded and Probes the probe states
	// the classifier sent to the check.
	States, Inconsistent, Pairs, Probes int
}

// ClassifyDiff holds the classifier to the reference on one traced cell,
// exported to the external differential suite (the workloads it runs import
// this package). Every generated state the session judges inconsistent —
// pruning skips nothing here — is classified by both, in generation order,
// each over its own probe cache and the session's check. The []PairResult
// must be deeply equal, and so must the sequence of probe states (front,
// keep and victims) each sent to the check for that state: the probes are
// the classifier's whole effect on the run's effort counts.
func ClassifyDiff(fs pfs.FileSystem, lib Library, w Workload, opts Options) (ClassifyDiffStats, error) {
	var st ClassifyDiffStats
	s, err := prepare(context.Background(), fs, lib, w, opts)
	if err != nil {
		return st, err
	}
	var got, want []string
	logged := func(log *[]string) func(CrashState) (bool, string) {
		return func(cs CrashState) (bool, string) {
			*log = append(*log, fmt.Sprintf("front %v keep %v victims %v", cs.Front.Members(), cs.Keep.Members(), cs.Victims))
			return s.probe(cs)
		}
	}
	c := NewClassifier(s.emu, logged(&got), s.status)
	ref := newReferenceClassifier(s.emu, logged(&want))
	states := s.generate()
	st.States = len(states)
	for i, cs := range states {
		res := s.check(cs)
		if res.Consistent || res.Skipped {
			continue
		}
		st.Inconsistent++
		lo := s.pfsOps
		if res.Layer != "pfs" && s.libOps != nil {
			lo = s.libOps
		}
		got, want = got[:0], want[:0]
		g := c.ClassifyState(cs, lo, res.State)
		r := ref.ClassifyState(cs, lo, res.State)
		if !reflect.DeepEqual(g, r) {
			return st, fmt.Errorf("state %d (victims %v): classified %+v, reference %+v", i, cs.Victims, g, r)
		}
		for k := 0; k < len(got) || k < len(want); k++ {
			var gp, wp string
			if k < len(got) {
				gp = got[k]
			}
			if k < len(want) {
				wp = want[k]
			}
			if gp != wp {
				return st, fmt.Errorf("state %d (victims %v): probe %d is %q, reference %q (%d probes, reference %d)",
					i, cs.Victims, k, gp, wp, len(got), len(want))
			}
		}
		st.Pairs += len(g)
		st.Probes += len(got)
	}
	return st, nil
}

// BenchClassifyState times the Table 1 classifier on one traced cell,
// exported to the external benchmark: every inconsistent state the session
// judges, classified in generation order by a fresh Classifier per
// iteration. A warm-up pass leaves every probe's verdict in the session's
// check cache, so what is timed is the culprit search, its memo and probe
// cache, and the check path's table lookups, not reconstruction.
func BenchClassifyState(b *testing.B, fs pfs.FileSystem, lib Library, w Workload, opts Options) {
	s, err := prepare(context.Background(), fs, lib, w, opts)
	if err != nil {
		b.Fatal(err)
	}
	type bad struct {
		cs    CrashState
		lo    *LayerOps
		state string
	}
	var states []bad
	for _, cs := range s.generate() {
		v := s.check(cs)
		if v.Consistent || v.Skipped {
			continue
		}
		lo := s.pfsOps
		if v.Layer != "pfs" && s.libOps != nil {
			lo = s.libOps
		}
		states = append(states, bad{cs, lo, v.State})
	}
	probes := 0
	classify := func() {
		probes = 0
		c := NewClassifier(s.emu, func(cs CrashState) (bool, string) {
			probes++
			return s.probe(cs)
		}, s.status)
		for _, st := range states {
			c.ClassifyState(st.cs, st.lo, st.state)
		}
	}
	classify()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		classify()
	}
	b.ReportMetric(float64(len(states)), "states/op")
	b.ReportMetric(float64(probes), "probes/op")
}
