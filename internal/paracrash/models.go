// Package paracrash implements the paper's core contribution: golden-master
// crash-consistency testing of a multilayered parallel I/O stack.
//
// Given a traced execution of a test program, the package
//
//  1. builds the cross-layer causality graph (package causality),
//  2. emulates crashes by generating persistence subsets of the
//     lowermost-layer operations (Algorithm 1, emulate.go),
//  3. reconstructs each crash state on server snapshots, runs recovery, and
//     compares the recovered state at each layer against legal states
//     produced by replaying preserved sets allowed by that layer's
//     crash-consistency model (models.go, checker in explore.go),
//  4. attributes inconsistencies to the responsible layer and classifies
//     them as reordering or atomicity violations (classify.go),
//  5. prunes the search space and orders state reconstruction to minimise
//     server restarts (explore.go).
package paracrash

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"strings"

	"paracrash/internal/causality"
	"paracrash/internal/trace"
)

// Model is a crash-consistency model (paper §4.4.2): a rule defining which
// subsets of the operations executed before a crash are legal preserved
// sets. Every model allows the executed (completed or in-flight) ops; they
// differ in the ops they require and in whether a legal set must be
// downward closed under happens-before among the executed ops.
type Model int

const (
	// ModelStrict requires every completed op, downward closed.
	ModelStrict Model = iota
	// ModelCommit requires every completed op that happens-before a
	// completed commit (sync) op on the same file.
	ModelCommit
	// ModelCausal requires what ModelCommit does, downward closed.
	ModelCausal
	// ModelBaseline requires every completed op on a file whose last
	// completed op is a close (not open for write at the crash).
	ModelBaseline
)

// modelNames is the one table of model names, indexed by Model.
var modelNames = [...]string{"strict", "commit", "causal", "baseline"}

// String returns the model name used in configuration and reports.
func (m Model) String() string {
	if m >= 0 && int(m) < len(modelNames) {
		return modelNames[m]
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// MarshalJSON renders the model by name (machine-readable reports and the
// fuzz-campaign corpus files).
func (m Model) MarshalJSON() ([]byte, error) {
	return []byte(`"` + m.String() + `"`), nil
}

// UnmarshalJSON parses the model by name, inverting MarshalJSON so
// persisted reports round-trip.
func (m *Model) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, err := ParseModel(s)
	if err == nil {
		*m = parsed
	}
	return err
}

// ParseModel parses a model name.
func ParseModel(s string) (Model, error) {
	for m, name := range modelNames {
		if s == name {
			return Model(m), nil
		}
	}
	return 0, fmt.Errorf("paracrash: unknown consistency model %q", s)
}

// maxLayerOps bounds the ops of a checked layer, so that a set of them is
// one opSet word. A run whose PFS or library layer has more is refused when
// it is prepared: preserved-set enumeration is exponential in the free ops.
const maxLayerOps = 20

// opSet is a set of layer-op positions: bit i stands for LayerOps.Ops[i].
type opSet uint64

// LayerOps describes the operations of one checked layer, derived from the
// full trace: the ops themselves, their happens-before order, and the
// lowermost ops each of them issued.
type LayerOps struct {
	G *causality.Graph
	// Ops holds the layer's operations in recording order. Communication
	// ops are excluded.
	Ops []*trace.Op
	// nodeIdx[i] is Ops[i]'s node index in G.
	nodeIdx []int
	// descendants[i] = lowermost node indices descending from Ops[i].
	descendants [][]int
	// preds[i] holds the layer ops that happen-before Ops[i]; it is built
	// only for a layer of at most maxLayerOps ops.
	preds []opSet
}

// NewLayerOps extracts the ops of the given layer from the graph. Only ops
// matching keep (nil = all non-communication ops of the layer) become layer
// operations.
func NewLayerOps(g *causality.Graph, layer trace.Layer, keep func(*trace.Op) bool) *LayerOps {
	lo := &LayerOps{G: g}
	posByNode := map[int]int{}
	for i, o := range g.Ops {
		if o.Layer != layer || o.IsComm() || keep != nil && !keep(o) {
			continue
		}
		posByNode[i] = len(lo.Ops)
		lo.Ops = append(lo.Ops, o)
		lo.nodeIdx = append(lo.nodeIdx, i)
	}
	lo.descendants = make([][]int, len(lo.Ops))
	// Map every replayable lowermost node to its layer ancestor by walking
	// the Parent chain.
	for i, o := range g.Ops {
		if !o.IsLowermost() || o.Payload == nil {
			continue
		}
		for cur := o; cur.Parent >= 0; {
			pi, ok := g.IndexOf(cur.Parent)
			if !ok {
				break
			}
			if pos, ok := posByNode[pi]; ok {
				lo.descendants[pos] = append(lo.descendants[pos], i)
				break
			}
			cur = g.Ops[pi]
		}
	}
	if len(lo.Ops) <= maxLayerOps {
		lo.preds = make([]opSet, len(lo.Ops))
		for j := range lo.Ops {
			for i := range lo.Ops {
				if i != j && lo.HB(i, j) {
					lo.preds[j] |= 1 << i
				}
			}
		}
	}
	return lo
}

// Len returns the number of layer ops.
func (lo *LayerOps) Len() int { return len(lo.Ops) }

// HB reports whether layer op i happens-before layer op j.
func (lo *LayerOps) HB(i, j int) bool {
	return lo.G.HB(lo.nodeIdx[i], lo.nodeIdx[j])
}

// Status classifies each layer op against a lowermost crash front:
// completed (all replayable descendants inside the front), inflight (some
// inside), or unexecuted (none inside).
//
// An op with no replayable descendants (a close, say) has no storage
// footprint and is always marked completed. That approximates the exact
// rule, under which it is completed only if its same-layer happens-before
// predecessors are. Measured over every paper program with a library layer
// on all six backends (brute force, k = 1), the approximation changes the
// status vector of 1–28 states in every library cell but changes the
// baseline model's required set in none, so the default library model is
// unaffected; what it does to strict and causal is not known.
type Status int

const (
	// StatusUnexecuted means the op had not started at the crash front.
	StatusUnexecuted Status = iota
	// StatusInflight means the op was partially executed at the front.
	StatusInflight
	// StatusCompleted means the op fully executed before the front.
	StatusCompleted
)

// StatusAgainst computes each layer op's status against the lowermost front
// (a bitset over graph nodes).
func (lo *LayerOps) StatusAgainst(front causality.Bitset) []Status {
	out := make([]Status, len(lo.Ops))
	for i, desc := range lo.descendants {
		in := 0
		for _, d := range desc {
			if front.Get(d) {
				in++
			}
		}
		switch {
		case len(desc) == 0 || in == len(desc):
			out[i] = StatusCompleted
		case in == 0:
			out[i] = StatusUnexecuted
		default:
			out[i] = StatusInflight
		}
	}
	return out
}

// rule is a model's predicate for one status vector: a set S of layer ops
// is a legal preserved set iff required ⊆ S ⊆ allowed and, when closed, S
// holds every allowed op that happens-before one of its ops.
type rule struct {
	required, allowed opSet
	closed            bool
}

// rule returns model m's predicate for the status vector, as the Model
// constants state it.
func (lo *LayerOps) rule(m Model, status []Status) rule {
	r := rule{closed: m == ModelStrict || m == ModelCausal}
	var done opSet
	files := map[string]opSet{} // file -> the completed ops on it
	for i, st := range status {
		if st != StatusUnexecuted {
			r.allowed |= 1 << i
		}
		if st == StatusCompleted {
			done |= 1 << i
			files[lo.Ops[i].FileID] |= 1 << i
		}
	}
	delete(files, "") // ops without a file identity
	switch m {
	case ModelStrict:
		r.required = done
	case ModelCommit, ModelCausal:
		for s, o := range lo.Ops {
			if o.Sync && done&(1<<s) != 0 {
				r.required |= lo.preds[s] & files[o.FileID]
			}
		}
	case ModelBaseline:
		for _, ops := range files {
			// A close at any layer: close, H5Fclose, MPI_File_close, nc_close.
			if last := lo.Ops[bits.Len64(uint64(ops))-1]; strings.HasSuffix(strings.ToLower(last.Name), "close") {
				r.required |= ops
			}
		}
	}
	return r
}

// PreservedSets enumerates the legal preserved sets of the layer under the
// model for the given front statuses, invoking visit with the positions of
// preserved ops (ascending) until visit returns false or limit sets have
// been produced (limit <= 0 means unlimited). It reports whether the limit
// cut the enumeration short: the check is made on the set after the last
// allowed one, so an enumeration holding exactly limit sets is not capped.
//
// The enumeration builds the sets the model's rule admits directly (ideals
// of the candidate poset under strict and causal, with branches that can no
// longer include a required op pruned), so its cost is proportional to the
// number of legal sets rather than 2^n. A layer of more than maxLayerOps
// ops, which no prepared run has, panics.
func (lo *LayerOps) PreservedSets(m Model, status []Status, limit int, visit func(sel []int) bool) (capped bool) {
	keep := func(st any, _ int) any { return st }
	_, capped = lo.walk(m, status, limit, nil, keep, nil, func(sel []int, _ any) bool { return visit(sel) })
	return capped
}

// subtree is the memo key of one subtree of the walk: its depth, the in/out
// bits of the earlier candidates that a candidate at or below it needs (the
// only earlier choices it can see; none under commit and baseline) and the
// digest of the state entering it.
type subtree struct {
	depth  int
	in     opSet
	digest string
}

// walk is PreservedSets' include/exclude recursion carrying a replay state:
// each include edge steps the state by that op, and each leaf receives its set with the state its ops reached. It
// returns how many sets the model admits up to limit. With digest non-nil,
// a subtree is walked once per key: a second one offers the same choices
// from the same state, so it is skipped and only the number of sets it
// holds (memoised when it was walked) is counted, and limit cuts the
// enumeration exactly where the full walk would.
func (lo *LayerOps) walk(m Model, status []Status, limit int, root any, step func(st any, pos int) any, digest func(st any) string, leaf func(sel []int, st any) bool) (sets int, capped bool) {
	if len(lo.preds) != len(lo.Ops) {
		panic(fmt.Sprintf("paracrash: %d layer ops exceed the %d a preserved-set walk handles", len(lo.Ops), maxLayerOps))
	}
	r := lo.rule(m, status)
	// The candidates are the allowed ops in recording order, a topological
	// order. need[k] holds the earlier candidates that candidates[k] needs
	// in (closed models only); mustKeep those that may not be left out: the
	// required ones and what they need.
	var candidates []int
	var need []opSet
	mustKeep := r.required
	for c := range lo.Ops {
		if r.allowed&(1<<c) == 0 {
			continue
		}
		var n opSet
		if r.closed {
			n = lo.preds[c] & r.allowed & (1<<c - 1)
		}
		if r.required&(1<<c) != 0 {
			mustKeep |= n
		}
		candidates = append(candidates, c)
		need = append(need, n)
	}
	// live[k] holds the candidates named in need at depth k or below. At
	// depth k, in holds no candidate from k on, so in&live[k] is the key.
	live := make([]opSet, len(candidates)+1)
	for k := len(candidates) - 1; k >= 0; k-- {
		live[k] = live[k+1] | need[k]
	}
	walked := map[subtree]int{} // subtree key -> sets below it

	var in opSet
	count, stopped := 0, false
	var rec func(k int, st any)
	rec = func(k int, st any) {
		if stopped {
			return
		}
		if digest != nil {
			key := subtree{k, in & live[k], digest(st)}
			if n, ok := walked[key]; ok {
				if limit > 0 && count+n > limit {
					count, capped, stopped = limit, true, true
				} else {
					count += n
				}
				return
			}
			defer func(from int) {
				if !stopped {
					walked[key] = count - from
				}
			}(count)
		}
		if k == len(candidates) {
			if limit > 0 && count >= limit {
				capped, stopped = true, true
				return
			}
			out := make([]int, 0, bits.OnesCount64(uint64(in)))
			for w := in; w != 0; w &= w - 1 {
				out = append(out, bits.TrailingZeros64(uint64(w)))
			}
			count++
			stopped = !leaf(out, st)
			return
		}
		c := candidates[k]
		if need[k]&^in == 0 {
			in |= 1 << c
			rec(k+1, step(st, c))
			in &^= 1 << c
			if stopped {
				return
			}
		}
		if mustKeep&(1<<c) == 0 {
			rec(k+1, st)
		}
	}
	rec(0, root)
	return count, capped
}
