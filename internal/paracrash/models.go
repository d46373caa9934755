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
	"strconv"
	"strings"

	"paracrash/internal/causality"
	"paracrash/internal/trace"
)

// isCloseName reports whether an op name is a close at any layer ("close",
// "H5Fclose", "MPI_File_close", "nc_close").
func isCloseName(name string) bool {
	return strings.HasSuffix(strings.ToLower(name), "close")
}

// Model is a crash-consistency model (paper §4.4.2): a rule defining which
// subsets of the operations executed before a crash are legal preserved
// sets.
type Model int

const (
	// ModelStrict requires all operations preceding the crash (and only
	// those) to be preserved; operations in flight at the crash may be
	// fully present or fully absent.
	ModelStrict Model = iota
	// ModelCommit requires operations covered by a commit (fsync) that
	// happened before the crash to be preserved; everything else is free.
	ModelCommit
	// ModelCausal is commit consistency plus downward closure: if an op is
	// preserved, everything that happened-before it is preserved too.
	ModelCausal
	// ModelBaseline only requires updates to files/datasets that were
	// closed (not open for write) at the crash to be preserved.
	ModelBaseline
)

// String returns the model name used in configuration and reports.
func (m Model) String() string {
	switch m {
	case ModelStrict:
		return "strict"
	case ModelCommit:
		return "commit"
	case ModelCausal:
		return "causal"
	case ModelBaseline:
		return "baseline"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
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
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// ParseModel parses a model name.
func ParseModel(s string) (Model, error) {
	switch s {
	case "strict":
		return ModelStrict, nil
	case "commit":
		return ModelCommit, nil
	case "causal":
		return ModelCausal, nil
	case "baseline":
		return ModelBaseline, nil
	default:
		return 0, fmt.Errorf("paracrash: unknown consistency model %q", s)
	}
}

// LayerOps describes the operations of one checked layer, derived from the
// full trace: the ops themselves, their happens-before order, and the
// mapping from lowermost ops to their layer-level ancestors.
type LayerOps struct {
	G *causality.Graph
	// Ops holds the layer's operations in recording order. Communication
	// ops are excluded.
	Ops []*trace.Op
	// nodeIdx[i] is Ops[i]'s node index in G.
	nodeIdx []int
	// ancestorOf maps a lowermost node index to the position (in Ops) of
	// its layer-level ancestor, or -1.
	ancestorOf map[int]int
	// descendants[i] = lowermost node indices descending from Ops[i].
	descendants [][]int
}

// NewLayerOps extracts the ops of the given layer from the graph. Only ops
// matching keep (nil = all non-communication ops of the layer) become layer
// operations.
func NewLayerOps(g *causality.Graph, layer trace.Layer, keep func(*trace.Op) bool) *LayerOps {
	lo := &LayerOps{G: g, ancestorOf: make(map[int]int)}
	posByNode := map[int]int{}
	for i, o := range g.Ops {
		if o.Layer != layer || o.IsComm() {
			continue
		}
		if keep != nil && !keep(o) {
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
		anc := -1
		cur := o
		for cur != nil && cur.Parent >= 0 {
			pi, ok := g.IndexOf(cur.Parent)
			if !ok {
				break
			}
			if pos, ok := posByNode[pi]; ok {
				anc = pos
				break
			}
			cur = g.Ops[pi]
		}
		lo.ancestorOf[i] = anc
		if anc >= 0 {
			lo.descendants[anc] = append(lo.descendants[anc], i)
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

// AncestorOf returns the layer-op position owning the lowermost node, or -1.
func (lo *LayerOps) AncestorOf(node int) int {
	a, ok := lo.ancestorOf[node]
	if !ok {
		return -1
	}
	return a
}

// Status classifies each layer op against a lowermost crash front:
// completed (all replayable descendants inside the front), inflight (some
// inside), or unexecuted (none inside; vacuously completed if no
// descendants but recorded before the front's last op — we approximate by
// treating descendant-less ops as completed).
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
	for i := range lo.Ops {
		desc := lo.descendants[i]
		if len(desc) == 0 {
			// No storage footprint (e.g. close): completed unless a
			// preceding op of the same layer is not completed — we keep it
			// simple and mark completed; such ops have no replayed effect.
			out[i] = StatusCompleted
			continue
		}
		in, total := 0, 0
		for _, d := range desc {
			total++
			if front.Get(d) {
				in++
			}
		}
		switch {
		case in == 0:
			out[i] = StatusUnexecuted
		case in == total:
			out[i] = StatusCompleted
		default:
			out[i] = StatusInflight
		}
	}
	return out
}

// CommittedSet returns the positions of layer ops that must be preserved
// under commit/causal consistency given the front statuses: ops covered by
// a completed sync op on the same file that happened after them.
func (lo *LayerOps) CommittedSet(status []Status) map[int]bool {
	out := map[int]bool{}
	for s, so := range lo.Ops {
		if !so.Sync || status[s] != StatusCompleted {
			continue
		}
		for i, o := range lo.Ops {
			if i == s || status[i] != StatusCompleted {
				continue
			}
			if o.FileID != "" && o.FileID == so.FileID && lo.HB(i, s) {
				out[i] = true
			}
		}
	}
	return out
}

// ClosedSet returns the positions of layer ops that must be preserved under
// baseline consistency: every op touching a file whose last completed op is
// a close (the file was not open for write at the crash).
func (lo *LayerOps) ClosedSet(status []Status) map[int]bool {
	// Determine, per file, whether it ends closed within the front.
	lastTouch := map[string]int{} // fileID -> last completed op position
	for i, o := range lo.Ops {
		if status[i] != StatusCompleted || o.FileID == "" {
			continue
		}
		lastTouch[o.FileID] = i
	}
	out := map[int]bool{}
	for file, last := range lastTouch {
		if !isCloseName(lo.Ops[last].Name) {
			continue // still open (or never closed): nothing required
		}
		for i, o := range lo.Ops {
			if status[i] == StatusCompleted && o.FileID == file {
				out[i] = true
			}
		}
	}
	return out
}

// PreservedSets enumerates the legal preserved sets of the layer under the
// model for the given front statuses, invoking visit with the positions of
// preserved ops (ascending) until visit returns false or limit sets have
// been produced (limit <= 0 means unlimited). It reports whether the limit
// cut the enumeration short: the check is made on the set after the last
// allowed one, so an enumeration holding exactly limit sets is not capped.
//
// Required ops depend on the model; optional ops may each be present or
// absent. Strict and causal additionally require downward closure under
// the layer's happens-before order, which the enumeration enforces
// directly (ideals of the candidate poset, with branches that can no
// longer include a required op pruned), so the cost is proportional to the
// number of legal sets rather than 2^n.
func (lo *LayerOps) PreservedSets(m Model, status []Status, limit int, visit func(sel []int) bool) (capped bool) {
	_, capped = lo.walk(m, status, limit, nil, nil, nil, func(sel []int, _ any) bool { return visit(sel) })
	return capped
}

// walk is PreservedSets' include/exclude recursion carrying a replay state:
// each include edge steps the state by that op (step nil: the state stays
// root), and each leaf receives its set with the state its ops reached. It
// returns how many sets the model admits up to limit.
//
// With digest non-nil, a subtree is walked once per key: its depth, the
// in/out bits of the earlier candidates that a candidate at or below it
// names as a predecessor (the only earlier choices it can see; none under
// commit and baseline) and the digest of the state entering it. A second
// subtree with the same key offers the same choices from the same state, so
// its leaves reach states already visited: it is skipped, and only the
// number of sets it holds — memoised when it was walked — is counted, so
// limit cuts the enumeration exactly where the full walk would.
func (lo *LayerOps) walk(m Model, status []Status, limit int, root any, step func(st any, pos int) any, digest func(st any) string, leaf func(sel []int, st any) bool) (sets int, capped bool) {
	var candidates []int
	required := map[int]bool{}
	switch m {
	case ModelStrict:
		for i := range lo.Ops {
			if status[i] == StatusCompleted {
				required[i] = true
				candidates = append(candidates, i)
			} else if status[i] == StatusInflight {
				candidates = append(candidates, i)
			}
		}
	case ModelCommit, ModelCausal:
		required = lo.CommittedSet(status)
		for i := range lo.Ops {
			if status[i] != StatusUnexecuted {
				candidates = append(candidates, i)
			}
		}
	case ModelBaseline:
		required = lo.ClosedSet(status)
		for i := range lo.Ops {
			if status[i] != StatusUnexecuted {
				candidates = append(candidates, i)
			}
		}
	}
	closed := m == ModelStrict || m == ModelCausal

	// preds[k] = positions (indices into candidates) of candidate
	// predecessors of candidates[k]; candidates are in recording order,
	// which is a topological order.
	preds := make([][]int, len(candidates))
	if closed {
		for k, j := range candidates {
			for k2, i := range candidates {
				if k2 >= k {
					break
				}
				if lo.HB(i, j) {
					preds[k] = append(preds[k], k2)
				}
			}
		}
	}

	// lastUse[p] is the last candidate naming candidate p as a predecessor
	// (-1: none), so p's bit is part of the subtree keys down to that depth.
	lastUse := make([]int, len(candidates))
	for p := range lastUse {
		lastUse[p] = -1
	}
	for k, ps := range preds {
		for _, p := range ps {
			lastUse[p] = k
		}
	}
	walked := map[string]int{} // subtree key -> sets below it

	in := make([]bool, len(candidates))
	count := 0
	stopped := false
	var rec func(k int, st any)
	rec = func(k int, st any) {
		if stopped {
			return
		}
		if digest != nil {
			key := append(strconv.AppendInt(nil, int64(k), 10), ':')
			for p := 0; p < k; p++ {
				if lastUse[p] >= k {
					key = strconv.AppendBool(key, in[p])
				}
			}
			key = append(key, digest(st)...)
			if n, ok := walked[string(key)]; ok {
				if limit > 0 && count+n > limit {
					count, capped, stopped = limit, true, true
				} else {
					count += n
				}
				return
			}
			defer func(from int) {
				if !stopped {
					walked[string(key)] = count - from
				}
			}(count)
		}
		if k == len(candidates) {
			if limit > 0 && count >= limit {
				capped, stopped = true, true
				return
			}
			out := make([]int, 0, len(candidates))
			for i, c := range candidates {
				if in[i] {
					out = append(out, c)
				}
			}
			count++
			stopped = !leaf(out, st)
			return
		}
		c := candidates[k]
		// Include branch: allowed if (for closed models) every candidate
		// predecessor is in.
		canInclude := true
		if closed {
			for _, p := range preds[k] {
				if !in[p] {
					canInclude = false
					break
				}
			}
		}
		if canInclude {
			next := st
			if step != nil {
				next = step(st, c)
			}
			in[k] = true
			rec(k+1, next)
			in[k] = false
			if stopped {
				return
			}
		}
		// Exclude branch: disallowed if c is required, or if excluding c
		// would make a later required op unreachable in a closed model.
		if required[c] {
			return
		}
		if closed {
			for k2 := k + 1; k2 < len(candidates); k2++ {
				if !required[candidates[k2]] {
					continue
				}
				for _, p := range preds[k2] {
					if p == k {
						return // required op depends on c
					}
				}
			}
		}
		rec(k+1, st)
	}
	rec(0, root)
	return count, capped
}
