// Package causality builds the multi-layer, multi-process causality graph
// over traced operations and derives from it everything the crash emulator
// needs: the happens-before partial order, consistent cuts (order ideals),
// and the persists-before relation of the paper's Algorithm 2.
//
// Concurrency: Graph and PersistOrder are fully precomputed by Build and
// NewPersistOrder respectively and never mutated afterwards, so all their
// query methods (HB, Ideals, DownwardClosed, SyncFeasible, PersistsBefore,
// Closure, DependsOn, ...) are safe to call from multiple goroutines
// concurrently.
package causality

import (
	"fmt"

	"paracrash/internal/trace"
	"paracrash/internal/vfs"
)

// Graph is the happens-before DAG over a trace. Nodes are ops (indexed by
// position in Ops); the relation is the transitive closure of
//
//   - program order within each process,
//   - caller → callee edges across layers,
//   - send → receive edges for matched communications.
type Graph struct {
	// Ops holds every node. Indices into this slice are the node IDs used
	// throughout the package.
	Ops []*trace.Op

	byID map[int]int // trace op ID -> node index
	succ [][]int     // direct edges
	hb   []Bitset    // hb[i].Get(j) ⇔ i strictly happens-before j
	anc  []Bitset    // anc[j].Get(i) ⇔ i strictly happens-before j (hb transposed)
}

// Build constructs the causality graph over ops. The ops must carry
// consistent Parent/MsgID links; unknown parents are ignored.
func Build(ops []*trace.Op) *Graph {
	g := &Graph{
		Ops:  ops,
		byID: make(map[int]int, len(ops)),
		succ: make([][]int, len(ops)),
	}
	for i, o := range ops {
		g.byID[o.ID] = i
	}

	addEdge := func(from, to int) {
		if from == to {
			return
		}
		g.succ[from] = append(g.succ[from], to)
	}

	// Program order within each process.
	lastByProc := map[string]int{}
	for i, o := range ops {
		if prev, ok := lastByProc[o.Proc]; ok {
			addEdge(prev, i)
		}
		lastByProc[o.Proc] = i
	}

	// Caller-callee edges.
	for i, o := range ops {
		if o.Parent >= 0 {
			if pi, ok := g.byID[o.Parent]; ok {
				addEdge(pi, i)
			}
		}
	}

	// Communication edges: send → recv.
	sends := map[int]int{}
	recvs := map[int]int{}
	for i, o := range ops {
		if !o.IsComm() {
			continue
		}
		if o.IsSend {
			sends[o.MsgID] = i
		} else {
			recvs[o.MsgID] = i
		}
	}
	for msg, si := range sends {
		if ri, ok := recvs[msg]; ok {
			addEdge(si, ri)
		}
	}

	g.closure()
	return g
}

// closure computes the transitive closure with a reverse-topological DP,
// and its transpose. The graph is a DAG by construction (all edge sources
// were recorded before their targets except possibly comm edges, so we
// verify with Kahn).
func (g *Graph) closure() {
	n := len(g.Ops)
	g.hb = make([]Bitset, n)
	g.anc = make([]Bitset, n)
	for i := range g.hb {
		g.hb[i] = NewBitset(n)
		g.anc[i] = NewBitset(n)
	}
	// Topological order via Kahn's algorithm.
	indeg := make([]int, n)
	for _, outs := range g.succ {
		for _, t := range outs {
			indeg[t]++
		}
	}
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, t := range g.succ[v] {
			indeg[t]--
			if indeg[t] == 0 {
				queue = append(queue, t)
			}
		}
	}
	if len(order) != n {
		panic(fmt.Sprintf("causality: trace graph has a cycle (%d of %d ordered)", len(order), n))
	}
	// Propagate reachability from sinks backwards, and ancestry from sources
	// forwards: a node's predecessors all come before it in order.
	for k := len(order) - 1; k >= 0; k-- {
		v := order[k]
		for _, t := range g.succ[v] {
			g.hb[v].Set(t)
			g.hb[v].Union(g.hb[t])
		}
	}
	for _, v := range order {
		for _, t := range g.succ[v] {
			g.anc[t].Set(v)
			g.anc[t].Union(g.anc[v])
		}
	}
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.Ops) }

// HB reports whether node i strictly happens-before node j.
func (g *Graph) HB(i, j int) bool { return g.hb[i].Get(j) }

// Descendants returns the nodes i strictly happens-before, as a bitset over
// nodes. The result is shared and must not be modified.
func (g *Graph) Descendants(i int) Bitset { return g.hb[i] }

// Ancestors returns the nodes that strictly happen-before j, as a bitset
// over nodes: the transpose of Descendants, so "every member of s that is j
// or precedes j" is one AND. The result is shared and must not be modified.
func (g *Graph) Ancestors(j int) Bitset { return g.anc[j] }

// IndexOf returns the node index of the op with the given trace ID.
func (g *Graph) IndexOf(opID int) (int, bool) {
	i, ok := g.byID[opID]
	return i, ok
}

// DownwardClosed reports whether the set s (bitset over nodes restricted to
// universe) is closed under happens-before predecessors within universe:
// for every member j and every universe node i with i→j, i is a member.
func (g *Graph) DownwardClosed(s Bitset, universe []int) bool {
	for _, j := range universe {
		if !s.Get(j) {
			continue
		}
		for _, i := range universe {
			if g.HB(i, j) && !s.Get(i) {
				return false
			}
		}
	}
	return true
}

// Ideals enumerates every consistent cut (order ideal) of the sub-poset
// induced by universe, invoking visit with a bitset over graph nodes whose
// set bits all belong to universe. Enumeration stops early when visit
// returns false or when limit ideals have been produced (limit <= 0 means
// unlimited). It returns the number of ideals visited.
//
// The enumeration processes universe nodes in index order (a topological
// order, since edges always point forward in recording order) and branches
// on membership; a node may join only if all its universe predecessors have
// joined, which yields each ideal exactly once.
func (g *Graph) Ideals(universe []int, limit int, visit func(Bitset) bool) int {
	// preds[k] = indices (into universe) of predecessors of universe[k].
	preds := make([][]int, len(universe))
	for k, j := range universe {
		for k2, i := range universe {
			if k2 >= k {
				break
			}
			if g.HB(i, j) {
				preds[k] = append(preds[k], k2)
			}
		}
	}
	cur := NewBitset(len(g.Ops))
	inSet := make([]bool, len(universe))
	count := 0
	stopped := false

	var rec func(k int)
	rec = func(k int) {
		if stopped {
			return
		}
		if k == len(universe) {
			count++
			if !visit(cur.Clone()) || (limit > 0 && count >= limit) {
				stopped = true
			}
			return
		}
		// Branch 1: exclude universe[k].
		inSet[k] = false
		rec(k + 1)
		if stopped {
			return
		}
		// Branch 2: include universe[k] if all predecessors are in.
		ok := true
		for _, p := range preds[k] {
			if !inSet[p] {
				ok = false
				break
			}
		}
		if ok {
			inSet[k] = true
			cur.Set(universe[k])
			rec(k + 1)
			cur.Clear(universe[k])
			inSet[k] = false
		}
	}
	rec(0)
	return count
}

// PersistConfig describes the persistence machinery of each lowermost-layer
// process: the journaling mode of user-level servers' local file systems
// and which processes are block devices (barrier semantics).
type PersistConfig struct {
	// Journal maps a local-FS proc name to its journaling mode. Procs not
	// present default to JournalData.
	Journal map[string]vfs.JournalMode
	// Block marks procs whose lowermost ops are block commands.
	Block map[string]bool
}

// ModeOf returns the journaling mode of proc.
func (c PersistConfig) ModeOf(proc string) vfs.JournalMode {
	if c.Journal == nil {
		return vfs.JournalData
	}
	m, ok := c.Journal[proc]
	if !ok {
		return vfs.JournalData
	}
	return m
}

// IsBlock reports whether proc is a block device.
func (c PersistConfig) IsBlock(proc string) bool {
	return c.Block != nil && c.Block[proc]
}

// PersistOrder precomputes the persists-before relation (Algorithm 2) over
// a universe of lowermost-layer nodes, its transitive closure per node, and
// the coverage of every sync, so the crash emulator's per-candidate queries
// (DependsOn, SyncFeasible) are a few word operations.
type PersistOrder struct {
	g        *Graph
	universe []int
	// pb[a].Get(b) ⇔ universe[a] persists-before universe[b]
	pb []Bitset
	// posOf maps graph node index -> position in universe (-1 if absent).
	posOf []int
	// closure[a] holds, over graph nodes, universe[a] and everything
	// reachable from it through persists-before.
	closure []Bitset
	// syncs lists the sync nodes that cover anything; covered[k] holds, over
	// graph nodes, the ops whose persistence a completed syncs[k] guarantees
	// (same file or device, executed before it).
	syncs   []int
	covered []Bitset
}

// NewPersistOrder computes persists-before over the given lowermost nodes.
func NewPersistOrder(g *Graph, universe []int, cfg PersistConfig) *PersistOrder {
	po := &PersistOrder{
		g:        g,
		universe: universe,
		pb:       make([]Bitset, len(universe)),
		posOf:    make([]int, len(g.Ops)),
		closure:  make([]Bitset, len(universe)),
	}
	for i := range po.posOf {
		po.posOf[i] = -1
	}
	for k, i := range universe {
		po.posOf[i] = k
		po.pb[k] = NewBitset(len(universe))
	}
	// Collect sync nodes per proc for the commit rule.
	syncs := []int{}
	for _, i := range universe {
		if g.Ops[i].Sync {
			syncs = append(syncs, i)
		}
	}
	for a, i := range universe {
		for b, j := range universe {
			if a == b {
				continue
			}
			if po.computePersistsBefore(i, j, cfg, syncs) {
				po.pb[a].Set(b)
			}
		}
	}
	// Transitive closure in one reverse pass: every persists-before edge
	// implies happens-before, which points forward in recording (universe)
	// order, so closure[b] is final before any a < b reads it. A successor
	// already in closure[a] brought its whole closure along.
	for a := len(universe) - 1; a >= 0; a-- {
		c := NewBitset(len(g.Ops))
		c.Set(universe[a])
		for _, b := range po.pb[a].Members() {
			if !c.Get(universe[b]) {
				c.Union(po.closure[b])
			}
		}
		po.closure[a] = c
	}
	// Sync coverage: once a sync completes, the operations it covers are
	// durable — no later crash can lose them.
	for _, s := range syncs {
		os := g.Ops[s]
		var covered Bitset
		for _, i := range universe {
			if i == s {
				continue
			}
			oi := g.Ops[i]
			if oi.Proc != os.Proc || !g.HB(i, s) {
				continue
			}
			if cfg.IsBlock(oi.Proc) || (os.FileID != "" && os.FileID == oi.FileID) {
				if covered == nil {
					covered = NewBitset(len(g.Ops))
				}
				covered.Set(i)
			}
		}
		if covered != nil {
			po.syncs = append(po.syncs, s)
			po.covered = append(po.covered, covered)
		}
	}
	return po
}

// SyncFeasible reports whether a crash state (front, keep) respects commit
// durability: every op covered by a sync that completed within the front
// must be in keep. States violating this cannot occur on real storage. It
// does not allocate.
func (po *PersistOrder) SyncFeasible(front, keep Bitset) bool {
	for k, s := range po.syncs {
		if !front.Get(s) {
			continue
		}
		for w, c := range po.covered[k] {
			if c&front[w]&^keep[w] != 0 {
				return false
			}
		}
	}
	return true
}

// computePersistsBefore implements Algorithm 2 for a single pair.
func (po *PersistOrder) computePersistsBefore(i, j int, cfg PersistConfig, syncs []int) bool {
	g := po.g
	oi, oj := g.Ops[i], g.Ops[j]

	// The commit rule applies everywhere: a sync covering op i that happened
	// between i and j forces i to persist first. For file systems the sync
	// must cover i's file; for block devices any barrier on i's device
	// suffices.
	for _, s := range syncs {
		os := g.Ops[s]
		if os.Proc != oi.Proc {
			continue
		}
		covers := false
		if cfg.IsBlock(oi.Proc) {
			covers = true // device-wide barrier
		} else if os.FileID != "" && os.FileID == oi.FileID {
			covers = true
		}
		if covers && (s == i || g.HB(i, s)) && g.HB(s, j) {
			return true
		}
	}

	if oi.Proc != oj.Proc {
		// Different servers: only the commit rule above orders them.
		return false
	}

	if cfg.IsBlock(oi.Proc) {
		// Same block device: ordering only through barriers (handled above).
		return false
	}

	// Same local file system: journaling mode decides.
	if !g.HB(i, j) {
		return false
	}
	switch cfg.ModeOf(oi.Proc) {
	case vfs.JournalData:
		return true
	case vfs.JournalOrdered:
		// Metadata is ordered; data persists before subsequent metadata.
		return oj.Meta
	case vfs.JournalWriteback:
		return oi.Meta && oj.Meta
	default:
		return true
	}
}

// PersistsBefore reports whether graph node i persists-before graph node j.
// Both must be members of the universe.
func (po *PersistOrder) PersistsBefore(i, j int) bool {
	a, b := po.posOf[i], po.posOf[j]
	if a < 0 || b < 0 {
		return false
	}
	return po.pb[a].Get(b)
}

// Closure returns Algorithm 1's depends_on for victim over the whole trace:
// victim plus every universe node reachable from it through persists-before,
// as a bitset over graph nodes (nil when victim is outside the universe).
// The result is shared and must not be modified.
func (po *PersistOrder) Closure(victim int) Bitset {
	if v := po.posOf[victim]; v >= 0 {
		return po.closure[v]
	}
	return nil
}

// DependsOn returns Algorithm 1's depends_on within a crash front: the
// universe nodes of within (as graph indices) that cannot persist if victim
// does not, as a fresh bitset. within must be nil (the whole trace) or a
// happens-before ideal of the universe that contains victim — every crash
// front is. Persists-before implies happens-before, so such a set holds
// every intermediate node of any persists-before path ending inside it, and
// the closure within it is simply Closure(victim) ∩ within.
func (po *PersistOrder) DependsOn(victim int, within Bitset) Bitset {
	out := NewBitset(len(po.g.Ops))
	copy(out, po.Closure(victim))
	if within != nil {
		out.Intersect(within)
	}
	return out
}

// Universe returns the node universe of the persist order.
func (po *PersistOrder) Universe() []int { return po.universe }
