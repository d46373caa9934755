// Package causality builds the multi-layer, multi-process causality graph
// over traced operations and derives from it everything the crash emulator
// needs: the happens-before partial order, consistent cuts (order ideals),
// and the persists-before relation of the paper's Algorithm 2.
//
// Concurrency: Graph and PersistOrder are fully precomputed by Build and
// NewPersistOrder respectively and never mutated afterwards, so all their
// query methods (HB, Ideals, Required, PersistsBefore, Closure, DependsOn,
// ...) are safe to call from multiple goroutines concurrently.
package causality

import (
	"fmt"
	"math/bits"

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

// Ideals enumerates every consistent cut (order ideal) of the sub-poset
// induced by universe, invoking visit with a bitset over graph nodes whose
// set bits all belong to universe. Enumeration stops early when visit
// returns false or when limit ideals have been produced (limit <= 0 means
// unlimited). It returns the number of ideals visited.
//
// The enumeration processes universe nodes in index order (a topological
// order, since edges always point forward in recording order) and branches
// on membership; a node may join only if all its universe predecessors have
// joined — its ancestor row masked to the universe holds nothing outside
// the cut so far — which yields each ideal exactly once.
func (g *Graph) Ideals(universe []int, limit int, visit func(Bitset) bool) int {
	inUniverse := NewBitset(len(g.Ops))
	for _, j := range universe {
		inUniverse.Set(j)
	}
	cur := NewBitset(len(g.Ops))
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
		rec(k + 1)
		if stopped {
			return
		}
		// Branch 2: include universe[k] if all predecessors are in. They
		// all come before it, so only the words up to its own are read.
		j := universe[k]
		anc := g.anc[j]
		for w := 0; w <= j/64; w++ {
			if anc[w]&inUniverse[w]&^cur[w] != 0 {
				return
			}
		}
		cur.Set(j)
		rec(k + 1)
		cur.Clear(j)
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
// (Closure, DependsOn, Required) are a few word operations.
type PersistOrder struct {
	g        *Graph
	universe []int
	// pb[a].Get(j) ⇔ universe[a] persists-before graph node j (a universe
	// node).
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

// NewPersistOrder computes persists-before over the given lowermost nodes,
// row by row: each proc, block flag, journaling mode and file identity is
// resolved once per universe node, and every rule of Algorithm 2 is an OR of
// happens-before rows under masks. Rows are over graph nodes, so the graph's
// own happens-before rows serve, masked to the universe.
func NewPersistOrder(g *Graph, universe []int, cfg PersistConfig) *PersistOrder {
	n := len(g.Ops)
	po := &PersistOrder{
		g:        g,
		universe: universe,
		pb:       make([]Bitset, len(universe)),
		posOf:    make([]int, n),
		closure:  make([]Bitset, len(universe)),
	}
	for i := range po.posOf {
		po.posOf[i] = -1
	}
	// Per proc: its universe nodes, the block flag and the journaling mode;
	// per file identity: its universe nodes. Meta holds the metadata ops.
	type procInfo struct {
		nodes Bitset
		block bool
		mode  vfs.JournalMode
	}
	procOf := map[string]*procInfo{}
	fileOf := map[string]Bitset{}
	inUniverse, meta := NewBitset(n), NewBitset(n)
	procs := make([]*procInfo, len(universe))
	for a, i := range universe {
		po.posOf[i] = a
		po.pb[a] = NewBitset(n)
		o := g.Ops[i]
		p := procOf[o.Proc]
		if p == nil {
			p = &procInfo{nodes: NewBitset(n), block: cfg.IsBlock(o.Proc), mode: cfg.ModeOf(o.Proc)}
			procOf[o.Proc] = p
		}
		procs[a] = p
		p.nodes.Set(i)
		if o.FileID != "" {
			f := fileOf[o.FileID]
			if f == nil {
				f = NewBitset(n)
				fileOf[o.FileID] = f
			}
			f.Set(i)
		}
		inUniverse.Set(i)
		if o.Meta {
			meta.Set(i)
		}
	}

	// Commit rule, for every sync s and every op i it covers (i == s or
	// HB(i, s)): i persists before everything s happens before. A barrier
	// covers every op of its device; a file system's sync covers the ops
	// of its proc on its file. The syncs of a proc are in program order, so
	// the first sync to cover i happens before every later one and its row
	// holds theirs: i takes that row alone.
	taken := NewBitset(n)
	for a, s := range universe {
		os := g.Ops[s]
		if !os.Sync {
			continue
		}
		p := procs[a]
		var covers Bitset
		switch {
		case p.block:
			covers = p.nodes
		case os.FileID != "":
			covers = fileOf[os.FileID]
		default:
			continue
		}
		row := g.hb[s]
		po.pb[a].Union(row)
		taken.Set(s)
		covered, anc, nonEmpty := NewBitset(n), g.anc[s], false
		for w := range covered {
			c := anc[w] & p.nodes[w] & covers[w]
			covered[w] = c
			nonEmpty = nonEmpty || c != 0
			for x := c &^ taken[w]; x != 0; x &= x - 1 {
				po.pb[po.posOf[w*64+bits.TrailingZeros64(x)]].Union(row)
			}
			taken[w] |= c
		}
		if nonEmpty {
			po.syncs = append(po.syncs, s)
			po.covered = append(po.covered, covered)
		}
	}

	// Same-server rule: on a local file system, i persists before the ops of
	// its proc it happens before, as the journaling mode allows; a block
	// device orders only through barriers.
	for a, i := range universe {
		p := procs[a]
		if p.block {
			continue
		}
		var mask Bitset // nil: every op of the proc
		switch p.mode {
		case vfs.JournalOrdered:
			// Metadata is ordered; data persists before subsequent metadata.
			mask = meta
		case vfs.JournalWriteback:
			if !g.Ops[i].Meta {
				continue
			}
			mask = meta
		}
		row, pb := g.hb[i], po.pb[a]
		for w := range pb {
			x := row[w] & p.nodes[w]
			if mask != nil {
				x &= mask[w]
			}
			pb[w] |= x
		}
	}
	for _, pb := range po.pb {
		pb.Intersect(inUniverse)
	}

	// Transitive closure in one reverse pass: every persists-before edge
	// implies happens-before, which points forward in recording (universe)
	// order, so closure[b] is final before any a < b reads it. A successor
	// already in closure[a] brought its whole closure along, so each word is
	// re-read after every union.
	for a := len(universe) - 1; a >= 0; a-- {
		c := NewBitset(n)
		c.Set(universe[a])
		for w, pb := range po.pb[a] {
			for x := pb &^ c[w]; x != 0; x = pb &^ c[w] {
				c.Union(po.closure[po.posOf[w*64+bits.TrailingZeros64(x)]])
			}
		}
		po.closure[a] = c
	}
	return po
}

// Required sets dst to the ops of front that commit durability forbids a
// crash at front to lose — the union, over every sync completed within
// front, of the ops it covers that are in front — and returns it. dst is
// reused when it has front's capacity and allocated otherwise. A keep set
// is physically possible exactly when it contains the result, so callers
// compute it once per front and test each keep set with one AND-NOT.
func (po *PersistOrder) Required(front, dst Bitset) Bitset {
	if len(dst) != len(front) {
		dst = make(Bitset, len(front))
	} else {
		clear(dst)
	}
	for k, s := range po.syncs {
		if !front.Get(s) {
			continue
		}
		for w, c := range po.covered[k] {
			dst[w] |= c & front[w]
		}
	}
	return dst
}

// PersistsBefore reports whether graph node i persists-before graph node j.
// Both must be members of the universe.
func (po *PersistOrder) PersistsBefore(i, j int) bool {
	a := po.posOf[i]
	return a >= 0 && po.pb[a].Get(j)
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
