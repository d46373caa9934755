package causality

import (
	"math/rand"
	"testing"
	"testing/quick"

	"paracrash/internal/trace"
	"paracrash/internal/vfs"
)

// mkOps builds a linear trace on one proc.
func mkOps(proc string, n int) []*trace.Op {
	out := make([]*trace.Op, n)
	for i := range out {
		out[i] = &trace.Op{ID: i + 1, Proc: proc, Name: "op", Parent: -1,
			Layer: trace.LayerLocalFS, Payload: vfs.Op{Kind: vfs.OpCreate}}
	}
	return out
}

func TestProgramOrderHB(t *testing.T) {
	g := Build(mkOps("p", 4))
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := i < j
			if got := g.HB(i, j); got != want {
				t.Errorf("HB(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestCommEdgeAndTransitivity(t *testing.T) {
	// p: a, send(m) ; q: recv(m), b — a happens-before b transitively.
	ops := []*trace.Op{
		{ID: 1, Proc: "p", Name: "a", Parent: -1},
		{ID: 2, Proc: "p", Name: "send", Parent: -1, MsgID: 1, IsSend: true},
		{ID: 3, Proc: "q", Name: "recv", Parent: -1, MsgID: 1},
		{ID: 4, Proc: "q", Name: "b", Parent: -1},
	}
	g := Build(ops)
	if !g.HB(0, 3) {
		t.Fatal("a should happen-before b through the message")
	}
	if g.HB(3, 0) {
		t.Fatal("HB must be antisymmetric")
	}
}

func TestParentEdge(t *testing.T) {
	ops := []*trace.Op{
		{ID: 1, Proc: "p", Name: "caller", Parent: -1},
		{ID: 2, Proc: "q", Name: "callee", Parent: 1},
	}
	g := Build(ops)
	if !g.HB(0, 1) {
		t.Fatal("caller should happen-before callee")
	}
}

func TestIdealsOfChain(t *testing.T) {
	// A chain of n ops has exactly n+1 ideals (prefixes).
	g := Build(mkOps("p", 5))
	uni := []int{0, 1, 2, 3, 4}
	count := 0
	g.Ideals(uni, 0, func(b Bitset) bool {
		count++
		// Every ideal of a chain is a prefix.
		members := b.Members()
		for i, m := range members {
			if m != i {
				t.Fatalf("non-prefix ideal %v", members)
			}
		}
		return true
	})
	if count != 6 {
		t.Fatalf("chain of 5 has %d ideals, want 6", count)
	}
}

func TestIdealsOfAntichain(t *testing.T) {
	// n independent ops (different procs) have 2^n ideals.
	ops := []*trace.Op{
		{ID: 1, Proc: "a", Parent: -1},
		{ID: 2, Proc: "b", Parent: -1},
		{ID: 3, Proc: "c", Parent: -1},
	}
	g := Build(ops)
	n := g.Ideals([]int{0, 1, 2}, 0, func(Bitset) bool { return true })
	if n != 8 {
		t.Fatalf("antichain of 3 has %d ideals, want 8", n)
	}
}

func TestIdealsLimit(t *testing.T) {
	g := Build(mkOps("p", 10))
	uni := make([]int, 10)
	for i := range uni {
		uni[i] = i
	}
	n := g.Ideals(uni, 4, func(Bitset) bool { return true })
	if n != 4 {
		t.Fatalf("limit ignored: %d", n)
	}
}

// randomDAGOps builds ops on several procs with random comm edges.
func randomDAGOps(r *rand.Rand, n int) []*trace.Op {
	procs := []string{"a", "b", "c"}
	ops := make([]*trace.Op, n)
	msg := 1
	for i := range ops {
		ops[i] = &trace.Op{ID: i + 1, Proc: procs[r.Intn(3)], Parent: -1,
			Layer: trace.LayerLocalFS, Payload: vfs.Op{Kind: vfs.OpCreate}}
	}
	// Random forward message edges.
	for i := 0; i+1 < n; i++ {
		if r.Intn(3) == 0 {
			j := i + 1 + r.Intn(n-i-1)
			if ops[i].MsgID == 0 && ops[j].MsgID == 0 && ops[i].Proc != ops[j].Proc {
				ops[i].MsgID, ops[i].IsSend = msg, true
				ops[j].MsgID = msg
				msg++
			}
		}
	}
	return ops
}

// downwardClosed reports whether the set s (bitset over nodes restricted to
// universe) is closed under happens-before predecessors within universe:
// for every member j and every universe node i with i→j, i is a member.
func downwardClosed(g *Graph, s Bitset, universe []int) bool {
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

// TestQuickIdealsAreDownwardClosed: every enumerated ideal is downward
// closed, and the enumeration matches a brute-force subset filter.
func TestQuickIdealsAreDownwardClosed(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		g := Build(randomDAGOps(r, n))
		uni := make([]int, n)
		for i := range uni {
			uni[i] = i
		}
		// Brute force: count downward-closed subsets.
		brute := 0
		for mask := 0; mask < 1<<n; mask++ {
			ok := true
			for j := 0; j < n && ok; j++ {
				if mask&(1<<j) == 0 {
					continue
				}
				for i := 0; i < n; i++ {
					if g.HB(i, j) && mask&(1<<i) == 0 {
						ok = false
						break
					}
				}
			}
			if ok {
				brute++
			}
		}
		enum := 0
		closedOK := true
		g.Ideals(uni, 0, func(b Bitset) bool {
			enum++
			if !downwardClosed(g, b, uni) {
				closedOK = false
			}
			return true
		})
		return closedOK && enum == brute
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAncestorsTransposeHB: Ancestors(j) holds exactly the i with
// HB(i, j), and Descendants(i) exactly the j, on graphs wide enough to span
// several bitset words.
func TestQuickAncestorsTransposeHB(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(150)
		g := Build(randomDAGOps(r, n))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if g.Ancestors(j).Get(i) != g.HB(i, j) || g.Descendants(i).Get(j) != g.HB(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// persistFixture builds a two-server trace for Algorithm 2 truth tables:
//
//	s1: meta1, data1, fsync(data1.file), meta2
//	s2: data2
//
// with s1 ops happening before the s2 op (comm edge).
func persistFixture(mode vfs.JournalMode) (*Graph, *PersistOrder, []int) {
	ops := []*trace.Op{
		{ID: 1, Proc: "s1", Name: "creat", Meta: true, FileID: "f", Parent: -1,
			Layer: trace.LayerLocalFS, Payload: vfs.Op{Kind: vfs.OpCreate}},
		{ID: 2, Proc: "s1", Name: "pwrite", FileID: "f", Parent: -1,
			Layer: trace.LayerLocalFS, Payload: vfs.Op{Kind: vfs.OpWrite}},
		{ID: 3, Proc: "s1", Name: "fsync", FileID: "f", Sync: true, Meta: true, Parent: -1,
			Layer: trace.LayerLocalFS, Payload: vfs.Op{Kind: vfs.OpSync}},
		{ID: 4, Proc: "s1", Name: "rename", Meta: true, FileID: "g", Parent: -1,
			Layer: trace.LayerLocalFS, Payload: vfs.Op{Kind: vfs.OpRename}},
		{ID: 5, Proc: "s1", Name: "send", MsgID: 9, IsSend: true, Parent: -1, Layer: trace.LayerLocalFS},
		{ID: 6, Proc: "s2", Name: "recv", MsgID: 9, Parent: -1, Layer: trace.LayerLocalFS},
		{ID: 7, Proc: "s2", Name: "pwrite", FileID: "h", Parent: -1,
			Layer: trace.LayerLocalFS, Payload: vfs.Op{Kind: vfs.OpWrite}},
	}
	g := Build(ops)
	uni := []int{0, 1, 2, 3, 6}
	po := NewPersistOrder(g, uni, PersistConfig{Journal: map[string]vfs.JournalMode{"s1": mode, "s2": mode}})
	return g, po, uni
}

func TestPersistsBeforeDataJournal(t *testing.T) {
	_, po, _ := persistFixture(vfs.JournalData)
	// Same server, data journaling: execution order is persist order.
	if !po.PersistsBefore(0, 1) || !po.PersistsBefore(1, 3) {
		t.Fatal("data journaling must order same-server ops")
	}
	if po.PersistsBefore(1, 0) {
		t.Fatal("persist order must not be symmetric")
	}
	// Cross-server without a covering sync: unordered.
	if po.PersistsBefore(3, 6) {
		t.Fatal("cross-server ops without sync must be unordered")
	}
	// Cross-server THROUGH the sync: pwrite(f) fsync(f) ... s2 op.
	if !po.PersistsBefore(1, 6) {
		t.Fatal("fsync must order the covered write before later remote ops")
	}
}

func TestPersistsBeforeWriteback(t *testing.T) {
	// Sync-free fixture: meta, data, meta on one server.
	ops := []*trace.Op{
		{ID: 1, Proc: "s", Name: "creat", Meta: true, FileID: "f", Parent: -1,
			Layer: trace.LayerLocalFS, Payload: vfs.Op{Kind: vfs.OpCreate}},
		{ID: 2, Proc: "s", Name: "pwrite", FileID: "f", Parent: -1,
			Layer: trace.LayerLocalFS, Payload: vfs.Op{Kind: vfs.OpWrite}},
		{ID: 3, Proc: "s", Name: "rename", Meta: true, FileID: "g", Parent: -1,
			Layer: trace.LayerLocalFS, Payload: vfs.Op{Kind: vfs.OpRename}},
	}
	g := Build(ops)
	po := NewPersistOrder(g, []int{0, 1, 2}, PersistConfig{
		Journal: map[string]vfs.JournalMode{"s": vfs.JournalWriteback},
	})
	if !po.PersistsBefore(0, 2) {
		t.Fatal("meta-meta must stay ordered in writeback mode")
	}
	if po.PersistsBefore(1, 2) || po.PersistsBefore(0, 1) {
		t.Fatal("data must be unordered in writeback mode")
	}

	// In the synced fixture, fsync coverage applies in every mode: the
	// covered write persists before everything causally after the sync.
	_, po2, _ := persistFixture(vfs.JournalWriteback)
	if !po2.PersistsBefore(1, 6) || !po2.PersistsBefore(1, 3) {
		t.Fatal("fsync coverage applies in every mode")
	}
}

func TestPersistsBeforeOrdered(t *testing.T) {
	_, po, _ := persistFixture(vfs.JournalOrdered)
	// Data persists before subsequent metadata; meta-meta ordered.
	if !po.PersistsBefore(1, 3) || !po.PersistsBefore(0, 3) {
		t.Fatal("ordered mode must order writes before following metadata")
	}
	// Metadata does not order subsequent data.
	if po.PersistsBefore(0, 1) {
		t.Fatal("ordered mode must not order metadata before following data")
	}
}

func TestBlockBarrierOrdering(t *testing.T) {
	ops := []*trace.Op{
		{ID: 1, Proc: "d", Name: "scsi_write", Parent: -1, Layer: trace.LayerBlock, Payload: vfs.Op{}},
		{ID: 2, Proc: "d", Name: "scsi_write", Parent: -1, Layer: trace.LayerBlock, Payload: vfs.Op{}},
		{ID: 3, Proc: "d", Name: "scsi_sync", Sync: true, Parent: -1, Layer: trace.LayerBlock, Payload: vfs.Op{}},
		{ID: 4, Proc: "d", Name: "scsi_write", Parent: -1, Layer: trace.LayerBlock, Payload: vfs.Op{}},
	}
	g := Build(ops)
	uni := []int{0, 1, 2, 3}
	po := NewPersistOrder(g, uni, PersistConfig{Block: map[string]bool{"d": true}})
	// Writes on either side of the barrier are ordered across it...
	if !po.PersistsBefore(0, 3) || !po.PersistsBefore(1, 3) {
		t.Fatal("barrier must order writes across it")
	}
	// ...but not among themselves.
	if po.PersistsBefore(0, 1) || po.PersistsBefore(1, 0) {
		t.Fatal("writes between barriers must be free to reorder")
	}
}

func TestDependsOnClosure(t *testing.T) {
	g, po, uni := persistFixture(vfs.JournalData)
	full := NewBitset(g.Len())
	for _, i := range uni {
		full.Set(i)
	}
	// Dropping the first op drops everything it persists-before.
	dep := po.DependsOn(0, full)
	for _, i := range []int{0, 1, 3, 6} {
		if !dep.Get(i) {
			t.Errorf("DependsOn(creat) missing node %d", i)
		}
	}
	// Dropping the last s1 op drops only itself (nothing after it).
	dep = po.DependsOn(3, full)
	if dep.Count() != 1 || !dep.Get(3) {
		t.Errorf("DependsOn(rename) = %v", dep.Members())
	}
}

func TestSyncFeasible(t *testing.T) {
	g, po, uni := persistFixture(vfs.JournalData)
	front := NewBitset(g.Len())
	for _, i := range uni {
		front.Set(i)
	}
	// Dropping the fsynced write while the fsync completed is impossible.
	keep := front.Clone()
	keep.Clear(1)
	if keep.ContainsAll(po.Required(front, nil)) {
		t.Fatal("losing a synced write must be infeasible")
	}
	// With the front cut before the sync it is fine.
	front2 := NewBitset(g.Len())
	front2.Set(0)
	front2.Set(1)
	keep2 := front2.Clone()
	keep2.Clear(1)
	if !keep2.ContainsAll(po.Required(front2, nil)) {
		t.Fatal("losing an unsynced write must be feasible")
	}
}

func TestBitsetOps(t *testing.T) {
	b := NewBitset(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if b.Count() != 3 || !b.Get(64) || b.Get(63) {
		t.Fatal("basic bit ops broken")
	}
	c := b.Clone()
	c.Clear(64)
	if b.Count() != 3 || c.Count() != 2 {
		t.Fatal("clone aliases storage")
	}
	if !b.ContainsAll(c) || c.ContainsAll(b) {
		t.Fatal("ContainsAll wrong")
	}
	c.Union(b)
	if !c.Equal(b) {
		t.Fatal("union/equal wrong")
	}
	c.Subtract(b)
	if c.Count() != 0 {
		t.Fatal("subtract wrong")
	}
	members := b.Members()
	if len(members) != 3 || members[0] != 0 || members[2] != 129 {
		t.Fatalf("members = %v", members)
	}
}

// TestQuickPersistImpliesHB: on user-level file systems, persists-before is
// always a sub-relation of happens-before.
func TestQuickPersistImpliesHB(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(8)
		ops := randomDAGOps(r, n)
		for i, o := range ops {
			o.FileID = []string{"f", "g"}[r.Intn(2)]
			o.Meta = r.Intn(2) == 0
			if r.Intn(6) == 0 {
				o.Sync = true
				o.Meta = true
			}
			_ = i
		}
		g := Build(ops)
		uni := make([]int, n)
		for i := range uni {
			uni[i] = i
		}
		mode := []vfs.JournalMode{vfs.JournalData, vfs.JournalOrdered, vfs.JournalWriteback}[r.Intn(3)]
		po := NewPersistOrder(g, uni, PersistConfig{Journal: map[string]vfs.JournalMode{
			"a": mode, "b": mode, "c": mode,
		}})
		for _, i := range uni {
			for _, j := range uni {
				if i != j && po.PersistsBefore(i, j) && !g.HB(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
