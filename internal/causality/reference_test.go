package causality

import (
	"math/rand"
	"testing"

	"paracrash/internal/vfs"
)

// referenceDependsOn is the worklist closure DependsOn was before the
// closure table: victim, plus whatever persists-before reaches from it
// through nodes of within only (nil = the whole universe).
func referenceDependsOn(po *PersistOrder, victim int, within Bitset) Bitset {
	out := NewBitset(len(po.g.Ops))
	if po.posOf[victim] < 0 {
		return out
	}
	out.Set(victim)
	work := []int{victim}
	for len(work) > 0 {
		a := work[0]
		work = work[1:]
		for _, b := range po.pb[po.posOf[a]].Members() {
			if within != nil && !within.Get(b) {
				continue
			}
			if !out.Get(b) {
				out.Set(b)
				work = append(work, b)
			}
		}
	}
	return out
}

// referencePersistsBefore is Algorithm 2 for a single pair, the way
// NewPersistOrder computed every pair of the universe before it built the
// relation row by row: a sync on i's proc covering i (its device, or its
// file) that i is or happens before and that happens before j; else, on the
// same local file system, happens-before as the journaling mode allows.
func referencePersistsBefore(g *Graph, i, j int, cfg PersistConfig, syncs []int) bool {
	oi, oj := g.Ops[i], g.Ops[j]
	for _, s := range syncs {
		os := g.Ops[s]
		if os.Proc != oi.Proc {
			continue
		}
		covers := cfg.IsBlock(oi.Proc) || (os.FileID != "" && os.FileID == oi.FileID)
		if covers && (s == i || g.HB(i, s)) && g.HB(s, j) {
			return true
		}
	}
	if oi.Proc != oj.Proc || cfg.IsBlock(oi.Proc) || !g.HB(i, j) {
		return false
	}
	switch cfg.ModeOf(oi.Proc) {
	case vfs.JournalOrdered:
		return oj.Meta
	case vfs.JournalWriteback:
		return oi.Meta && oj.Meta
	default:
		return true
	}
}

// ReferencePersistOrder holds PersistsBefore to referencePersistsBefore on
// every pair of po's universe, po built under cfg, and returns the number of
// persists-before edges.
func ReferencePersistOrder(t testing.TB, name string, po *PersistOrder, cfg PersistConfig) int {
	t.Helper()
	g, uni := po.g, po.universe
	var syncs []int
	for _, i := range uni {
		if g.Ops[i].Sync {
			syncs = append(syncs, i)
		}
	}
	edges := 0
	for _, i := range uni {
		for _, j := range uni {
			want := i != j && referencePersistsBefore(g, i, j, cfg, syncs)
			if got := po.PersistsBefore(i, j); got != want {
				t.Fatalf("%s: PersistsBefore(%d, %d) = %v, pairwise reference %v", name, i, j, got, want)
			}
			if want {
				edges++
			}
		}
	}
	return edges
}

// referenceCoveredBy is the sync-coverage map feasibility was once ranged
// over per state: sync node -> the nodes whose persistence it guarantees.
func referenceCoveredBy(g *Graph, universe []int, cfg PersistConfig) map[int][]int {
	coveredBy := map[int][]int{}
	for _, s := range universe {
		os := g.Ops[s]
		if !os.Sync {
			continue
		}
		for _, i := range universe {
			oi := g.Ops[i]
			if i == s || oi.Proc != os.Proc || !g.HB(i, s) {
				continue
			}
			if cfg.IsBlock(oi.Proc) || (os.FileID != "" && os.FileID == oi.FileID) {
				coveredBy[s] = append(coveredBy[s], i)
			}
		}
	}
	return coveredBy
}

func referenceSyncFeasible(coveredBy map[int][]int, front, keep Bitset) bool {
	for s, covered := range coveredBy {
		if !front.Get(s) {
			continue
		}
		for _, o := range covered {
			if front.Get(o) && !keep.Get(o) {
				return false
			}
		}
	}
	return true
}

// persistCells yields random traces under each persistence machinery: the
// three journaling modes and block devices with barriers.
func persistCells(t *testing.T, visit func(name string, g *Graph, uni []int, cfg PersistConfig)) {
	t.Helper()
	configs := []struct {
		name string
		cfg  PersistConfig
	}{
		{"data", PersistConfig{}},
		{"ordered", PersistConfig{Journal: map[string]vfs.JournalMode{"a": vfs.JournalOrdered, "b": vfs.JournalOrdered, "c": vfs.JournalOrdered}}},
		{"writeback", PersistConfig{Journal: map[string]vfs.JournalMode{"a": vfs.JournalWriteback, "b": vfs.JournalWriteback, "c": vfs.JournalWriteback}}},
		{"block", PersistConfig{Block: map[string]bool{"a": true, "b": true, "c": true}}},
		{"mixed", PersistConfig{Journal: map[string]vfs.JournalMode{"a": vfs.JournalOrdered}, Block: map[string]bool{"c": true}}},
	}
	r := rand.New(rand.NewSource(22))
	for round := 0; round < 40; round++ {
		n := 3 + r.Intn(9)
		ops := randomDAGOps(r, n)
		var uni []int
		for i, o := range ops {
			o.FileID = []string{"f", "g"}[r.Intn(2)]
			o.Meta = r.Intn(2) == 0
			if r.Intn(5) == 0 {
				o.Sync, o.Meta = true, true
			}
			if r.Intn(8) != 0 { // the rest take part in causality only, like comm events
				uni = append(uni, i)
			}
		}
		g := Build(ops)
		for _, c := range configs {
			visit(c.name, g, uni, c.cfg)
		}
	}
}

// TestPersistOrderMatchesPairwise: the relation built row by row equals
// Algorithm 2 evaluated pair by pair under every persistence machinery. The
// paper's cells and the generated programs are held to it in
// pairwise_test.go.
func TestPersistOrderMatchesPairwise(t *testing.T) {
	edges := map[string]int{}
	persistCells(t, func(name string, g *Graph, uni []int, cfg PersistConfig) {
		edges[name] += ReferencePersistOrder(t, name, NewPersistOrder(g, uni, cfg), cfg)
	})
	for _, name := range []string{"data", "ordered", "writeback", "block", "mixed"} {
		if edges[name] == 0 {
			t.Errorf("%s: no persists-before edge; the comparison is vacuous", name)
		}
	}
}

// TestPersistOrderEdgesPointForward: the closure table is built in one
// reverse pass, which is exact only if every persists-before edge points
// forward in universe order. Every rule of Algorithm 2 implies
// happens-before, and recording order is a topological order of it.
func TestPersistOrderEdgesPointForward(t *testing.T) {
	persistCells(t, func(name string, g *Graph, uni []int, cfg PersistConfig) {
		po := NewPersistOrder(g, uni, cfg)
		for a, i := range uni {
			for _, j := range po.pb[a].Members() {
				if po.posOf[j] <= a {
					t.Fatalf("%s: persists-before edge %d -> %d points backward in universe order", name, i, j)
				}
				if !g.HB(i, j) {
					t.Fatalf("%s: %d persists-before %d without happening before it", name, i, j)
				}
			}
		}
	})
}

// TestPersistOrderClosureMatchesWorklist: for every ideal and every victim
// in it, closure ∩ front is the worklist closure confined to the front; with
// no front, the table is the unconfined closure.
func TestPersistOrderClosureMatchesWorklist(t *testing.T) {
	checked := 0
	persistCells(t, func(name string, g *Graph, uni []int, cfg PersistConfig) {
		po := NewPersistOrder(g, uni, cfg)
		for _, v := range uni {
			if got, want := po.DependsOn(v, nil), referenceDependsOn(po, v, nil); !got.Equal(want) {
				t.Fatalf("%s: DependsOn(%d, nil) = %v, worklist %v", name, v, got.Members(), want.Members())
			}
		}
		g.Ideals(uni, 0, func(front Bitset) bool {
			for _, v := range front.Members() {
				got, want := po.DependsOn(v, front), referenceDependsOn(po, v, front)
				if !got.Equal(want) {
					t.Fatalf("%s: DependsOn(%d, %v) = %v, worklist %v", name, v, front.Members(), got.Members(), want.Members())
				}
				checked++
			}
			return true
		})
	})
	if checked < 1000 {
		t.Fatalf("only %d (front, victim) pairs checked", checked)
	}
}

// TestPersistOrderSyncFeasibleMatchesReference: a keep set holding the
// front's Required mask and the coverage map it replaced agree on every
// front, for the normal state and for every single- and double-victim keep
// set the emulator would build.
func TestPersistOrderSyncFeasibleMatchesReference(t *testing.T) {
	infeasible := 0
	persistCells(t, func(name string, g *Graph, uni []int, cfg PersistConfig) {
		po := NewPersistOrder(g, uni, cfg)
		coveredBy := referenceCoveredBy(g, uni, cfg)
		var required Bitset
		g.Ideals(uni, 0, func(front Bitset) bool {
			required = po.Required(front, required)
			check := func(keep Bitset) {
				got, want := keep.ContainsAll(required), referenceSyncFeasible(coveredBy, front, keep)
				if got != want {
					t.Fatalf("%s: keep %v holds Required(%v) = %v: %v, reference %v", name, keep.Members(), front.Members(), required.Members(), got, want)
				}
				if !got {
					infeasible++
				}
			}
			check(front)
			members := front.Members()
			for _, v := range members {
				keep := front.Clone()
				keep.Subtract(po.DependsOn(v, front))
				check(keep)
				for _, v2 := range members {
					keep2 := keep.Clone()
					keep2.Subtract(po.DependsOn(v2, front))
					check(keep2)
				}
			}
			return true
		})
	})
	if infeasible == 0 {
		t.Fatal("no infeasible state probed; the comparison is vacuous")
	}
}

// TestPersistOrderIdealsDistinct: no two fronts from Ideals are equal, which
// is what lets the emulator forget a front's states at the next front.
func TestPersistOrderIdealsDistinct(t *testing.T) {
	persistCells(t, func(name string, g *Graph, uni []int, _ PersistConfig) {
		if name != "data" {
			return // fronts do not depend on the persistence machinery
		}
		seen := map[string]bool{}
		g.Ideals(uni, 0, func(front Bitset) bool {
			if seen[front.Key()] {
				t.Fatalf("front %v enumerated twice", front.Members())
			}
			seen[front.Key()] = true
			return true
		})
	})
}
