package causality

import (
	"math/rand"
	"testing"
	"testing/quick"

	"paracrash/internal/vfs"
)

// TestQuickPreservedSetsDownwardClosed is the invariant the crash emulator
// relies on: starting from any consistent cut (ideal) and dropping a victim
// together with everything that depends on it (DependsOn), the surviving
// "keep" set is downward closed under persists-before — no op survives while
// an op that must persist before it is lost.
func TestQuickPreservedSetsDownwardClosed(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(7)
		ops := randomDAGOps(r, n)
		for _, o := range ops {
			o.FileID = []string{"f", "g"}[r.Intn(2)]
			o.Meta = r.Intn(2) == 0
			if r.Intn(6) == 0 {
				o.Sync = true
				o.Meta = true
			}
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

		ok := true
		g.Ideals(uni, 0, func(front Bitset) bool {
			// Every front must itself be downward closed under HB.
			if !downwardClosed(g, front, uni) {
				ok = false
				return false
			}
			// Drop each member as the victim and check the survivors.
			for _, v := range front.Members() {
				keep := front.Clone()
				keep.Subtract(po.DependsOn(v, front))
				for _, j := range keep.Members() {
					for _, i := range front.Members() {
						if po.PersistsBefore(i, j) && !keep.Get(i) {
							ok = false
							return false
						}
					}
				}
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestIdealsEnumerationDeterministic pins down the property the parallel
// exploration engine builds on: enumerating the consistent cuts of the same
// graph twice yields the same fronts in the same order, so a sharded run
// partitions exactly the state list a serial run visits.
func TestIdealsEnumerationDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		n := 4 + r.Intn(8)
		ops := randomDAGOps(r, n)
		g := Build(ops)
		uni := make([]int, n)
		for i := range uni {
			uni[i] = i
		}
		collect := func() []string {
			var keys []string
			g.Ideals(uni, 0, func(b Bitset) bool {
				keys = append(keys, b.Key())
				return true
			})
			return keys
		}
		first, second := collect(), collect()
		if len(first) != len(second) {
			t.Fatalf("round %d: %d ideals vs %d on re-enumeration", round, len(first), len(second))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("round %d: ideal %d differs between enumerations", round, i)
			}
		}
		// The relation itself must also rebuild identically.
		po1 := NewPersistOrder(g, uni, PersistConfig{Journal: map[string]vfs.JournalMode{
			"a": vfs.JournalData, "b": vfs.JournalData, "c": vfs.JournalData,
		}})
		po2 := NewPersistOrder(g, uni, PersistConfig{Journal: map[string]vfs.JournalMode{
			"a": vfs.JournalData, "b": vfs.JournalData, "c": vfs.JournalData,
		}})
		for _, i := range uni {
			for _, j := range uni {
				if po1.PersistsBefore(i, j) != po2.PersistsBefore(i, j) {
					t.Fatalf("round %d: PersistsBefore(%d,%d) differs between builds", round, i, j)
				}
			}
		}
	}
}
