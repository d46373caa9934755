package paracrash

import (
	"context"
	"fmt"
	"testing"

	"paracrash/internal/causality"
	"paracrash/internal/obs"
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
	"paracrash/internal/vfs"
)

// buildLayerFixture constructs a trace with client-layer ops and lowermost
// descendants:
//
//	client/0: creat f (srv op 1) ; pwrite f (srv op 2) ; fsync f (srv sync) ;
//	          pwrite g (srv op 3) ; close f
func buildLayerFixture() (*causality.Graph, *LayerOps) {
	rec := trace.NewRecorder()
	client := func(name, file string, sync bool) *trace.Op {
		op := rec.Push(trace.Op{Layer: trace.LayerPFS, Proc: "client/0", Name: name, Path: file, FileID: file, Sync: sync})
		// Server-side work carries the explicit caller edge, as the RPC
		// plumbing does (call stacks are per-process).
		rec.Record(trace.Op{Layer: trace.LayerLocalFS, Proc: "srv/0", Name: name + "_low", FileID: file,
			Sync: sync, Parent: op.ID, Payload: vfs.Op{Kind: vfs.OpCreate, Path: file}})
		rec.Pop("client/0")
		return op
	}
	client("creat", "/f", false)
	client("pwrite", "/f", false)
	client("fsync", "/f", true)
	client("pwrite", "/g", false)
	// close has no storage footprint.
	rec.Record(trace.Op{Layer: trace.LayerPFS, Proc: "client/0", Name: "close", Path: "/f", FileID: "/f"})
	g := causality.Build(rec.Ops())
	return g, NewLayerOps(g, trace.LayerPFS, nil)
}

func fullFront(g *causality.Graph) causality.Bitset {
	front := causality.NewBitset(g.Len())
	for i, o := range g.Ops {
		if o.IsLowermost() && o.Payload != nil {
			front.Set(i)
		}
	}
	return front
}

func TestLayerOpsDescendants(t *testing.T) {
	g, lo := buildLayerFixture()
	if lo.Len() != 5 {
		t.Fatalf("layer ops = %d, want 5", lo.Len())
	}
	status := lo.StatusAgainst(fullFront(g))
	for i, st := range status {
		if st != StatusCompleted {
			t.Errorf("op %d status = %v, want completed", i, st)
		}
	}
	// A front missing the last lowermost op leaves its owner in-flight...
	front := fullFront(g)
	members := front.Members()
	front.Clear(members[len(members)-1])
	status = lo.StatusAgainst(front)
	if status[3] != StatusUnexecuted {
		t.Errorf("pwrite g should be unexecuted, got %v", status[3])
	}
	// ...while close (no footprint) stays completed.
	if status[4] != StatusCompleted {
		t.Errorf("close should be completed, got %v", status[4])
	}
}

func TestCommittedSet(t *testing.T) {
	g, lo := buildLayerFixture()
	status := lo.StatusAgainst(fullFront(g))
	committed := lo.rule(ModelCommit, status).required
	// creat f and pwrite f precede fsync f on the same file; pwrite g does
	// not.
	if committed&(1<<0) == 0 || committed&(1<<1) == 0 {
		t.Errorf("ops on /f before fsync must be committed: %b", committed)
	}
	if committed&(1<<3) != 0 {
		t.Error("pwrite g must not be committed")
	}
}

func TestClosedSet(t *testing.T) {
	g, lo := buildLayerFixture()
	status := lo.StatusAgainst(fullFront(g))
	closed := lo.rule(ModelBaseline, status).required
	// /f ends with a close: all its ops are required. /g stays open.
	for _, i := range []int{0, 1, 4} {
		if closed&(1<<i) == 0 {
			t.Errorf("op %d on closed /f must be required: %b", i, closed)
		}
	}
	if closed&(1<<3) != 0 {
		t.Error("op on open /g must not be required")
	}
}

func TestPreservedSetCounts(t *testing.T) {
	g, lo := buildLayerFixture()
	status := lo.StatusAgainst(fullFront(g))
	count := func(m Model) int {
		n := 0
		lo.PreservedSets(m, status, 0, func([]int) bool { n++; return true })
		return n
	}
	// Strict: everything completed is required — exactly one set.
	if n := count(ModelStrict); n != 1 {
		t.Errorf("strict sets = %d, want 1", n)
	}
	// Commit: ops 0,1 required; 2 (the fsync), 3, 4 free -> 2^3 = 8.
	if n := count(ModelCommit); n != 8 {
		t.Errorf("commit sets = %d, want 8", n)
	}
	// Causal: committed (0,1) required; the free ops chain under program
	// order (fsync <= pwrite g <= close), so the downward-closed choices
	// are the four prefixes of that chain.
	if n := count(ModelCausal); n != 4 {
		t.Errorf("causal sets = %d, want 4", n)
	}
	// Baseline: every op on the closed /f is required (including its
	// fsync); only pwrite g is free -> 2.
	if n := count(ModelBaseline); n != 2 {
		t.Errorf("baseline sets = %d, want 2", n)
	}
}

func TestPreservedSetsRespectLimit(t *testing.T) {
	g, lo := buildLayerFixture()
	status := lo.StatusAgainst(fullFront(g))
	n := 0
	lo.PreservedSets(ModelCommit, status, 3, func([]int) bool { n++; return true })
	if n != 3 {
		t.Fatalf("limit ignored: %d sets", n)
	}
}

// TestPreservedSetsCapped: the fixture's commit model has 8 sets. A limit
// below that is reported as capped; a limit the enumeration ends exactly at,
// or above it, is not.
func TestPreservedSetsCapped(t *testing.T) {
	g, lo := buildLayerFixture()
	status := lo.StatusAgainst(fullFront(g))
	for _, tc := range []struct {
		limit, want int
		capped      bool
	}{{7, 7, true}, {8, 8, false}, {9, 8, false}} {
		n := 0
		capped := lo.PreservedSets(ModelCommit, status, tc.limit, func([]int) bool { n++; return true })
		if n != tc.want || capped != tc.capped {
			t.Errorf("limit %d: %d sets, capped=%t; want %d, capped=%t", tc.limit, n, capped, tc.want, tc.capped)
		}
	}
}

// LegalCapCounts is exported to the external tests, which can build library
// cells. On the cell newCell builds, it finds the generated state whose
// front has the most preserved sets on layer ("pfs" or "lib") — n of them —
// and enumerates that front's legal set on a fresh session at
// MaxLegalStates n-1, n and n+1, returning the layer's capped counter and
// the set size after each.
func LegalCapCounts(newCell func() (pfs.FileSystem, Library, Workload), layer string) (n int, capped, sizes [3]int, err error) {
	open := func(limit int) (*session, *obs.Run, error) {
		fs, lib, w := newCell()
		opts := DefaultOptions()
		opts.MaxLegalStates = limit
		opts.Obs = obs.NewRun()
		s, err := prepare(context.Background(), fs, lib, w, opts)
		return s, opts.Obs, err
	}
	layerOps := func(s *session) (*LayerOps, Model) {
		if layer == "lib" {
			return s.libOps, s.opts.LibModel
		}
		return s.pfsOps, s.opts.PFSModel
	}
	s, _, err := open(0)
	if err != nil {
		return 0, capped, sizes, err
	}
	lo, model := layerOps(s)
	var widest CrashState
	s.emu.Generate(s.opts.emulatorConfig(), func(cs CrashState) bool {
		c := 0
		lo.PreservedSets(model, lo.StatusAgainst(cs.Front), 0, func([]int) bool { c++; return true })
		if c > n {
			n, widest = c, cs
		}
		return true
	})
	for i, limit := range []int{n - 1, n, n + 1} {
		s, r, err := open(limit)
		if err != nil {
			return n, capped, sizes, err
		}
		lo, _ := layerOps(s)
		status := lo.StatusAgainst(widest.Front)
		if layer == "lib" {
			sizes[i] = len(s.legalLib(status))
		} else {
			sizes[i] = len(s.legalPFS(status))
		}
		capped[i] = int(r.Summary().Counters["legal/"+layer+"-capped"])
	}
	return n, capped, sizes, nil
}

func TestCausalClosureEnforced(t *testing.T) {
	g, lo := buildLayerFixture()
	status := lo.StatusAgainst(fullFront(g))
	lo.PreservedSets(ModelCausal, status, 0, func(sel []int) bool {
		in := map[int]bool{}
		for _, s := range sel {
			in[s] = true
		}
		for _, j := range sel {
			for i := 0; i < lo.Len(); i++ {
				if lo.HB(i, j) && !in[i] {
					t.Errorf("causal set %v not downward closed (missing %d before %d)", sel, i, j)
				}
			}
		}
		return true
	})
	_ = g
}

func TestParseModel(t *testing.T) {
	for _, name := range []string{"strict", "commit", "causal", "baseline"} {
		m, err := ParseModel(name)
		if err != nil || m.String() != name {
			t.Errorf("ParseModel(%q) = %v, %v", name, m, err)
		}
	}
	if _, err := ParseModel("nope"); err == nil {
		t.Error("unknown model must error")
	}
}

func TestModeAndKindStrings(t *testing.T) {
	if ModeBrute.String() != "brute-force" || ModePruning.String() != "pruning" {
		t.Error("mode strings wrong")
	}
	if BugReordering.String() != "reordering" || BugAtomicity.String() != "atomicity" || BugUnknown.String() != "unknown" {
		t.Error("kind strings wrong")
	}
}

func ExampleModel_String() {
	fmt.Println(ModelCausal)
	// Output: causal
}
