package paracrash

import (
	"context"
	"fmt"
	"maps"
	"testing"

	"paracrash/internal/obs"
	"paracrash/internal/pfs"
	"paracrash/internal/pfs/beegfs"
	"paracrash/internal/trace"
)

// TestLegalPFSTrieAtCap: the replay trie holds snapshots on at most
// maxLegalSnaps nodes. A brute-force walk over the rename workload's k = 2
// states starts with filler snapshots that bring the trie to one below the
// cap, exactly to it, one past it and far past it by the walk's end. Every
// fill must build the same legal sets and judge every state as the
// unfilled walk does, with equal Stats (restores included: a miss restores
// every server wherever it starts), and the trie never holds more than the
// cap; past the cap the dropped snapshots cost replay steps.
func TestLegalPFSTrieAtCap(t *testing.T) {
	type walk struct {
		sets     map[legalKey]map[string]bool
		verdicts map[string]Verdict
		stats    Stats
		steps    int64
		held     int
	}
	run := func(fill int) walk {
		t.Helper()
		r := obs.NewRun()
		opts := DefaultOptions()
		opts.Mode = ModeBrute
		opts.Emulator.K = 2
		opts.Obs = r
		s, err := prepare(context.Background(), beegfs.New(pfs.DefaultConfig(), trace.NewRecorder()), nil, renameWorkload{files: 2}, opts)
		if err != nil {
			t.Fatal(err)
		}
		tr := &s.legal.pfs
		for i := 0; i < fill; i++ {
			tr.child[rootEdge{0, -1 - i}] = len(tr.nodes)
			tr.nodes = append(tr.nodes, pfsNode{snaps: tr.nodes[0].snaps})
			tr.held++
		}
		w := walk{verdicts: map[string]Verdict{}}
		for i, cs := range s.generate() {
			res := s.check(cs)
			s.countVisit(res)
			w.verdicts[stateKey(cs)] = res
			if tr.held > maxLegalSnaps {
				t.Fatalf("fill %d, state %d: %d nodes hold snapshots, cap %d", fill, i, tr.held, maxLegalSnaps)
			}
		}
		w.sets, w.stats, w.held = s.legal.sets, s.stats, tr.held-fill
		w.steps = r.Summary().Counters["legal/pfs-steps"]
		return w
	}
	want := run(0)
	d := want.held
	if d < 8 || len(want.sets) < 2 {
		t.Fatalf("%d snapshot nodes, %d legal sets: the walk is too small to cross the cap", d, len(want.sets))
	}
	t.Logf("unfilled walk: %d snapshot nodes, %d replay steps", d, want.steps)
	for _, fill := range []int{maxLegalSnaps - d - 1, maxLegalSnaps - d, maxLegalSnaps - d + 1, maxLegalSnaps - d/2} {
		got := run(fill)
		if !maps.EqualFunc(got.sets, want.sets, maps.Equal) {
			t.Errorf("fill %d: legal sets differ from the unfilled walk's", fill)
		}
		if !maps.Equal(got.verdicts, want.verdicts) {
			t.Errorf("fill %d: verdicts differ from the unfilled walk's", fill)
		}
		if got.stats != want.stats {
			t.Errorf("fill %d: stats %+v, unfilled walk %+v", fill, got.stats, want.stats)
		}
		if past := fill > maxLegalSnaps-d; past != (got.steps > want.steps) {
			t.Errorf("fill %d: %d replay steps, unfilled walk %d", fill, got.steps, want.steps)
		}
	}
}

// MaxLibReplays is maxLibReplays, for the external table-at-cap test.
const MaxLibReplays = maxLibReplays

// LibTableRun is one run of RunLibTableFilled: its report, the legal sets
// it enumerated, the library replay table's size at the end (fillers
// included; the table only grows, so that is its largest size) and the
// legal/lib-steps and legal/lib-parses it counted.
type LibTableRun struct {
	Report        *Report
	Sets          map[string]map[string]bool // layer|status -> legal set
	Edges, Leaves int
	Steps, Parses int64
}

// RunLibTableFilled explores the cell newCell builds under opts after
// filling its library replay table with edges transitions and leaves
// legal leaves that no replay state reaches (their digests are not
// SHA-256 sums). The walk is the engine's own (explore), so the report is
// what Run returns on a table that starts that full.
func RunLibTableFilled(newCell func() (pfs.FileSystem, Library, Workload), opts Options, edges, leaves int) (LibTableRun, error) {
	fs, lib, w := newCell()
	r := obs.NewRun()
	opts.Obs = r
	s, err := prepare(context.Background(), fs, lib, w, opts)
	if err != nil {
		return LibTableRun{}, err
	}
	t := &s.legal.lib
	for i := 0; i < edges; i++ {
		t.next[libEdge{"filler", i}] = nil
	}
	for i := 0; i < leaves; i++ {
		t.leaves[fmt.Sprintf("filler %d", i)] = libLeaf{}
	}
	var run LibTableRun
	rep, err := s.explore(nil, nil)
	if err != nil {
		return run, err
	}
	c := r.Summary().Counters
	run = LibTableRun{Report: rep, Sets: map[string]map[string]bool{},
		Edges: len(t.next), Leaves: len(t.leaves),
		Steps: c["legal/lib-steps"], Parses: c["legal/lib-parses"]}
	for k, set := range s.legal.sets {
		run.Sets[k.layer+"|"+k.status] = set
	}
	return run, nil
}
