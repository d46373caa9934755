package paracrash

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"paracrash/internal/causality"
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
	"paracrash/internal/vfs"
)

// This file keeps the four consistency models as the paper defines them
// (§4.4.2), written with plain loops and none of the rule/walk machinery,
// and holds PreservedSets to them set by set (`make legal`). The paper
// program half is exported to the external tests, which can build cells.

// definedSets returns the legal preserved sets of model m for the status
// vector straight from the definition: every subset S of the layer's ops
// such that
//
//   - S holds only executed (completed or in-flight) ops;
//   - S holds every required op: strict, every completed op; commit and
//     causal, every completed op that happens-before a completed sync op on
//     the same file; baseline, every completed op on a file whose last
//     completed op is a close;
//   - under strict and causal, S holds every executed op that
//     happens-before one of its ops.
//
// It tries all 2^n subsets for n ≤ 12. A larger layer tries only the
// subsets the first two clauses admit (the required ops plus any subset of
// the other executed ops) and filters those.
func definedSets(lo *LayerOps, m Model, status []Status) map[opSet]bool {
	n := lo.Len()
	executed := make([]bool, n)
	completed := make([]bool, n)
	for i, st := range status {
		executed[i] = st != StatusUnexecuted
		completed[i] = st == StatusCompleted
	}
	required := make([]bool, n)
	switch m {
	case ModelStrict:
		copy(required, completed)
	case ModelCommit, ModelCausal:
		for s, so := range lo.Ops {
			if !so.Sync || !completed[s] {
				continue
			}
			for i, o := range lo.Ops {
				if i != s && completed[i] && o.FileID != "" && o.FileID == so.FileID && lo.HB(i, s) {
					required[i] = true
				}
			}
		}
	case ModelBaseline:
		for _, f := range lo.Ops {
			last := -1
			for i, o := range lo.Ops {
				if completed[i] && o.FileID != "" && o.FileID == f.FileID {
					last = i
				}
			}
			if last < 0 || !strings.HasSuffix(strings.ToLower(lo.Ops[last].Name), "close") {
				continue
			}
			for i, o := range lo.Ops {
				if completed[i] && o.FileID == f.FileID {
					required[i] = true
				}
			}
		}
	}
	closed := m == ModelStrict || m == ModelCausal
	hb := make([][]bool, n)
	for i := range hb {
		hb[i] = make([]bool, n)
		for j := range hb[i] {
			hb[i][j] = lo.HB(i, j)
		}
	}
	has := func(s opSet, i int) bool { return s&(1<<i) != 0 }
	legal := func(s opSet) bool {
		for i := 0; i < n; i++ {
			if has(s, i) && !executed[i] || required[i] && !has(s, i) {
				return false
			}
			if !closed || !has(s, i) {
				continue
			}
			for p := 0; p < n; p++ {
				if executed[p] && hb[p][i] && !has(s, p) {
					return false
				}
			}
		}
		return true
	}
	out := map[opSet]bool{}
	if n <= 12 {
		for s := opSet(0); s < 1<<n; s++ {
			if legal(s) {
				out[s] = true
			}
		}
		return out
	}
	var req, free opSet
	for i := 0; i < n; i++ {
		if required[i] {
			req |= 1 << i
		} else if executed[i] {
			free |= 1 << i
		}
	}
	for t := free; ; t = (t - 1) & free { // every subset of free
		if legal(req | t) {
			out[req|t] = true
		}
		if t == 0 {
			return out
		}
	}
}

// enumerated collects what PreservedSets visits under the limit: the sets,
// how many visits there were and the capped flag.
func enumerated(lo *LayerOps, m Model, status []Status, limit int) (sets map[opSet]bool, visits int, capped bool) {
	sets = map[opSet]bool{}
	capped = lo.PreservedSets(m, status, limit, func(sel []int) bool {
		var s opSet
		for _, p := range sel {
			s |= 1 << p
		}
		sets[s] = true
		visits++
		return true
	})
	return sets, visits, capped
}

// modelDiffs holds PreservedSets to definedSets on one status vector under
// all four models, checks that limits N−1, N and N+1 (N: the model's set
// count) yield min(limit, N) sets with capped set exactly when the limit
// cut the enumeration, and checks that the legal sets nest: strict ⊆
// causal ⊆ commit and strict ⊆ baseline. It returns one line per
// difference.
func modelDiffs(lo *LayerOps, status []Status) (diffs []string) {
	got := map[Model]map[opSet]bool{}
	for _, m := range allModels {
		label := fmt.Sprintf("status %s, %s", statusKey(status), m)
		sets, visits, capped := enumerated(lo, m, status, 0)
		got[m] = sets
		if want := definedSets(lo, m, status); !maps.Equal(sets, want) || visits != len(sets) || capped {
			diffs = append(diffs, fmt.Sprintf("%s: PreservedSets visits %d (%d distinct, capped %t), the definition admits %d",
				label, visits, len(sets), capped, len(want)))
			continue
		}
		n := len(sets)
		for _, limit := range []int{n - 1, n, n + 1} {
			want, wantCapped := n, false
			if limit > 0 && limit < n {
				want, wantCapped = limit, true
			}
			if _, visits, capped := enumerated(lo, m, status, limit); visits != want || capped != wantCapped {
				diffs = append(diffs, fmt.Sprintf("%s, limit %d of %d: %d sets, capped %t; want %d, capped %t",
					label, limit, n, visits, capped, want, wantCapped))
			}
		}
	}
	for _, e := range [][2]Model{{ModelStrict, ModelCausal}, {ModelCausal, ModelCommit}, {ModelStrict, ModelBaseline}} {
		for s := range got[e[0]] {
			if !got[e[1]][s] {
				diffs = append(diffs, fmt.Sprintf("status %s: %s set %b is not a %s set", statusKey(status), e[0], s, e[1]))
				break
			}
		}
	}
	return diffs
}

// layerStatuses returns the distinct status vectors of lo against each of
// fronts, in key order.
func layerStatuses(lo *LayerOps, fronts []causality.Bitset) [][]Status {
	byKey := map[string][]Status{}
	for _, f := range fronts {
		st := lo.StatusAgainst(f)
		byKey[statusKey(st)] = st
	}
	keys := make([]string, 0, len(byKey))
	for key := range byKey {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	out := make([][]Status, len(keys))
	for i, key := range keys {
		out[i] = byKey[key]
	}
	return out
}

// ModelDefinitionOracle holds PreservedSets to the models' definitions
// (modelDiffs) on the cell newCell builds: every status vector of its PFS
// layer and, when it has one, its library layer, against the crash fronts
// Algorithm 1 generates at k = 1. It returns how many status vectors it
// checked and one line per difference.
func ModelDefinitionOracle(newCell func() (pfs.FileSystem, Library, Workload)) (checked int, diffs []string, err error) {
	fs, lib, w := newCell()
	s, err := prepare(context.Background(), fs, lib, w, DefaultOptions())
	if err != nil {
		return 0, nil, err
	}
	var fronts []causality.Bitset
	s.emu.Generate(s.opts.emulatorConfig(), func(cs CrashState) bool {
		fronts = append(fronts, cs.Front)
		return true
	})
	for _, lo := range []*LayerOps{s.pfsOps, s.libOps} {
		if lo == nil {
			continue
		}
		for _, status := range layerStatuses(lo, fronts) {
			checked++
			diffs = append(diffs, modelDiffs(lo, status)...)
		}
	}
	return checked, diffs, nil
}

// randomLayer records a seeded random trace of n PFS-layer ops: up to three
// client procs, file identities from a small pool (or none), syncs and
// closes, zero to two lowermost descendants per op (an op with none has no
// storage footprint), and send/receive pairs between clients that add
// cross-process happens-before edges.
func randomLayer(rng *rand.Rand, n int) (*causality.Graph, *LayerOps) {
	rec := trace.NewRecorder()
	files := []string{"", "/a", "/b", "/c"}
	procs := 1 + rng.Intn(3)
	client := func() string { return fmt.Sprintf("client/%d", rng.Intn(procs)) }
	for i := 0; i < n; i++ {
		proc, file := client(), files[rng.Intn(len(files))]
		op := trace.Op{Layer: trace.LayerPFS, Proc: proc, Name: "pwrite", FileID: file}
		switch rng.Intn(5) {
		case 0:
			op.Name, op.Sync = "fsync", true
		case 1:
			op.Name = "close"
		}
		parent := rec.Push(op)
		for d := rng.Intn(3); d > 0; d-- {
			rec.Record(trace.Op{Layer: trace.LayerLocalFS, Proc: fmt.Sprintf("srv/%d", rng.Intn(2)), Name: op.Name + "_low",
				FileID: file, Sync: op.Sync, Parent: parent.ID, Payload: vfs.Op{Kind: vfs.OpCreate, Path: file + "x"}})
		}
		rec.Pop(proc)
		if procs > 1 && rng.Intn(3) == 0 {
			msg := rec.NewMsgID()
			rec.Record(trace.Op{Layer: trace.LayerMPI, Proc: proc, Name: "send", MsgID: msg, IsSend: true})
			rec.Record(trace.Op{Layer: trace.LayerMPI, Proc: client(), Name: "recv", MsgID: msg})
		}
	}
	g := causality.Build(rec.Ops())
	return g, NewLayerOps(g, trace.LayerPFS, nil)
}

// TestModelDefinitionRandom (`make legal`) holds PreservedSets to the
// definitions, capped or not, and checks the set-level lattice on seeded
// random layers of 1–12 ops, against the empty and the full front and
// random ones in between.
func TestModelDefinitionRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	checked := 0
	for seed := 0; seed < 200; seed++ {
		g, lo := randomLayer(rng, 1+seed%12)
		fronts := []causality.Bitset{causality.NewBitset(g.Len()), fullFront(g)}
		for f := 0; f < 8; f++ {
			front := causality.NewBitset(g.Len())
			for i, o := range g.Ops {
				if o.IsLowermost() && rng.Intn(2) == 0 {
					front.Set(i)
				}
			}
			fronts = append(fronts, front)
		}
		for _, status := range layerStatuses(lo, fronts) {
			checked++
			for _, d := range modelDiffs(lo, status) {
				t.Errorf("layer %d (%d ops): %s", seed, lo.Len(), d)
			}
		}
	}
	t.Logf("%d status vectors checked", checked)
}
