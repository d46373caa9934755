package paracrash

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"paracrash/internal/causality"
	"paracrash/internal/obs"
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
)

// This file keeps the from-scratch legal-state enumerations that the
// engine's delta replays replaced, as their oracles (`make legal`): for the
// library, PreservedSets then Library.Replay of every preserved set on the
// seeded image, against legalLib's walk; for the PFS, PreservedSets then a
// replay of every preserved set's client ops on the restored initial
// snapshot, against legalPFS's prefix trie. The helpers are exported to the
// external tests, which can build cells.

var allModels = []Model{ModelStrict, ModelCommit, ModelCausal, ModelBaseline}

// libStatuses prepares the cell newCell builds and returns its session with
// every distinct library status vector of the crash states Algorithm 1
// generates at k = 1 and k = 2, in key order.
func libStatuses(newCell func() (pfs.FileSystem, Library, Workload)) (*session, [][]Status, error) {
	fs, lib, w := newCell()
	s, err := prepare(context.Background(), fs, lib, w, DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	byKey := map[string][]Status{}
	for _, k := range []int{1, 2} {
		cfg := s.opts.emulatorConfig()
		cfg.K = k
		s.emu.Generate(cfg, func(cs CrashState) bool {
			st := s.libOps.StatusAgainst(cs.Front)
			byKey[statusKey(st)] = st
			return true
		})
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
	return s, out, nil
}

// LegalLibOracle holds legalLib to the from-scratch enumeration on the cell
// newCell builds: for every library status vector its crash states reach
// (libStatuses), under each of the four models, at MaxLegalStates n−1, n
// and n+1 (n: the vector's preserved-set count under the model), the legal
// set, the legal/lib-capped counter and the legal/lib-sets counter must
// equal the reference's set, capped flag and set count. It returns how many
// enumerations it compared and one line per difference.
func LegalLibOracle(newCell func() (pfs.FileSystem, Library, Workload)) (compared int, diffs []string, err error) {
	s, statuses, err := libStatuses(newCell)
	if err != nil {
		return 0, nil, err
	}
	replays := map[string]string{} // Replay is a pure function of the set
	reference := func(m Model, status []Status, limit int) (set map[string]bool, n int, capped bool) {
		set = map[string]bool{}
		capped = s.libOps.PreservedSets(m, status, limit, func(sel []int) bool {
			n++
			key := intsKey(sel)
			st, ok := replays[key]
			if !ok {
				ops := make([]*trace.Op, len(sel))
				for i, pos := range sel {
					ops[i] = s.libOps.Ops[pos]
				}
				st, _ = s.lib.Replay(ops)
				replays[key] = st
			}
			set[st] = true
			return true
		})
		return set, n, capped
	}
	for _, status := range statuses {
		for _, m := range allModels {
			_, n, _ := reference(m, status, 0)
			for _, limit := range []int{n - 1, n, n + 1} {
				want, wantN, wantCapped := reference(m, status, limit)
				r := obs.NewRun()
				s.bindObs(r)
				s.legal = newLegalCache()
				s.opts.LibModel, s.opts.MaxLegalStates = m, limit
				got := s.legalLib(status)
				c := r.Summary().Counters
				compared++
				label := fmt.Sprintf("status %s, %s, cap %d (n=%d)", statusKey(status), m, limit, n)
				if !maps.Equal(got, want) {
					diffs = append(diffs, fmt.Sprintf("%s: walk found %d legal states, reference %d", label, len(got), len(want)))
				}
				if gotCapped := c["legal/lib-capped"] == 1; gotCapped != wantCapped {
					diffs = append(diffs, fmt.Sprintf("%s: capped %t, reference %t", label, gotCapped, wantCapped))
				}
				if c["legal/lib-sets"] != int64(wantN) {
					diffs = append(diffs, fmt.Sprintf("%s: legal/lib-sets %d, PreservedSets yields %d", label, c["legal/lib-sets"], wantN))
				}
				if c["legal/lib-replayed"] > c["legal/lib-sets"] {
					diffs = append(diffs, fmt.Sprintf("%s: %d leaves replayed of %d sets", label, c["legal/lib-replayed"], c["legal/lib-sets"]))
				}
			}
		}
	}
	return compared, diffs, nil
}

// BenchLegalLib times legalLib over every library status vector of the
// cell newCell builds, on a freshly prepared session (and so a fresh legal
// cache and parse memo) per iteration, and reports the walk's counters per
// iteration.
func BenchLegalLib(b *testing.B, newCell func() (pfs.FileSystem, Library, Workload)) {
	_, statuses, err := libStatuses(newCell)
	if err != nil {
		b.Fatal(err)
	}
	r := obs.NewRun()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fs, lib, w := newCell()
		s, err := prepare(context.Background(), fs, lib, w, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		s.bindObs(r)
		b.StartTimer()
		for _, status := range statuses {
			s.legalLib(status)
		}
	}
	c := r.Summary().Counters
	for _, name := range []string{"legal/lib-sets", "legal/lib-replayed", "legal/lib-parses", "legal/lib-steps"} {
		b.ReportMetric(float64(c[name])/float64(b.N), name[len("legal/"):]+"/op")
	}
}

// intsKey names a selection of layer ops.
func intsKey(sel []int) string {
	var b strings.Builder
	for _, v := range sel {
		fmt.Fprintf(&b, "%d,", v)
	}
	return b.String()
}

// pfsStatuses prepares the cell newCell builds and returns its session with
// every distinct PFS status vector of the crash states Algorithm 1
// generates at k = 1 and k = 2, in key order.
func pfsStatuses(newCell func() (pfs.FileSystem, Library, Workload)) (*session, [][]Status, error) {
	fs, lib, w := newCell()
	s, err := prepare(context.Background(), fs, lib, w, DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	var fronts []causality.Bitset
	for _, k := range []int{1, 2} {
		cfg := s.opts.emulatorConfig()
		cfg.K = k
		s.emu.Generate(cfg, func(cs CrashState) bool {
			fronts = append(fronts, cs.Front)
			return true
		})
	}
	return s, layerStatuses(s.pfsOps, fronts), nil
}

// replayPFSReference is the from-scratch replay legalPFS's trie replaced:
// restore every server from the initial snapshot, replay every op of sel
// through the client path (a failed op is lost), then mount and serialise.
func replayPFSReference(s *session, sel []int) string {
	s.fs.Recorder().SetEnabled(false)
	s.fs.Restore(s.initial)
	for _, pos := range sel {
		op := s.pfsOps.Ops[pos]
		c, err := s.client(op.Proc)
		if err != nil {
			panic(err)
		}
		_ = pfs.ReplayClientOp(c, op)
	}
	tree, err := s.fs.Mount()
	if err != nil {
		return "UNMOUNTABLE"
	}
	return tree.Serialize()
}

// PFSOracleWork is what LegalPFSOracle compared: distinct enumerations,
// and the client ops the from-scratch reference replayed in them against
// the legal/pfs-steps the trie replayed.
type PFSOracleWork struct{ Compared, ReferenceOps, Steps int }

// LegalPFSOracle holds legalPFS to the from-scratch enumeration on the cell
// newCell builds: for every PFS status vector its crash states reach
// (pfsStatuses), under each of the four models, at MaxLegalStates n−1, n
// and n+1 (n: the vector's preserved-set count under the model), each on a
// fresh legal cache, the legal set, the legal/pfs-capped counter and the
// restores/legal counter must equal the reference's set, capped flag and
// restores (every server once per selection). Under the trie's snapshot
// cap, legal/pfs-steps must equal the number of distinct non-empty
// prefixes of the selections, each replayed once, so it is strictly below
// the reference's op replays whenever two selections share a prefix. What
// the trie does on a fresh cache is a function of the selections it is
// handed, in order, and of whether the enumeration was capped, so an
// enumeration repeating one compared before (cap n+1 repeats cap n; models
// often admit the same sets) is not compared again. It returns the work
// compared and one line per difference.
func LegalPFSOracle(newCell func() (pfs.FileSystem, Library, Workload)) (work PFSOracleWork, diffs []string, err error) {
	s, statuses, err := pfsStatuses(newCell)
	if err != nil {
		return work, nil, err
	}
	procs := len(s.fs.Procs())
	replays := map[string]string{} // the reference replay is a pure function of the set
	type enumeration struct {
		set              map[string]bool
		n, ops, prefixes int
		capped           bool
		seq              string // the selections in order, then the capped flag
	}
	reference := func(m Model, status []Status, limit int) (e enumeration) {
		e.set = map[string]bool{}
		prefixes := map[string]bool{}
		var seq strings.Builder
		e.capped = s.pfsOps.PreservedSets(m, status, limit, func(sel []int) bool {
			e.n++
			e.ops += len(sel)
			for i := 1; i <= len(sel); i++ {
				prefixes[intsKey(sel[:i])] = true
			}
			key := intsKey(sel)
			seq.WriteString(key + ";")
			st, ok := replays[key]
			if !ok {
				st = replayPFSReference(s, sel)
				replays[key] = st
			}
			e.set[st] = true
			return true
		})
		e.prefixes = len(prefixes)
		e.seq = fmt.Sprint(seq.String(), e.capped)
		return e
	}
	compared := map[string]bool{}
	for _, status := range statuses {
		for _, m := range allModels {
			n := reference(m, status, 0).n
			for _, limit := range []int{n - 1, n, n + 1} {
				want := reference(m, status, limit)
				if compared[want.seq] {
					continue
				}
				compared[want.seq] = true
				r := obs.NewRun()
				s.bindObs(r)
				s.legal = newLegalCache()
				s.opts.PFSModel, s.opts.MaxLegalStates = m, limit
				got := s.legalPFS(status)
				c := r.Summary().Counters
				work.Compared++
				work.ReferenceOps += want.ops
				work.Steps += int(c["legal/pfs-steps"])
				label := fmt.Sprintf("status %s, %s, cap %d (n=%d)", statusKey(status), m, limit, n)
				if !maps.Equal(got, want.set) {
					diffs = append(diffs, fmt.Sprintf("%s: trie found %d legal states, reference %d", label, len(got), len(want.set)))
				}
				if gotCapped := c["legal/pfs-capped"] == 1; gotCapped != want.capped {
					diffs = append(diffs, fmt.Sprintf("%s: capped %t, reference %t", label, gotCapped, want.capped))
				}
				if c["restores/legal"] != int64(want.n*procs) {
					diffs = append(diffs, fmt.Sprintf("%s: restores/legal %d, reference %d", label, c["restores/legal"], want.n*procs))
				}
				// Under its cap the trie replays each distinct prefix once;
				// past it, a dropped snapshot costs its prefix again, but
				// never more than from scratch, and a shared prefix still
				// saves.
				steps := int(c["legal/pfs-steps"])
				if want.prefixes <= maxLegalSnaps && steps != want.prefixes || steps > want.ops || want.prefixes < want.ops && steps >= want.ops {
					diffs = append(diffs, fmt.Sprintf("%s: legal/pfs-steps %d for %d distinct prefixes, reference replayed %d ops", label, steps, want.prefixes, want.ops))
				}
			}
		}
	}
	return work, diffs, nil
}

// LegalLibSharedOracle holds legalLib to the from-scratch enumeration when
// every library status vector of the cell newCell builds (libStatuses) is
// enumerated on one library replay table, once per model. Every transition
// and every leaf must be computed once across the vectors and models:
// legal/lib-steps and legal/lib-parses must equal the table's entries,
// which stay within maxLibReplays. It returns how many sets it compared and
// one line per difference.
func LegalLibSharedOracle(newCell func() (pfs.FileSystem, Library, Workload)) (compared int, diffs []string, err error) {
	s, statuses, err := libStatuses(newCell)
	if err != nil {
		return 0, nil, err
	}
	r := obs.NewRun()
	s.bindObs(r)
	for _, m := range allModels {
		// The run's set cache is keyed by status vector alone (a run has
		// one model), so each model starts without sets but on the table
		// the models before it grew.
		s.legal.sets = map[legalKey]map[string]bool{}
		s.opts.LibModel = m
		for _, status := range statuses {
			got := s.legalLib(status)
			want := map[string]bool{}
			s.libOps.PreservedSets(m, status, s.opts.MaxLegalStates, func(sel []int) bool {
				ops := make([]*trace.Op, len(sel))
				for i, pos := range sel {
					ops[i] = s.libOps.Ops[pos]
				}
				st, _ := s.lib.Replay(ops)
				want[st] = true
				return true
			})
			compared++
			if !maps.Equal(got, want) {
				diffs = append(diffs, fmt.Sprintf("status %s, %s: %d legal states, reference %d", statusKey(status), m, len(got), len(want)))
			}
		}
	}
	c := r.Summary().Counters
	t := &s.legal.lib
	if len(t.next) > maxLibReplays || len(t.leaves) > maxLibReplays {
		diffs = append(diffs, fmt.Sprintf("table holds %d transitions and %d leaves, cap %d", len(t.next), len(t.leaves), maxLibReplays))
	}
	if steps := c["legal/lib-steps"]; len(t.next) < maxLibReplays && steps != int64(len(t.next)) {
		diffs = append(diffs, fmt.Sprintf("%d library ops applied for %d distinct transitions", steps, len(t.next)))
	}
	if parses := c["legal/lib-parses"]; len(t.leaves) < maxLibReplays && parses != int64(len(t.leaves)) {
		diffs = append(diffs, fmt.Sprintf("%d leaves parsed for %d distinct leaf digests", parses, len(t.leaves)))
	}
	return compared, diffs, nil
}
