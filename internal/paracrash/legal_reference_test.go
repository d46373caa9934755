package paracrash

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"testing"

	"paracrash/internal/obs"
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
)

// This file keeps the from-scratch library legal-state enumeration that
// legalLib's walk replaced — PreservedSets, then Library.Replay of every
// preserved set on the seeded image — as the walk's oracle (`make legal`).
// The helpers are exported to the external tests, which can build library
// cells.

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
				s.bindObs(r, "")
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
		s.bindObs(r, "")
		b.StartTimer()
		for _, status := range statuses {
			s.legalLib(status)
		}
	}
	c := r.Summary().Counters
	for _, name := range []string{"legal/lib-sets", "legal/lib-replayed", "legal/lib-steps"} {
		b.ReportMetric(float64(c[name])/float64(b.N), name[len("legal/"):]+"/op")
	}
}
