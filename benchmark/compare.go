package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Verdicts of compare, per workload and end-to-end metric.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// classify compares the runs of a change (b) with the runs of its base (a)
// for one metric. Worse: b's median is worse than a's by more than bound.
// Unresolved: either side's quartile spread is wider than bound, so the
// bound cannot be read off these runs — unless every run of b beats every
// run of a. Better: b's median beats a's by more than the spread of a's own
// runs. Otherwise the metric is within its bound.
func classify(a, b []float64, better string, bound float64) string {
	sign := 1.0 // lower is better: positive delta is worse
	if better == higher {
		sign = -1
	}
	da, db := summarize(a), summarize(b)
	delta := sign * (db.Median - da.Median) / da.Median
	if delta > bound {
		return verdictWorse
	}
	allBetter := sign*(db.Max-da.Min) < 0 && sign*(db.Min-da.Max) < 0
	if spread(da) > bound || spread(db) > bound {
		if allBetter {
			return verdictBetter
		}
		return verdictUnresolved
	}
	if -delta > spread(da) && delta < 0 {
		return verdictBetter
	}
	return verdictWithin
}

// spread is the distance between the quartiles as a share of the median.
func spread(d dist) float64 { return ratio(d.Q3-d.Q1, d.Median) }

// resultSet is the untraced runs of one directory, by workload.
type resultSet struct {
	values map[string]map[string][]float64 // workload -> metric -> one value per run
	failed int
	runs   int
}

func readResultSet(dir string) (*resultSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	set := &resultSet{values: map[string]map[string][]float64{}}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil || r.Workload == "" || r.Trace {
			continue // spans, traced runs and foreign files are not compared
		}
		set.runs++
		set.failed += r.Failed
		if !r.Correct && r.Failed == 0 {
			set.failed++
		}
		if set.values[r.Workload] == nil {
			set.values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			set.values[r.Workload][name] = append(set.values[r.Workload][name], m.Value)
		}
	}
	if set.runs == 0 {
		return nil, fmt.Errorf("%s holds no untraced result files", dir)
	}
	return set, nil
}

// compareMain prints one row per workload and end-to-end metric and returns
// the exit code: 1 on any "worse" or any failed operation, 2 on bad input.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare BASE_DIR CHANGE_DIR")
		return 2
	}
	a, err := readResultSet(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	b, err := readResultSet(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	return compareSets(a, b)
}

func compareSets(a, b *resultSet) int {
	code := 0
	fmt.Printf("%-14s %-13s %12s %25s %12s %25s %8s %6s  %s\n", "workload", "metric",
		"base median", "base q1..q3", "new median", "new q1..q3", "new/base", "bound", "verdict")
	var names []string
	for w := range a.values {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		for _, def := range endToEnd {
			av, bv := a.values[w][def.Name], b.values[w][def.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			da, db := summarize(av), summarize(bv)
			verdict := classify(av, bv, def.Better, def.Bound)
			if verdict == verdictWorse {
				code = 1
			}
			fmt.Printf("%-14s %-13s %12.4f %25s %12.4f %25s %8.3f %6.2f  %s\n", w, def.Name,
				da.Median, fmt.Sprintf("%.4f..%.4f", da.Q1, da.Q3), db.Median, fmt.Sprintf("%.4f..%.4f", db.Q1, db.Q3),
				db.Median/da.Median, def.Bound, verdict)
		}
	}
	fmt.Printf("failed operations: base %d in %d runs, new %d in %d runs\n", a.failed, a.runs, b.failed, b.runs)
	if a.failed > 0 || b.failed > 0 {
		code = 1
	}
	return code
}
