// Command benchdiff compares a freshly written BENCH_*.json against a
// baseline (by default the latest previously committed one) and reports
// cells whose throughput regressed beyond a tolerance. It has two modes:
//
//   - Default (warn-only): regressions print as "WARN:" lines and the exit
//     status is always 0 — the historical `make bench` tripwire.
//   - Gate (-gate): regressions are violations and the exit status is 1.
//     This is the enforced perf budget behind `make benchgate`: a cell
//     whose states_per_sec drops, or whose restores_per_state rises, by
//     more than -max-regress fails the build.
//
// Usage:
//
//	go run ./internal/tools/benchdiff [-gate] [-max-regress 0.20] \
//	    [-baseline OLD.json] [-subset] [-dir .] NEW_BENCH.json
//
// Cells are matched by (program, fs, mode, workers, representative).
// Records of the retired full-restore engine — an explicit
// "incremental": false in files written before the engine became the only
// one — are ignored on either side. In gate mode a baseline cell missing from the new run is a
// violation — unless -subset declares the new run as an intentional subset
// (the fast benchgate cell set), in which case only cells present on both
// sides are compared. New cells are never violations: the trajectory
// legitimately grows. Exit codes: 0 pass, 1 gate violation, 2 usage or I/O
// error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchRecord mirrors the exps.BenchRecord fields benchdiff matches and
// compares on; decoding only these keeps the tool independent of the full
// record shape.
type benchRecord struct {
	Program          string  `json:"program"`
	FS               string  `json:"fs"`
	Mode             string  `json:"mode"`
	Workers          int     `json:"workers"`
	Representative   bool    `json:"representative"`
	Incremental      *bool   `json:"incremental"` // retired knob; nil in current files
	StatesPerSec     float64 `json:"states_per_sec"`
	RestoresPerState float64 `json:"restores_per_state"`
	Err              string  `json:"error"`
}

// fleetRecord mirrors the exps.FleetBenchRecord fields benchdiff compares
// on: the cell identity (fleet shape) and the headline throughput.
type fleetRecord struct {
	Workers    int     `json:"workers"`
	Tenants    int     `json:"tenants"`
	Shards     int     `json:"shards"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	Err        string  `json:"error"`
}

// benchSummary mirrors the BENCH_*.json document envelope.
type benchSummary struct {
	Records []benchRecord `json:"records"`
	Fleet   *fleetRecord  `json:"fleet"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment abstracted: argv after the program
// name, the two output streams, and the exit code as the return value.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var maxRegress float64
	fs.Float64Var(&maxRegress, "max-regress", 0.20, "relative regression that triggers a warning or gate violation")
	fs.Float64Var(&maxRegress, "threshold", 0.20, "alias for -max-regress")
	dir := fs.String("dir", ".", "directory holding the committed BENCH_*.json trajectory")
	gate := fs.Bool("gate", false, "enforce: exit 1 on any regression beyond -max-regress")
	baseline := fs.String("baseline", "", "compare against this file instead of the latest BENCH_*.json in -dir")
	subset := fs.String("subset", "", "declare the new run as an intentional cell subset (e.g. \"fast\"): baseline cells it omits are not violations")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: benchdiff [-gate] [-max-regress 0.20] [-baseline OLD.json] [-subset NAME] [-dir .] NEW_BENCH.json")
		return 2
	}
	if maxRegress < 0 {
		fmt.Fprintf(stderr, "benchdiff: -max-regress must be >= 0, got %g\n", maxRegress)
		return 2
	}
	newPath := fs.Arg(0)

	prevPath := *baseline
	if prevPath == "" {
		var err error
		prevPath, err = latestOther(*dir, newPath)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 2
		}
		if prevPath == "" {
			fmt.Fprintf(stdout, "benchdiff: no previous BENCH_*.json in %s; nothing to compare\n", *dir)
			return 0
		}
	}

	prev, prevFleet, err := load(prevPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	cur, curFleet, err := load(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}

	mode := "warn"
	if *gate {
		mode = "gate"
	}
	fmt.Fprintf(stdout, "benchdiff: %s vs %s (%s, tolerance %.0f%%)\n", filepath.Base(newPath), filepath.Base(prevPath), mode, maxRegress*100)

	// Deterministic report order regardless of map iteration.
	keys := make([]string, 0, len(prev))
	for key := range prev {
		keys = append(keys, key)
	}
	sort.Strings(keys)

	violations := 0
	report := func(format string, args ...any) {
		prefix := "WARN"
		if *gate {
			prefix = "FAIL"
		}
		fmt.Fprintf(stdout, prefix+": "+format+"\n", args...)
		violations++
	}
	for _, key := range keys {
		p := prev[key]
		c, ok := cur[key]
		if !ok {
			if *subset != "" {
				fmt.Fprintf(stdout, "note: cell %s not in the %q subset\n", key, *subset)
			} else if *gate {
				report("cell %s missing from the new run", key)
			} else {
				fmt.Fprintf(stdout, "note: cell %s dropped from the trajectory\n", key)
			}
			continue
		}
		if p.Err != "" {
			continue
		}
		if c.Err != "" {
			if *gate {
				report("cell %s now errors: %s", key, c.Err)
			}
			continue
		}
		if p.StatesPerSec > 0 {
			rel := (c.StatesPerSec - p.StatesPerSec) / p.StatesPerSec
			if rel < -maxRegress {
				report("%s states_per_sec %.0f -> %.0f (%.0f%%)", key, p.StatesPerSec, c.StatesPerSec, rel*100)
			}
		}
		// restores_per_state is an efficiency budget: more restores charged
		// per covered state means the O(delta) reconstruction got lazier, so
		// an *increase* beyond tolerance is the violation.
		if p.RestoresPerState > 0 {
			rel := (c.RestoresPerState - p.RestoresPerState) / p.RestoresPerState
			if rel > maxRegress {
				report("%s restores_per_state %.3f -> %.3f (+%.0f%%)", key, p.RestoresPerState, c.RestoresPerState, rel*100)
			}
		}
	}
	curKeys := make([]string, 0, len(cur))
	for key := range cur {
		if _, ok := prev[key]; !ok {
			curKeys = append(curKeys, key)
		}
	}
	sort.Strings(curKeys)
	for _, key := range curKeys {
		fmt.Fprintf(stdout, "note: new cell %s\n", key)
	}

	// The fleet throughput cell. Tolerant of history: a baseline predating
	// the cell, or a reshaped fleet (different workers/tenants/shards), is
	// a note, never a violation — only a same-shape jobs/sec drop beyond
	// the tolerance counts.
	switch {
	case prevFleet == nil && curFleet == nil:
	case prevFleet == nil:
		fmt.Fprintf(stdout, "note: new fleet cell (%dw/%dt/%ds, %.1f jobs/sec)\n",
			curFleet.Workers, curFleet.Tenants, curFleet.Shards, curFleet.JobsPerSec)
	case curFleet == nil:
		if *gate {
			report("fleet cell missing from the new run")
		} else {
			fmt.Fprintln(stdout, "note: fleet cell dropped from the trajectory")
		}
	case prevFleet.Err != "":
	case curFleet.Err != "":
		if *gate {
			report("fleet cell now errors: %s", curFleet.Err)
		}
	case prevFleet.Workers != curFleet.Workers || prevFleet.Tenants != curFleet.Tenants || prevFleet.Shards != curFleet.Shards:
		fmt.Fprintf(stdout, "note: fleet cell reshaped (%dw/%dt/%ds -> %dw/%dt/%ds), not compared\n",
			prevFleet.Workers, prevFleet.Tenants, prevFleet.Shards,
			curFleet.Workers, curFleet.Tenants, curFleet.Shards)
	case prevFleet.JobsPerSec > 0:
		rel := (curFleet.JobsPerSec - prevFleet.JobsPerSec) / prevFleet.JobsPerSec
		if rel < -maxRegress {
			report("fleet jobs_per_sec %.1f -> %.1f (%.0f%%)", prevFleet.JobsPerSec, curFleet.JobsPerSec, rel*100)
		}
	}

	if violations == 0 {
		fmt.Fprintln(stdout, "benchdiff: no cell regressed beyond the tolerance")
		return 0
	}
	if *gate {
		fmt.Fprintf(stdout, "benchdiff: %d gate violation(s)\n", violations)
		return 1
	}
	return 0
}

// load reads a BENCH_*.json and indexes its records by cell identity; the
// fleet cell (absent from older trajectory files) rides alongside.
func load(path string) (map[string]benchRecord, *fleetRecord, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var sum benchSummary
	if err := json.Unmarshal(raw, &sum); err != nil {
		return nil, nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	out := make(map[string]benchRecord, len(sum.Records))
	for _, r := range sum.Records {
		if r.Incremental != nil && !*r.Incremental {
			continue
		}
		key := fmt.Sprintf("%s/%s/%s/workers=%d/rep=%t", r.Program, r.FS, r.Mode, r.Workers, r.Representative)
		out[key] = r
	}
	return out, sum.Fleet, nil
}

// latestOther returns the lexically greatest BENCH_*.json in dir other than
// newPath — the timestamped naming scheme makes lexical order chronological.
func latestOther(dir, newPath string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	abs := func(p string) string {
		a, err := filepath.Abs(p)
		if err != nil {
			return p
		}
		return a
	}
	sort.Strings(matches)
	latest := ""
	for _, m := range matches {
		if abs(m) != abs(newPath) {
			latest = m
		}
	}
	return latest, nil
}
