// Command experiments regenerates the paper's evaluation tables and
// figures (§6) from the simulated stack.
//
// Usage:
//
//	experiments -exp fig8       # inconsistent crash states per program × FS
//	experiments -exp fig9       # ARVR traces across file systems (Fig 2/9)
//	experiments -exp fig10      # brute vs pruning vs optimized timing
//	experiments -exp fig11      # scalability with server count
//	experiments -exp fig5       # consistency-model demonstration
//	experiments -exp table3     # the aggregated bug list
//	experiments -exp sensitivity # the Table 3 sensitivity studies
//	experiments -exp speedups   # §6.4 headline numbers on ARVR/BeeGFS
//	experiments -exp parallel   # worker-pool engine vs serial wall clock
//	experiments -exp bench      # benchmark trajectory -> BENCH_*.json
//	experiments -exp fuzz       # metamorphic fuzz campaign over the engine
//	experiments -exp all        # every experiment above except fuzz
//
// The fuzz campaign is a correctness gate rather than a paper artifact, so
// "all" does not include it; run it explicitly:
//
//	experiments -exp fuzz -seeds 64 -fuzz-out corpus/
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"paracrash/internal/exps"
	"paracrash/internal/fuzzcamp"
	"paracrash/internal/obs"
	core "paracrash/internal/paracrash"
	"paracrash/internal/serve"
	"paracrash/internal/workloads"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig5, fig8, fig9, fig10, fig11, table3, sensitivity, speedups, parallel, bench, fuzz, all")
	servers := flag.String("servers", "4,6,8,16,32", "server counts for fig11")
	benchOut := flag.String("bench-out", "", "bench: write the BENCH_*.json summary to this file (default stdout)")
	benchCells := flag.String("bench-cells", "all", "bench: cell subset to run: all, or fast (the quick benchgate set)")
	var sinkSpecs obs.SinkSpecList
	flag.Var(&sinkSpecs, "sink", "bench: attach a telemetry sink for per-cell metrics (repeatable): stdout, stderr, jsonl:PATH, push:URL")
	fuzzSeeds := flag.Int("seeds", 64, "fuzz: number of generated workload seeds")
	fuzzSeedStart := flag.Int64("seed-start", 0, "fuzz: first generator seed")
	fuzzEnumOps := flag.Int("enum-ops", 2, "fuzz: also enumerate all op sequences up to this length (0 = off)")
	fuzzOut := flag.String("fuzz-out", "", "fuzz: directory for minimized reproducer corpus files")
	fuzzTime := flag.Duration("fuzz-time", 0, "fuzz: wall-clock budget, e.g. 30s (0 = no limit)")
	fuzzBackends := flag.String("fuzz-backends", "", "fuzz: comma-separated backends (default: all six)")
	fuzzProgress := flag.Bool("progress", false, "fuzz: stream live progress to stderr")
	fuzzRetries := flag.Int("retries", 0, "fuzz: max attempts per crash-state check before quarantining it (0 = default 3)")
	fuzzBackoff := flag.Duration("retry-backoff", 0, "fuzz: base backoff between check retries (0 = default 2ms)")
	fuzzFaultSeed := flag.Int64("fault-seed", 0, "fuzz: fault-injection seed (with -fault-rate)")
	fuzzFaultRate := flag.Float64("fault-rate", 0, "fuzz: inject faults into the engine's own I/O with this probability in [0,1] (0 = off)")
	representative := flag.Bool("representative", true, "group crash states into recovered-content equivalence classes and check one representative per class")
	noRep := flag.Bool("no-representative", false, "check every crash state brute-force-equivalently (same as -representative=false)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "experiments: unexpected arguments: %s\n", strings.Join(flag.Args(), " "))
		flag.Usage()
		os.Exit(2)
	}
	if *fuzzSeeds < 0 {
		fatal(fmt.Errorf("-seeds must be >= 0, got %d", *fuzzSeeds))
	}
	if *fuzzEnumOps < 0 {
		fatal(fmt.Errorf("-enum-ops must be >= 0, got %d", *fuzzEnumOps))
	}
	if *fuzzRetries < 0 {
		fatal(fmt.Errorf("-retries must be >= 0 (0 = default), got %d", *fuzzRetries))
	}
	if *fuzzBackoff < 0 {
		fatal(fmt.Errorf("-retry-backoff must be >= 0 (0 = default), got %v", *fuzzBackoff))
	}
	if *fuzzFaultRate < 0 || *fuzzFaultRate > 1 {
		fatal(fmt.Errorf("-fault-rate must be in [0,1], got %g", *fuzzFaultRate))
	}
	repSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "representative" {
			repSet = true
		}
	})
	if repSet && *representative && *noRep {
		fatal(fmt.Errorf("-representative=true conflicts with -no-representative"))
	}
	// opts carries the knobs into the option-taking experiments; the §6.4
	// speedups contrast pins its own settings to measure the paper's
	// strategies in isolation.
	opts := core.DefaultOptions()
	opts.DisableRepresentative = *noRep || !*representative

	h5p := workloads.DefaultH5Params()
	run := func(name string) {
		switch name {
		case "fig5":
			fmt.Println(exps.Fig5())
		case "fig8":
			res := exps.Fig8(opts, h5p)
			fmt.Println(res.Format())
		case "fig9":
			fmt.Println(exps.Fig9(h5p))
		case "fig10":
			fmt.Println(exps.FormatFig10(exps.Fig10(h5p)))
		case "fig11":
			counts, err := parseServerCounts(*servers)
			if err != nil {
				fatal(fmt.Errorf("-servers: %w", err))
			}
			fmt.Println(exps.FormatFig11(exps.Fig11(counts, h5p)))
		case "table3":
			fmt.Println(exps.FormatTable3(exps.Table3(opts, h5p)))
		case "sensitivity":
			fmt.Println(exps.Sensitivity())
		case "speedups":
			res, err := exps.Speedups("beegfs", "ARVR", h5p)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			fmt.Println("§6.4 exploration speedups (ARVR on BeeGFS):")
			fmt.Printf("  brute-force: %4d states checked, %d server restores, %.4fs (%d bugs)\n",
				res.BruteStates, res.BruteRestores, res.BruteSeconds, res.BruteBugs)
			fmt.Printf("  pruning:     %4d states checked, %.4fs (%d bugs)\n",
				res.PrunedStates, res.PrunedSeconds, res.PrunedBugs)
			fmt.Printf("  optimized:   %d server restores, %.4fs (%d bugs)\n",
				res.OptRestores, res.OptimizedSeconds, res.OptBug)
			if res.PrunedStates > 0 {
				fmt.Printf("  state reduction: %.1fx; restore reduction: %.1fx\n",
					float64(res.BruteStates)/float64(res.PrunedStates),
					float64(res.BruteRestores)/float64(maxInt(res.OptRestores, 1)))
			}
		case "parallel":
			res, err := exps.ParallelSpeedup("beegfs", "ARVR", h5p)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			fmt.Println("parallel exploration (brute-force ARVR on BeeGFS):")
			fmt.Printf("  serial   (workers=1):  %.4fs\n", res.SerialSeconds)
			fmt.Printf("  parallel (workers=%d): %.4fs  (%.1fx speedup)\n", res.Workers, res.ParallelSeconds, res.Speedup)
			fmt.Printf("  states checked: %d, bugs: %d, reports identical: %v\n", res.States, res.Bugs, res.Identical)
		case "bench":
			sinks, closers, err := parseSinks(sinkSpecs)
			if err != nil {
				fatal(err)
			}
			sum, err := exps.BenchCells(h5p, *benchCells, sinks...)
			for _, c := range closers {
				_ = c()
			}
			if err != nil {
				fatal(err)
			}
			// The fleet cell: coordinator + workers + tenants stormed through
			// the HTTP API by the load generator. The fast subset keeps the
			// storm small so `make benchgate` stays quick.
			fleetCfg := serve.FleetBenchConfig{Workers: 3, Tenants: 2, Shards: 2, Jobs: 24, Concurrency: 8}
			if *benchCells == "fast" {
				fleetCfg.Jobs, fleetCfg.Concurrency = 12, 6
			}
			sum.Fleet, err = serve.BenchFleet(context.Background(), fleetCfg)
			if err != nil {
				fatal(err)
			}
			out, err := sum.JSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			if *benchOut == "" {
				fmt.Println(string(out))
				break
			}
			if err := os.WriteFile(*benchOut, out, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			fmt.Printf("benchmark summary written to %s (%d records)\n", *benchOut, len(sum.Records))
		case "fuzz":
			var backends []string
			for _, b := range strings.Split(*fuzzBackends, ",") {
				if b = strings.TrimSpace(b); b != "" {
					backends = append(backends, b)
				}
			}
			var orun *obs.Run
			if *fuzzProgress {
				orun = obs.NewRun()
				orun.AddSink(&obs.HumanSink{W: os.Stderr})
				orun.StartProgress(time.Second)
			}
			res, err := fuzzcamp.Run(fuzzcamp.Config{
				Backends:   backends,
				SeedStart:  *fuzzSeedStart,
				Seeds:      *fuzzSeeds,
				EnumOps:    *fuzzEnumOps,
				TimeBudget: *fuzzTime,
				CorpusDir:  *fuzzOut,
				Obs:        orun,
				Retry:      core.RetryPolicy{MaxAttempts: *fuzzRetries, Backoff: *fuzzBackoff},
				FaultSeed:  *fuzzFaultSeed,
				FaultRate:  *fuzzFaultRate,

				DisableRepresentative: opts.DisableRepresentative,
			})
			if orun != nil {
				orun.Close()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			fmt.Print(res.Format())
			if !res.OK() {
				os.Exit(1)
			}
		default:
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", name)
			os.Exit(2)
		}
	}

	if *exp == "all" {
		for _, name := range []string{"fig5", "fig8", "fig9", "fig10", "fig11", "table3", "sensitivity", "speedups", "parallel", "bench"} {
			fmt.Printf("################ %s ################\n", name)
			run(name)
		}
		return
	}
	run(*exp)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// parseSinks resolves -sink specs into live sinks plus their closers. An
// error from any spec closes the sinks already opened so a bad third spec
// does not leak the first two files.
func parseSinks(specs obs.SinkSpecList) ([]obs.MetricSink, []func() error, error) {
	var sinks []obs.MetricSink
	var closers []func() error
	for _, spec := range specs {
		sink, closer, err := obs.ParseSinkSpec(spec)
		if err != nil {
			for _, c := range closers {
				_ = c()
			}
			return nil, nil, err
		}
		sinks = append(sinks, sink)
		closers = append(closers, closer)
	}
	return sinks, closers, nil
}

// parseServerCounts parses fig11's comma-separated server counts. Every
// field must be an integer >= 2 (the clusters need more than one
// server); a malformed field is an error rather than a silent skip.
func parseServerCounts(s string) ([]int, error) {
	var counts []int
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			return nil, fmt.Errorf("empty server count in %q", s)
		}
		n, err := strconv.Atoi(field)
		if err != nil {
			return nil, fmt.Errorf("bad server count %q (want an integer >= 2)", field)
		}
		if n < 2 {
			return nil, fmt.Errorf("server count %d out of range (want >= 2)", n)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

// fatal prints a flag-validation or runtime error to stderr and exits
// non-zero, matching the other CLIs' behaviour.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(2)
}
