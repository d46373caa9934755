// Command experiments regenerates the paper's evaluation tables and
// figures (§6) from the simulated stack.
//
// Usage:
//
//	experiments -exp fig5       # consistency-model demonstration
//	experiments -exp fig8       # inconsistent crash states per program × FS
//	experiments -exp fig9       # ARVR traces across file systems (Fig 2/9)
//	experiments -exp fig10      # brute vs pruning timing
//	experiments -exp fig11      # scalability with server count
//	experiments -exp table3     # the aggregated bug list
//	experiments -exp sensitivity # the Table 3 sensitivity studies
//	experiments -exp speedups   # §6.4 headline numbers on ARVR/BeeGFS
//	experiments -exp fuzz       # metamorphic fuzz campaign over the engine
//	experiments -exp all        # every experiment above except fuzz
//
// The fuzz campaign is a correctness gate rather than a paper artifact, so
// "all" does not include it; run it explicitly:
//
//	experiments -exp fuzz -seeds 64 -fuzz-out corpus/
//
// Performance is measured elsewhere: `bash benchmark/run.sh` (see
// benchmark/README.md) is the repository's one benchmark.
package main

import (
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
	"paracrash/internal/workloads"
)

// settings is what the flags resolve to once validated: everything an
// experiment needs besides its own name.
type settings struct {
	h5p     workloads.H5Params
	servers []int
	fuzz    fuzzcamp.Config
	// fuzzProgress streams the campaign's live progress to stderr.
	fuzzProgress bool
}

// experiments is the one ordered table behind the -exp usage string, what
// "all" runs and the unknown-experiment error. The fuzz campaign is a
// correctness gate rather than a paper artifact, so "all" leaves it out.
var experiments = []struct {
	name  string
	inAll bool
	run   func(*settings)
}{
	{"fig5", true, func(*settings) { fmt.Println(exps.Fig5()) }},
	{"fig8", true, runFig8},
	{"fig9", true, func(s *settings) { fmt.Println(exps.Fig9(s.h5p)) }},
	{"fig10", true, func(s *settings) { fmt.Println(exps.FormatFig10(exps.Fig10(s.h5p))) }},
	{"fig11", true, func(s *settings) { fmt.Println(exps.FormatFig11(exps.Fig11(s.servers, s.h5p))) }},
	{"table3", true, func(s *settings) { fmt.Println(exps.FormatTable3(exps.Table3(core.DefaultOptions(), s.h5p))) }},
	{"sensitivity", true, func(*settings) { fmt.Println(exps.Sensitivity()) }},
	{"speedups", true, runSpeedups},
	{"fuzz", false, runFuzz},
}

// experimentNames lists every value -exp accepts, in table order.
func experimentNames() string {
	var names []string
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return strings.Join(append(names, "all"), ", ")
}

func main() {
	exp := flag.String("exp", "all", "experiment: "+experimentNames())
	servers := flag.String("servers", "4,6,8,16,32", "server counts for fig11")
	fuzzSeeds := flag.Int("seeds", 64, "fuzz: number of generated workload seeds")
	fuzzSeedStart := flag.Int64("seed-start", 0, "fuzz: first generator seed")
	fuzzEnumOps := flag.Int("enum-ops", 2, "fuzz: also enumerate all op sequences up to this length (0 = off)")
	fuzzOut := flag.String("fuzz-out", "", "fuzz: directory for minimized reproducer corpus files")
	fuzzTime := flag.Duration("fuzz-time", 0, "fuzz: wall-clock budget, e.g. 30s (0 = no limit)")
	fuzzBackends := flag.String("fuzz-backends", "", "fuzz: comma-separated backends (default: all six)")
	fuzzProgress := flag.Bool("progress", false, "fuzz: stream live progress to stderr")
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
	// Like the fuzz flags above, -servers is checked whatever -exp says: a
	// bad count must not surface after "all" has run for seconds.
	counts, err := parseServerCounts(*servers)
	if err != nil {
		fatal(fmt.Errorf("-servers: %w", err))
	}

	s := &settings{
		h5p:          workloads.DefaultH5Params(),
		servers:      counts,
		fuzzProgress: *fuzzProgress,
		fuzz: fuzzcamp.Config{
			SeedStart:  *fuzzSeedStart,
			Seeds:      *fuzzSeeds,
			EnumOps:    *fuzzEnumOps,
			TimeBudget: *fuzzTime,
			CorpusDir:  *fuzzOut,
		},
	}
	for _, b := range strings.Split(*fuzzBackends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			s.fuzz.Backends = append(s.fuzz.Backends, b)
		}
	}

	known := false
	for _, e := range experiments {
		if *exp == "all" && e.inAll {
			fmt.Printf("################ %s ################\n", e.name)
		} else if *exp != e.name {
			continue
		}
		known = true
		e.run(s)
	}
	if !known {
		fatal(fmt.Errorf("unknown experiment %q (want %s)", *exp, experimentNames()))
	}
}

// runFig8 prints the Figure 8 matrix, then names every cell whose run
// errored on stderr and exits 1 if there is one: a matrix with a hole in
// it is not the paper's figure.
func runFig8(s *settings) {
	res := exps.Fig8(core.DefaultOptions(), s.h5p)
	fmt.Println(res.Format())
	if errs := cellErrors(res); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "experiments: fig8:", e)
		}
		os.Exit(1)
	}
}

// cellErrors names each errored cell of a Figure 8 matrix by program, file
// system and error, in table order.
func cellErrors(r *exps.Fig8Result) []string {
	var out []string
	for _, prog := range r.Programs {
		for _, fs := range r.FS {
			if c := r.Cells[prog][fs]; c.Err != "" {
				out = append(out, fmt.Sprintf("%s on %s: %s", prog, fs, c.Err))
			}
		}
	}
	return out
}

// runSpeedups prints the §6.4 headline numbers on ARVR/BeeGFS.
func runSpeedups(s *settings) {
	res, err := exps.Speedups("beegfs", "ARVR", s.h5p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	fmt.Println("§6.4 exploration speedups (ARVR on BeeGFS; restores and seconds include the class memo):")
	fmt.Printf("  brute-force: %4d states judged, %d server restores, %.4fs (%d bugs)\n",
		res.BruteStates, res.BruteRestores, res.BruteSeconds, res.BruteBugs)
	fmt.Printf("  pruning:     %4d states judged, %d server restores, %.4fs (%d bugs)\n",
		res.PrunedStates, res.PrunedRestores, res.PrunedSeconds, res.PrunedBugs)
	if res.PrunedStates > 0 {
		fmt.Printf("  state reduction: %.1fx; restore reduction: %.1fx\n",
			float64(res.BruteStates)/float64(res.PrunedStates),
			float64(res.BruteRestores)/float64(max(res.PrunedRestores, 1)))
	}
}

// runFuzz runs the metamorphic campaign and exits 1 when an oracle failed.
func runFuzz(s *settings) {
	cfg := s.fuzz
	stopProgress := func() {}
	if s.fuzzProgress {
		cfg.Obs = obs.NewRun()
		stopProgress = obs.Follow(time.Second, cfg.Obs.Event, func(ev obs.Event) { fmt.Fprintln(os.Stderr, ev) })
	}
	res, err := fuzzcamp.Run(cfg)
	stopProgress()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	fmt.Print(res.Format())
	if !res.OK() {
		os.Exit(1)
	}
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
