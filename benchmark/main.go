// Command benchmark is the repository's performance benchmark: seven named
// workloads over the checker engine and the job daemon, end-to-end metrics
// with tracing off, and a traced run that attributes time to each layer
// through the layers' public functions only. See README.md.
//
//	bash benchmark/run.sh                         every workload, both runs
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash benchmark/run.sh compare A/ B/
//	bash benchmark/run.sh -update-golden
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"

	"paracrash/internal/exps"
	"paracrash/internal/paracrash"
	"paracrash/internal/workloads"
)

// workload is one named set of inputs. Engine workloads have cells; service
// workloads have svc.
type workload struct {
	Name string
	Why  string
	// TailPct is the percentile job_tail_ms reports, fixed per workload so
	// that runs stay comparable. Service workloads read it off the jobs'
	// latencies, at or below the highest percentile with ten samples beyond
	// it (highestPercentile); engine workloads read it off the cells' median
	// times, so it names the slow cells and not the noisy passes.
	TailPct float64
	cells   func() []*cell
	svc     *svcSpec
	// check (nilable) is a correctness check beyond golden.json, run once.
	check func() error
}

var benchWorkloads = []*workload{
	{Name: "matrix-k1", TailPct: 90, cells: matrixCells, check: checkTable3,
		Why: "the paper's Fig. 8 matrix, 11 programs x 6 backends, pruning, k=1: what regenerating the paper runs; library legal-state replay dominates"},
	{Name: "emulate-k2", TailPct: 75, cells: emulateCells,
		Why: "lustre x 4 library programs, pruning, k=2: few states, long traces, so causality and the crash emulator (Alg. 1/2) do most of the work"},
	{Name: "states-k2", TailPct: 75, cells: statesCells(1),
		Why: "gpfs x 4 library programs + 3 vfs backends x H5-parallel-create, brute force, k=2: 14k states per pass; classification, digests and reconstruction dominate"},
	{Name: "states-k2-w2", TailPct: 75, cells: statesCells(2),
		Why: "the states-k2 cells with Workers=2: clone, shard and ordered merge; the only place a change to parallel exploration shows"},
	{Name: "gen-posix", TailPct: 90, cells: genCells,
		Why: "24 generated POSIX programs x 6 backends, pruning, k=1: the fuzz-campaign shape; backend recover/mount and per-run preparation dominate, no library layer"},
	{Name: "svc-standalone", TailPct: 95, svc: &svcSpec{RoundJobs: 400, WarmupJobs: 200, QuickJobs: 20},
		Why: "in-process scheduler behind HTTP, 2 closed-loop clients, ms-class jobs: admission, queueing, job-store writes and result pickup are what is measured"},
	{Name: "svc-fleet", TailPct: 75, svc: &svcSpec{Fleet: true, RoundJobs: 8, WarmupJobs: 8, QuickJobs: 2},
		Why: "coordinator + 2 workers over a shared directory, Shards=2, production poll cadences: task files, leases, shard journals and merge"},
}

func findWorkload(name string) *workload {
	for _, w := range benchWorkloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// runConfig is one run's arguments.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	// Quick is the smoke mode of bench_test.go: one pass of two cells, a
	// handful of jobs, no warm-up and no set-up repeats.
	Quick    bool
	StateDir string
}

func (c runConfig) duration() time.Duration { return time.Duration(c.Seconds) * time.Second }

// metricValue is one metric in the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome. The last line of standard output carries
// Correct, Attempted, Failed and Metrics; -out writes all of it.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Env       map[string]string      `json:"env"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples summarises the samples behind each timing: count, median,
	// quartiles, min, max.
	Samples map[string]dist `json:"samples"`

	spans []span
}

func newResult(cfg runConfig) *result {
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	r := &result{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		Env: environment(cfg), Metrics: map[string]metricValue{}, Samples: map[string]dist{},
	}
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{Unit: d.Unit}
	}
	return r
}

// set records a metric of this run's catalogue; names outside it (a traced
// metric computed during an untraced run) are dropped.
func (r *result) set(name string, v float64, samples []float64) {
	m, ok := r.Metrics[name]
	if !ok {
		return
	}
	m.Value = v
	r.Metrics[name] = m
	delete(r.Samples, name)
	if len(samples) > 0 {
		r.Samples[name] = summarize(samples)
	}
}

func (r *result) count(attempted, failed int, firstErr string) {
	r.Attempted += attempted
	r.Failed += failed
	if firstErr != "" && len(r.Errors) < 5 {
		r.Errors = append(r.Errors, firstErr)
	}
}

func environment(cfg runConfig) map[string]string {
	env := map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     "unknown",
		"state_dir":  cfg.StateDir,
		"state_fs":   fsType(cfg.StateDir),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	return env
}

// defaultStateDir puts the service workloads' state on tmpfs when the box
// has one: on the sandbox's disk fsync time swings the same run by a factor
// of 1.4, on tmpfs it repeats within a few percent. Durable writes are
// reported as exact counts instead (statefs.writes_per_job).
func defaultStateDir() string {
	if fsType("/dev/shm") == "tmpfs" && syscall.Access("/dev/shm", 2 /* W_OK */) == nil {
		return filepath.Join("/dev/shm", "paracrash-benchmark")
	}
	return filepath.Join(".bench_build", "state")
}

// fsType names the file system holding dir (or its nearest existing
// parent), so a reader can tell a tmpfs run from a disk run.
func fsType(dir string) string {
	var st syscall.Statfs_t
	for syscall.Statfs(dir, &st) != nil {
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
	names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// instance is a set-up workload ready to be measured.
type instance interface {
	measure(ctx context.Context, cfg runConfig, res *result)
	close()
}

func (e *engine) close() {}

func setUp(ctx context.Context, w *workload, cfg runConfig) (instance, error) {
	if w.svc != nil {
		return setUpService(ctx, w, cfg)
	}
	return setUpEngine(ctx, w, cfg)
}

// setupRepeats is how many times an untraced run sets the workload up, each
// time in a child process of its own, so that one-off costs a process pays
// on first use are in every sample. setup_s is the median.
const setupRepeats = 3

// runWorkload is one run of one workload: set up, measure, check.
func runWorkload(ctx context.Context, cfg runConfig) (*result, error) {
	w := findWorkload(cfg.Workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	res := newResult(cfg)
	if !cfg.Trace && !cfg.Quick {
		var setups []float64
		for i := 0; i < setupRepeats; i++ {
			s, err := setUpInChild(cfg)
			if err != nil {
				return nil, fmt.Errorf("set-up child: %w", err)
			}
			setups = append(setups, s)
		}
		res.set("setup_s", median(setups), setups)
	}
	t0 := time.Now()
	inst, err := setUp(ctx, w, cfg)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	if cfg.Quick {
		res.set("setup_s", time.Since(t0).Seconds(), nil)
	}

	inst.measure(ctx, cfg, res)

	res.Correct = res.Failed == 0 && res.Attempted > 0
	if w.check != nil && !cfg.Quick {
		if err := w.check(); err != nil {
			res.Correct = false
			res.Errors = append(res.Errors, err.Error())
		}
	}
	return res, nil
}

// checkTable3 holds the aggregated bug table against what the paper's
// Table 3 states, in constants written down from the paper: at least its 15
// bug families, bugs in each of the 11 test programs, and none on Lustre or
// ext4 for the four POSIX programs.
func checkTable3() error {
	opts := paracrash.DefaultOptions()
	opts.Workers = 1
	rows := exps.Table3(opts, workloads.DefaultH5Params())
	if len(rows) < 15 {
		return fmt.Errorf("Table 3 has %d bug rows, the paper has 15 bugs", len(rows))
	}
	posix := map[string]bool{"ARVR": true, "CR": true, "RC": true, "WAL": true}
	programs := map[string]bool{}
	for _, r := range rows {
		programs[r.Program] = true
		for _, fs := range r.FSes {
			if posix[r.Program] && (fs == "lustre" || fs == "ext4") {
				return fmt.Errorf("Table 3 has a %s bug on %s, which the paper finds clean", r.Program, fs)
			}
		}
	}
	if len(programs) != 11 {
		return fmt.Errorf("Table 3 has bugs in %d programs, the paper in all 11", len(programs))
	}
	return nil
}

// setUpInChild re-executes this binary to set the workload up once in a
// fresh process, and returns the wall seconds from starting the process to
// its saying it is ready. The child's tear-down is not counted.
func setUpInChild(cfg runConfig) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-setup-only", "-workload", cfg.Workload,
		"-seed", strconv.FormatInt(cfg.Seed, 10), "-state-dir", cfg.StateDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(stdout).ReadString('\n')
	ready := time.Since(start)
	if err := cmd.Wait(); err != nil {
		return 0, err
	}
	if readErr != nil || line != readyLine {
		return 0, fmt.Errorf("child said %q, not ready", line)
	}
	return ready.Seconds(), nil
}

// readyLine is what a -setup-only child prints once the workload is set up.
const readyLine = "ready\n"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		cfg          runConfig
		trace        int
		setupOnly    bool
		goldenUpdate bool
		out          string
		traceOut     string
		runs         int
	)
	flag.StringVar(&cfg.Workload, "workload", "", "workload to run; empty runs every workload, untraced then traced")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed: the order cells run in and the service rotation's offset")
	flag.IntVar(&cfg.Seconds, "seconds", 10, "seconds to measure for")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.BoolVar(&cfg.Quick, "quick", false, "smoke mode: one pass of two cells, a few jobs")
	flag.StringVar(&cfg.StateDir, "state-dir", defaultStateDir(), "parent of the service workloads' state directories")
	flag.StringVar(&out, "out", "", "write the full result here (a file; a directory when every workload runs)")
	flag.StringVar(&traceOut, "trace-out", "", "write the traced run's spans here (a file; a directory when every workload runs)")
	flag.IntVar(&runs, "runs", 1, "complete sets of runs when every workload runs, each with the next seed")
	flag.BoolVar(&goldenUpdate, "update-golden", false, "rewrite golden.json from this engine's verdicts and exit")
	flag.BoolVar(&setupOnly, "setup-only", false, "set the workload up, say ready, exit (used by the harness itself)")
	flag.Parse()
	cfg.Trace = trace != 0
	ctx := context.Background()

	switch {
	case goldenUpdate:
		path := "golden.json"
		if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
			path = filepath.Join("benchmark", path)
		}
		if err := updateGolden(ctx, path); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", path, "- rebuild to use it")
	case setupOnly:
		w := findWorkload(cfg.Workload)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", cfg.Workload))
		}
		inst, err := setUp(ctx, w, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Print(readyLine)
		inst.close()
	case cfg.Workload == "":
		os.Exit(runAll(cfg, runs, out, traceOut))
	default:
		res, err := runWorkload(ctx, cfg)
		if err != nil {
			fatal(err)
		}
		if out != "" {
			if err := writeJSON(out, res); err != nil {
				fatal(err)
			}
		}
		if traceOut != "" && cfg.Trace {
			if err := writeSpans(traceOut, res.spans); err != nil {
				fatal(err)
			}
		}
		printResult(res)
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult prints every metric by name with its unit and sample
// statistics, then the one-line result the driver reads.
func printResult(r *result) {
	kind := "end-to-end, tracing off"
	if r.Trace {
		kind = "per-layer, traced"
	}
	fmt.Printf("# %s seed=%d seconds=%d (%s) nproc=%s gomaxprocs=%s %s commit=%s state_fs=%s\n",
		r.Workload, r.Seed, r.Seconds, kind, r.Env["nproc"], r.Env["gomaxprocs"], r.Env["go"], r.Env["commit"], r.Env["state_fs"])
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		line := fmt.Sprintf("%-14s %-28s %14.4f %-6s", r.Workload, n, m.Value, m.Unit)
		if d, ok := r.Samples[n]; ok {
			line += fmt.Sprintf(" n=%d median=%.4f q1=%.4f q3=%.4f min=%.4f max=%.4f", d.N, d.Median, d.Q1, d.Q3, d.Min, d.Max)
		}
		fmt.Println(line)
	}
	fmt.Printf("%-14s %-28s %14.4f %-6s attempted=%d failed=%d\n", r.Workload, "failed_share", ratio(float64(r.Failed), float64(r.Attempted)), "share", r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Println("# error:", e)
	}
	for _, n := range r.Notes {
		fmt.Println("# note:", n)
	}
	line, _ := json.Marshal(struct { // field types marshal without error
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Println(string(line))
}

// runAll runs every workload, untraced then traced, each in its own child
// process so that peak memory and one-off costs are per workload. It returns
// the exit code: 1 when any run was incorrect.
func runAll(cfg runConfig, runs int, outDir, traceDir string) int {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	for _, dir := range []string{outDir, traceDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fatal(err)
			}
		}
	}
	code := 0
	for run := 0; run < runs; run++ {
		seed := cfg.Seed + int64(run)
		for _, w := range benchWorkloads {
			for trace := 0; trace <= 1; trace++ {
				args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", strconv.Itoa(cfg.Seconds), "-trace", strconv.Itoa(trace), "-state-dir", cfg.StateDir}
				if cfg.Quick {
					args = append(args, "-quick")
				}
				stem := fmt.Sprintf("%s.seed%d.trace%d", w.Name, seed, trace)
				if outDir != "" {
					args = append(args, "-out", filepath.Join(outDir, stem+".json"))
				}
				if traceDir != "" && trace == 1 {
					args = append(args, "-trace-out", filepath.Join(traceDir, stem+".spans.json"))
				}
				cmd := exec.Command(exe, args...)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					fmt.Printf("# %s trace=%d: %v\n", w.Name, trace, err)
					code = 1
				}
			}
		}
	}
	return code
}
