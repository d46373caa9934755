package fuzzcamp

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"paracrash/internal/exps"
	"paracrash/internal/obs"
	"paracrash/internal/paracrash"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

// Config parameterises a campaign.
type Config struct {
	// Backends under test; empty means all six (exps.FSNames).
	Backends []string
	// SeedStart/Seeds select the random-generator workloads: seeds
	// [SeedStart, SeedStart+Seeds) through workloads.Generate with the
	// default shape. Seeds 0 with EnumOps 0 falls back to 16 seeds.
	SeedStart int64
	Seeds     int
	// EnumOps > 0 additionally enumerates every valid op sequence of length
	// 1..EnumOps (B3-style bounded systematic enumeration).
	EnumOps int
	// TimeBudget bounds the campaign wall time; cells not started before the
	// deadline are skipped and the result is marked TimedOut (0 = no limit).
	TimeBudget time.Duration
	// CorpusDir, when non-empty, receives a replayable repro file per
	// deduplicated violation.
	CorpusDir string
	// Obs, when non-nil, receives campaign counters and the explorer's own
	// per-run metrics.
	Obs *obs.Run
	// Inject is a test-only hook registered as a fourth oracle: a non-empty
	// return marks the workload as violating with that detail string. The
	// campaign treats the hook itself as the minimization predicate, so
	// tests can verify the whole violation → minimize → corpus pipeline
	// without a real engine bug.
	Inject func(backend string, prog *workloads.Program) string
}

func (cfg Config) withDefaults() Config {
	if len(cfg.Backends) == 0 {
		cfg.Backends = exps.FSNames()
	}
	if cfg.Seeds < 0 {
		cfg.Seeds = 0
	}
	if cfg.Seeds == 0 && cfg.EnumOps <= 0 {
		cfg.Seeds = 16
	}
	return cfg
}

// minimizeTests bounds predicate evaluations per minimization.
const minimizeTests = 200

// workloadList builds the campaign's deterministic workload sequence:
// generated programs first (seed order), then the bounded enumeration.
func (cfg Config) workloadList() []*workloads.Program {
	var out []*workloads.Program
	for i := 0; i < cfg.Seeds; i++ {
		out = append(out, workloads.Generate(workloads.DefaultGenConfig(cfg.SeedStart+int64(i))))
	}
	if cfg.EnumOps > 0 {
		ec := workloads.DefaultEnumConfig()
		ec.MaxOps = cfg.EnumOps
		workloads.Enumerate(ec, func(p *workloads.Program) bool {
			out = append(out, p)
			return true
		})
	}
	return out
}

// Result summarises a campaign.
type Result struct {
	Workloads    int
	Backends     []string
	Cells        int
	CellsSkipped int
	ExplorerRuns int64
	// Violations are deduplicated by signature and minimized, in
	// deterministic (workload, backend, oracle) order.
	Violations []*Violation
	// Duplicates counts suppressed violations that shared a signature with
	// an earlier one.
	Duplicates int
	// Errors records cells whose explorer runs failed outright, quarantined
	// a crash state or whose evaluation panicked, naming the program, the
	// backend and the error.
	Errors   []string
	TimedOut bool
	Elapsed  time.Duration
}

// OK reports a fully green campaign: every cell ran and no oracle fired.
func (r *Result) OK() bool {
	return len(r.Violations) == 0 && len(r.Errors) == 0 && !r.TimedOut
}

// oracleOrder fixes the per-oracle summary line order.
var oracleOrder = []string{OracleLattice, OraclePruning, OracleInjected}

// Format renders the campaign summary.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== fuzz campaign: %d workloads × %d backends = %d cells, %d explorer runs, %.1fs ===\n",
		r.Workloads, len(r.Backends), r.Cells, r.ExplorerRuns, r.Elapsed.Seconds())
	byOracle := map[string]int{}
	for _, v := range r.Violations {
		byOracle[v.Oracle]++
	}
	for _, o := range oracleOrder {
		if o == OracleInjected && byOracle[o] == 0 {
			continue
		}
		verdict := "OK"
		if n := byOracle[o]; n > 0 {
			verdict = fmt.Sprintf("%d violation(s)", n)
		}
		fmt.Fprintf(&b, "oracle %-13s %s\n", o+":", verdict)
	}
	if r.Duplicates > 0 {
		fmt.Fprintf(&b, "duplicates suppressed: %d\n", r.Duplicates)
	}
	if r.CellsSkipped > 0 {
		fmt.Fprintf(&b, "cells skipped (time budget): %d\n", r.CellsSkipped)
	}
	for i, v := range r.Violations {
		fmt.Fprintf(&b, "[%d] %s oracle on %s (workload %s)\n    %s\n", i+1, v.Oracle, v.Backend, v.Workload, v.Detail)
		fmt.Fprintf(&b, "    minimized: %d -> %d ops\n", v.MinimizedFrom, v.MinimizedTo)
		for _, op := range v.Body {
			fmt.Fprintf(&b, "      %s\n", op)
		}
		if v.CorpusFile != "" {
			fmt.Fprintf(&b, "    repro: %s\n", v.CorpusFile)
		}
	}
	for _, e := range r.Errors {
		fmt.Fprintf(&b, "error: %s\n", e)
	}
	return b.String()
}

// campaign is the per-run state shared by cell evaluation.
type campaign struct {
	cfg *Config
	// nruns counts explorer invocations independently of obs, which may be
	// nil (its Counter handles are then no-ops).
	nruns atomic.Int64
	runs  *obs.Counter
	obs   *obs.Run
}

// explore runs one explorer invocation for the campaign: a fresh file
// system, generated programs only (no I/O library), both models set to the
// oracle's model so POSIX and library runs would judge alike.
func (c *campaign) explore(backend string, w paracrash.Workload, mode paracrash.Mode, model paracrash.Model) (*paracrash.Report, error) {
	c.nruns.Add(1)
	c.runs.Inc()
	fs, err := exps.NewFS(backend, exps.ConfigFor(backend), trace.NewRecorder())
	if err != nil {
		return nil, err
	}
	opts := paracrash.DefaultOptions()
	opts.Mode = mode
	opts.PFSModel = model
	opts.LibModel = model
	opts.Obs = c.obs
	rep, err := paracrash.Run(fs, nil, w, opts)
	if err == nil {
		err = quarantined(backend, rep)
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// quarantined fails a run that quarantined crash states: such a state has
// no verdict, so every oracle would compare reports that judged nothing
// there and the campaign would read green.
func quarantined(backend string, rep *paracrash.Report) error {
	if len(rep.Skipped) == 0 {
		return nil
	}
	return fmt.Errorf("%s: %d crash states quarantined, first: %s", backend, len(rep.Skipped), rep.Skipped[0].Reason)
}

// evalCellSafe is evalCell with panic isolation: a panic escaping the
// engine becomes the cell's error, which fails the campaign, instead of
// killing the campaign's other cells.
func (c *campaign) evalCellSafe(backend string, prog *workloads.Program) (vs []*pending, err error) {
	defer func() {
		if p := recover(); p != nil {
			vs = nil
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return c.evalCell(backend, prog)
}

// runsClean executes the program (preamble + body, untraced) on a fresh
// backend instance — the cheap validity check for minimization candidates
// whose oracle does not itself run the explorer.
func (c *campaign) runsClean(backend string, p *workloads.Program) bool {
	fs, err := exps.NewFS(backend, exps.ConfigFor(backend), trace.NewRecorder())
	if err != nil {
		return false
	}
	return p.Preamble(fs) == nil && p.Run(fs) == nil
}

// Run executes the campaign: evaluate every workload × backend cell
// concurrently, then dedupe, minimize and persist violations in a
// deterministic serial pass.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	run := cfg.Obs
	stopCampaign := run.Phase(obs.PhaseCampaign)
	defer stopCampaign()

	progs := cfg.workloadList()
	c := &campaign{cfg: &cfg, runs: run.Counter("campaign/explorer-runs"), obs: run}
	ctrCells := run.Counter("campaign/cells")
	ctrViol := run.Counter("campaign/violations")
	run.Gauge("campaign/workloads").Set(int64(len(progs)))

	type cell struct {
		backend string
		prog    *workloads.Program
	}
	cells := make([]cell, 0, len(progs)*len(cfg.Backends))
	for _, p := range progs {
		for _, b := range cfg.Backends {
			cells = append(cells, cell{b, p})
		}
	}
	run.Gauge("campaign/cells-total").Set(int64(len(cells)))

	var deadline time.Time
	if cfg.TimeBudget > 0 {
		deadline = start.Add(cfg.TimeBudget)
	}

	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		skipped int
		found   = map[int][]*pending{}
		errs    = map[int]string{}
	)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, cl := range cells {
		if !deadline.IsZero() && time.Now().After(deadline) {
			skipped++
			continue
		}
		i, cl := i, cl
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			vs, err := c.evalCellSafe(cl.backend, cl.prog)
			ctrCells.Inc()
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs[i] = fmt.Sprintf("%s on %s: %v", cl.prog.Name(), cl.backend, err)
			}
			if len(vs) > 0 {
				found[i] = vs
			}
		}()
	}
	wg.Wait()

	res := &Result{
		Workloads:    len(progs),
		Backends:     cfg.Backends,
		Cells:        len(cells),
		CellsSkipped: skipped,
		TimedOut:     skipped > 0,
	}
	var errIdx []int
	for i := range errs {
		errIdx = append(errIdx, i)
	}
	sort.Ints(errIdx)
	for _, i := range errIdx {
		res.Errors = append(res.Errors, errs[i])
	}

	// Deterministic dedup → minimize → corpus pass, in cell order.
	seen := map[string]bool{}
	for i := range cells {
		for _, p := range found[i] {
			if seen[p.v.Signature] {
				res.Duplicates++
				continue
			}
			seen[p.v.Signature] = true
			v := p.v
			v.Preamble = append([]workloads.Op(nil), cells[i].prog.PreambleOps()...)
			body := cells[i].prog.Body()
			v.MinimizedFrom = len(body)
			if p.pred != nil {
				stopMin := run.Phase(obs.PhaseMinimize)
				body = Minimize(body, p.pred, minimizeTests)
				stopMin()
			}
			v.Body = append([]workloads.Op(nil), body...)
			v.MinimizedTo = len(v.Body)
			ctrViol.Inc()
			if cfg.CorpusDir != "" {
				path, err := WriteRepro(cfg.CorpusDir, &Repro{
					Version:   ReproVersion,
					Oracle:    v.Oracle,
					Backend:   v.Backend,
					Workload:  v.Workload,
					Signature: v.Signature,
					Detail:    v.Detail,
					Script:    workloads.NewProgram(v.Workload, v.Preamble, v.Body).Script(),
					Preamble:  v.Preamble,
					Body:      v.Body,
				})
				if err != nil {
					res.Errors = append(res.Errors, err.Error())
				} else {
					v.CorpusFile = path
				}
			}
			res.Violations = append(res.Violations, v)
		}
	}
	res.ExplorerRuns = c.nruns.Load()
	res.Elapsed = time.Since(start)
	return res, nil
}
