package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"paracrash/internal/exps"
	"paracrash/internal/obs"
	"paracrash/internal/paracrash"
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

// cell is one checker run of an engine workload: a paper program or a
// generated POSIX program on one backend under one exploration setting.
type cell struct {
	FS      string
	Program string // paper program name; "" for a generated program
	GenSeed int64  // generator seed when Program is ""
	Mode    paracrash.Mode
	K       int
	Workers int

	// Resolved during set-up.
	prog exps.Program
	gen  *workloads.Program
	conf pfs.Config
}

// key identifies the cell's verdict in golden.json. Workers is left out:
// the report is the same at any worker count.
func (c *cell) key() string {
	prog := c.Program
	if prog == "" {
		prog = fmt.Sprintf("gen-%d", c.GenSeed)
	}
	return fmt.Sprintf("%s/%s/%s/k%d", c.FS, prog, c.Mode, c.K)
}

func (c *cell) resolve() error {
	c.conf = exps.ConfigFor(c.FS)
	if c.Program == "" {
		c.gen = workloads.Generate(workloads.DefaultGenConfig(c.GenSeed))
		return nil
	}
	var err error
	c.prog, err = exps.ProgramByName(c.Program)
	return err
}

func (c *cell) options(run *obs.Run) paracrash.Options {
	opts := paracrash.DefaultOptions()
	opts.Mode = c.Mode
	opts.Emulator.K = c.K
	opts.Workers = c.Workers
	opts.Obs = run
	return opts
}

// run checks the cell once through the same entry points the CLI and the
// daemon use. run (nilable) is a passive collector.
func (c *cell) run(ctx context.Context, run *obs.Run) (*paracrash.Report, error) {
	if c.gen != nil {
		fs, err := exps.NewFS(c.FS, c.conf, trace.NewRecorder())
		if err != nil {
			return nil, err
		}
		return paracrash.RunContext(ctx, fs, nil, c.gen, c.options(run))
	}
	return exps.RunOneContext(ctx, c.FS, c.prog, c.options(run), workloads.DefaultH5Params(), c.conf)
}

func kernelHash(rep *paracrash.Report) string {
	sum := sha256.Sum256([]byte(exps.ReportKernel(rep)))
	return hex.EncodeToString(sum[:])
}

// Cell lists of the engine workloads. quick keeps the first two cells.

func matrixCells() []*cell {
	var cells []*cell
	for _, p := range exps.Programs() {
		for _, fs := range exps.FSNames() {
			cells = append(cells, &cell{FS: fs, Program: p.Name, Mode: paracrash.ModePruning, K: 1, Workers: 1})
		}
	}
	return cells
}

var k2Programs = []string{"H5-create", "H5-rename", "H5-resize", "CDF-create"}

func emulateCells() []*cell {
	var cells []*cell
	for _, p := range k2Programs {
		cells = append(cells, &cell{FS: "lustre", Program: p, Mode: paracrash.ModePruning, K: 2, Workers: 1})
	}
	return cells
}

func statesCells(workers int) func() []*cell {
	return func() []*cell {
		var cells []*cell
		for _, p := range k2Programs {
			cells = append(cells, &cell{FS: "gpfs", Program: p, Mode: paracrash.ModeBrute, K: 2, Workers: workers})
		}
		for _, fs := range []string{"beegfs", "orangefs", "glusterfs"} {
			cells = append(cells, &cell{FS: fs, Program: "H5-parallel-create", Mode: paracrash.ModeBrute, K: 2, Workers: workers})
		}
		return cells
	}
}

// genPoolSize is how many generated programs gen-posix runs per pass. The
// pool is fixed (generator seeds 1..genPoolSize) because golden.json can
// only pin verdicts of programs it has seen; see README "Seeds".
const genPoolSize = 24

func genCells() []*cell {
	var cells []*cell
	for s := int64(1); s <= genPoolSize; s++ {
		for _, fs := range exps.FSNames() {
			cells = append(cells, &cell{FS: fs, GenSeed: s, Mode: paracrash.ModePruning, K: 1, Workers: 1})
		}
	}
	return cells
}

// engine is a set-up engine workload: resolved cells in this run's order.
type engine struct {
	w      *workload
	cells  []*cell
	golden golden
}

// setUpEngine builds the cells, orders them by seed, loads the golden
// verdicts and runs the discarded warm-up pass.
func setUpEngine(ctx context.Context, w *workload, cfg runConfig) (*engine, error) {
	cells := w.cells()
	if cfg.Quick && len(cells) > 2 {
		cells = cells[:2]
	}
	for _, c := range cells {
		if err := c.resolve(); err != nil {
			return nil, err
		}
	}
	// The seed decides the order cells run in, not which cells run: every
	// pass does the same work under any seed.
	rand.New(rand.NewSource(cfg.Seed)).Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	e := &engine{w: w, cells: cells, golden: g}
	if !cfg.Quick {
		if p := e.pass(ctx, nil, nil); p.failed > 0 {
			return nil, fmt.Errorf("%s: warm-up pass: %s", w.Name, p.firstErr)
		}
	}
	return e, nil
}

// pass is one run of every cell.
type pass struct {
	seconds  float64
	cellMs   []float64
	states   int
	failed   int
	firstErr string
	mem      memDelta
}

// pass runs every cell once and checks each verdict. With a tracer, each
// cell runs under a passive obs.Run inside a "paracrash.run" span and acc
// collects its effort counts.
func (e *engine) pass(ctx context.Context, tr *tracer, acc *layerAcc) pass {
	var p pass
	fail := func(c *cell, err error) {
		p.failed++
		if p.firstErr == "" {
			p.firstErr = fmt.Sprintf("%s: %v", c.key(), err)
		}
	}
	before := readMem()
	start := time.Now()
	for _, c := range e.cells {
		var run *obs.Run
		if tr != nil {
			run = obs.NewRun()
		}
		root, endRoot := tr.start("cell", c.key(), 0)
		_, endRun := tr.start("paracrash.run", c.key(), root)
		t0 := time.Now()
		rep, err := c.run(ctx, run)
		p.cellMs = append(p.cellMs, ms(time.Since(t0)))
		endRun()
		if err != nil {
			endRoot()
			fail(c, err)
			continue
		}
		p.states += rep.Stats.StatesGenerated
		if err := e.golden.check(c.key(), rep); err != nil {
			fail(c, err)
		}
		if tr != nil {
			acc.addReport(rep, run.Summary())
			if err := probeCell(c, tr, root, acc); err != nil {
				fail(c, fmt.Errorf("layer probe: %w", err))
			}
		}
		endRoot()
	}
	p.seconds = time.Since(start).Seconds()
	p.mem = readMem().sub(before)
	return p
}

// memDelta is allocation and GC effort between two points in the process.
type memDelta struct {
	allocBytes, mallocs uint64
	gcCPUSeconds        float64
}

func readMem() memDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	d := memDelta{allocBytes: m.TotalAlloc, mallocs: m.Mallocs}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		d.gcCPUSeconds = s[0].Value.Float64()
	}
	return d
}

func (d memDelta) sub(o memDelta) memDelta {
	return memDelta{d.allocBytes - o.allocBytes, d.mallocs - o.mallocs, d.gcCPUSeconds - o.gcCPUSeconds}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// measure runs timed passes for cfg.Seconds and fills the result.
// Untraced, it reports the end-to-end metrics; traced, it alternates
// untraced and traced passes so the per-layer numbers and the tracing
// overhead come from the same process.
func (e *engine) measure(ctx context.Context, cfg runConfig, res *result) {
	var (
		tr          *tracer
		passes      []float64
		cellMs      []float64
		states      int
		plainRuns   []float64
		tracedRuns  []float64
		layerPasses []map[string]float64
	)
	if cfg.Trace {
		tr = newTracer()
	}
	deadline := time.Now().Add(cfg.duration())
	for first := true; first || (!cfg.Quick && time.Now().Before(deadline)); first = false {
		p := e.pass(ctx, nil, nil)
		res.count(len(e.cells), p.failed, p.firstErr)
		passes = append(passes, p.seconds)
		cellMs = append(cellMs, p.cellMs...)
		states = p.states
		if !cfg.Trace {
			continue
		}
		plainRuns = append(plainRuns, sum(p.cellMs))
		acc := newLayerAcc()
		mark := tr.len()
		tp := e.pass(ctx, tr, acc)
		res.count(len(e.cells), tp.failed, tp.firstErr)
		tracedRuns = append(tracedRuns, sum(tp.cellMs))
		m := acc.metrics(tr.from(mark))
		m["engine.alloc_mb_per_pass"] = float64(p.mem.allocBytes) / 1e6
		m["engine.allocs_per_state"] = ratio(float64(p.mem.mallocs), float64(p.states))
		m["engine.gc_cpu_share"] = ratio(p.mem.gcCPUSeconds, p.seconds)
		layerPasses = append(layerPasses, m)
	}

	passS := median(passes)
	if !cfg.Trace {
		res.set("pass_s", passS, passes)
		res.set("states_per_s", float64(states)*float64(len(passes))/sum(passes), nil)
		res.set("job_p50_ms", median(cellMs), cellMs)
		res.set("job_tail_ms", percentile(cellMedians(cellMs, len(e.cells)), e.w.TailPct), nil)
		res.set("jobs_per_s", float64(len(cellMs))/sum(passes), nil)
		return
	}

	for _, def := range perLayer {
		var xs []float64
		for _, m := range layerPasses {
			if v, ok := m[def.Name]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) > 0 {
			res.set(def.Name, median(xs), xs)
		}
	}
	// Like with like: the checker calls of a traced pass (passive obs.Run
	// attached, span recorded) against the same calls of an untraced pass.
	res.set("trace_overhead_share", median(tracedRuns)/median(plainRuns)-1, nil)
	res.set("job_tail_percentile", e.w.TailPct, nil)
	res.set("engine.peak_rss_mb", peakRSSMB(), nil)
	if e.cells[0].Workers > 1 {
		serial := e.serialPass(ctx)
		res.set("parallel.speedup_w2", serial/passS, nil)
		res.set("parallel.efficiency", serial/passS/2, nil)
	}
	res.spans = tr.from(0)
}

// cellMedians folds the passes' per-cell times (cell i of pass p at
// p*cells+i) into each cell's median over the passes.
func cellMedians(cellMs []float64, cells int) []float64 {
	out := make([]float64, cells)
	for i := range out {
		var xs []float64
		for j := i; j < len(cellMs); j += cells {
			xs = append(xs, cellMs[j])
		}
		out[i] = median(xs)
	}
	return out
}

// serialPass times the workload's cells with Workers=1, the base of the
// parallel speed-up.
func (e *engine) serialPass(ctx context.Context) float64 {
	serial := *e
	serial.cells = nil
	for _, c := range e.cells {
		s := *c
		s.Workers = 1
		serial.cells = append(serial.cells, &s)
	}
	return serial.pass(ctx, nil, nil).seconds
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
