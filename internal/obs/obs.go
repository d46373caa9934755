// Package obs is the telemetry layer of ParaCrash. A Run collects phase
// timers, atomic counters and gauges; every output is a read of it, never
// a push:
//
//   - once: the JSON Summary behind -metrics and /debug/obs;
//   - per interval: the progress Event that Follow samples for the CLIs'
//     -progress and -progress-jsonl and the daemon's events stream;
//   - per scrape: a Router's Sample over attached collectors (one per job,
//     plus the process), rendered by /metrics in the Prometheus text
//     format, with a finished job's counters folded into fleet totals.
//
// Serve is the opt-in pprof, /debug/obs and /metrics endpoint.
//
// The package is built around one invariant: observability is passive. A
// Run only ever records what the exploration engine did; it never feeds
// back into visiting order, pruning, caching, or any other decision, so
// the byte-identical-report determinism contract of the parallel engine
// holds with metrics on or off.
//
// The second invariant is that the disabled path is free. A nil *Run is a
// valid no-op collector: every method on a nil *Run — and on the nil
// *Counter / *Gauge handles it hands out — is safe, does nothing, and
// allocates nothing, so instrumented hot paths (per-crash-state counter
// bumps, per-restore timers) need no conditionals and cost ~1ns when
// metrics are off. obs_test.go pins this with testing.AllocsPerRun.
package obs

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"
)

// Phase names used by the exploration engine (paper §6's effort breakdown:
// where a run's wall time goes).
const (
	// PhaseTrace covers preamble execution, library seeding and the traced
	// test-program run.
	PhaseTrace = "trace"
	// PhaseGraph covers causality analysis, layer-op extraction and the
	// golden-state replays.
	PhaseGraph = "graph-build"
	// PhaseGenerate covers crash-state enumeration (Algorithm 1). Every
	// run, fleet shards included, generates its whole state list before it
	// explores it.
	PhaseGenerate = "generate"
	// PhaseExplore covers crash-state reconstruction and checking.
	PhaseExplore = "explore"
	// PhaseCampaign covers a fuzz campaign's oracle evaluation: every
	// explorer run the campaign performs is nested inside it.
	PhaseCampaign = "campaign"
	// PhaseMinimize covers delta-debugging minimization of an oracle
	// violation (nested inside PhaseCampaign).
	PhaseMinimize = "minimize"
	// PhaseResume covers checkpoint-journal loading: parsing previously
	// completed crash-state verdicts so exploration continues from the
	// frontier instead of restarting.
	PhaseResume = "resume"
)

// nopStop is the stop function handed out by nil runs; returning a shared
// value keeps the disabled timer path allocation-free.
var nopStop = func() {}

// Counter is a monotonically increasing atomic counter. Handles are
// obtained from Run.Counter and are safe for concurrent use; a nil
// *Counter is a no-op.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name returns the counter's registered name.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Gauge is an instantaneous atomic value (queue depths, high-water marks).
// A nil *Gauge is a no-op.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta (negative to decrement).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Max raises the gauge to v if v is larger (high-water-mark semantics).
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 for a nil handle).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Timer accumulates the total duration and count of a named span across
// concurrent spans. Handles are obtained from Run.Timer and are safe for
// concurrent use; a nil *Timer is a no-op.
type Timer struct {
	ns atomic.Int64
	n  atomic.Int64
}

// Since records one span that began at begin and ends now. It takes no lock
// and allocates nothing, so a hot path that resolved its handle once can
// time each call for one clock pair.
func (t *Timer) Since(begin time.Time) {
	if t != nil {
		t.ns.Add(int64(time.Since(begin)))
		t.n.Add(1)
	}
}

// Run collects the metrics of one ParaCrash invocation (or one experiment
// batch — concurrent cells may share a Run; spans accumulate).
type Run struct {
	start time.Time

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
	// registration order, for stable summaries and progress lines
	counterOrder []string
	gaugeOrder   []string
	timerOrder   []string

	curPhase atomic.Value // string
}

// NewRun returns an active metrics collector anchored at the current time.
func NewRun() *Run {
	r := &Run{
		start:    time.Now(),
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		timers:   map[string]*Timer{},
	}
	r.curPhase.Store("")
	return r
}

// Counter returns (registering on first use) the named counter. Returns a
// nil no-op handle when r is nil.
func (r *Run) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
		r.counterOrder = append(r.counterOrder, name)
	}
	return c
}

// Gauge returns (registering on first use) the named gauge. Returns a nil
// no-op handle when r is nil.
func (r *Run) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
		r.gaugeOrder = append(r.gaugeOrder, name)
	}
	return g
}

// StartTimer opens a monotonic span under name and returns its stop
// function. Spans may overlap freely (concurrent workers, recursive
// phases); the timer accumulates total duration and count. An unstopped
// span (error return mid-phase) contributes nothing.
func (r *Run) StartTimer(name string) func() {
	if r == nil {
		return nopStop
	}
	t := r.Timer(name)
	begin := time.Now()
	return func() { t.Since(begin) }
}

// Timer returns (registering on first use) the named timer, for hot paths
// that time every call: resolve the handle once, then record each span with
// Timer.Since. Returns a nil no-op handle when r is nil.
func (r *Run) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
		r.timerOrder = append(r.timerOrder, name)
	}
	return t
}

// Phase opens a span for a top-level pipeline phase and marks it as the
// run's current phase (shown by progress events). Returns the stop
// function, like StartTimer.
func (r *Run) Phase(name string) func() {
	if r == nil {
		return nopStop
	}
	r.curPhase.Store(name)
	return r.StartTimer("phase/" + name)
}

// CurrentPhase returns the most recently started phase ("" before the
// first or on a nil run).
func (r *Run) CurrentPhase() string {
	if r == nil {
		return ""
	}
	s, _ := r.curPhase.Load().(string)
	return s
}

// Elapsed returns the wall time since the run started.
func (r *Run) Elapsed() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}

// TimerStat is one named span's accumulated totals.
type TimerStat struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Count   int64   `json:"count"`
}

// Summary is the end-of-run metrics snapshot: the schema behind the
// -metrics JSON file.
type Summary struct {
	StartedAt   time.Time        `json:"started_at"`
	WallSeconds float64          `json:"wall_seconds"`
	Timers      []TimerStat      `json:"timers"`
	Counters    map[string]int64 `json:"counters"`
	Gauges      map[string]int64 `json:"gauges"`
}

// Summary snapshots the run. Safe to call concurrently with updates and
// more than once; a nil run yields an empty summary.
func (r *Run) Summary() *Summary {
	s := &Summary{}
	if r != nil {
		s.StartedAt, s.WallSeconds = r.start, r.Elapsed().Seconds()
	}
	reg := r.read()
	s.Timers, s.Counters, s.Gauges = reg.timers, values(reg.counters), values(reg.gauges)
	return s
}

// registry is one read of a run's counters, gauges and timers, each in
// registration order. Summary, Event and CollectMetrics render it.
type registry struct {
	counters, gauges []namedValue
	timers           []TimerStat
}

// namedValue is one counter or gauge value in a registry read.
type namedValue struct {
	name string
	v    int64
}

// read takes the run's registry under r.mu; a nil run reads empty.
func (r *Run) read() registry {
	var reg registry
	if r == nil {
		return reg
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range r.counterOrder {
		reg.counters = append(reg.counters, namedValue{n, r.counters[n].v.Load()})
	}
	for _, n := range r.gaugeOrder {
		reg.gauges = append(reg.gauges, namedValue{n, r.gauges[n].v.Load()})
	}
	for _, n := range r.timerOrder {
		t := r.timers[n]
		reg.timers = append(reg.timers, TimerStat{Name: n, Seconds: time.Duration(t.ns.Load()).Seconds(), Count: t.n.Load()})
	}
	return reg
}

// values maps each value's name to the value.
func values(vs []namedValue) map[string]int64 {
	m := make(map[string]int64, len(vs))
	for _, v := range vs {
		m[v.name] = v.v
	}
	return m
}

// SummaryJSON renders the summary as indented JSON, ready for -metrics
// files.
func (r *Run) SummaryJSON() ([]byte, error) {
	return json.MarshalIndent(r.Summary(), "", "  ")
}
