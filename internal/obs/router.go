package obs

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"paracrash/internal/faultinject"
)

// routerSinkQueue is the per-sink batch buffer depth. A sink that falls
// further behind than this loses whole batches (counted by Dropped), never
// stalling the sampling loop or any instrumented hot path.
const routerSinkQueue = 8

// sinkWorker decouples one sink from the router: batches are handed over a
// bounded channel and written on a dedicated goroutine, so a blocking or
// erroring sink can only ever cost its own batches.
type sinkWorker struct {
	sink MetricSink
	ch   chan []Metric
	done chan struct{}
}

// Router is the middle of the telemetry pipeline: it pulls samples from
// attached collectors (one per job, plus an unlabeled process collector),
// aggregates per-job series into fleet-level rollups, and fans the
// combined batch out to sinks — each behind a bounded, drop-on-overflow
// queue so telemetry can never stall the exploration hot path.
//
// Fleet aggregation is merge-order independent: counters sum across live
// collectors plus the folded totals of detached ones (Detach folds a
// collector's final counter values into the fleet before removing it), and
// addition commutes, so any interleaving of job completions yields the
// same fleet totals. Gauges are instantaneous and sum across live
// collectors only — a finished job's queue depths are meaningless.
type Router struct {
	mu         sync.Mutex
	collectors map[string]Collector
	order      []string
	retired    map[string]float64 // counter name -> folded total
	retOrder   []string
	workers    []*sinkWorker
	faults     *faultinject.Plan

	loopStop chan struct{}
	loopDone chan struct{}

	dropped atomic.Int64
	errs    atomic.Int64

	// DrainTimeout bounds how long Close waits for sink workers to flush
	// their queued batches; a sink still blocked past it is abandoned
	// (zero means the 2s default). Set before Close.
	DrainTimeout time.Duration
}

// NewRouter returns an empty router. Attach collectors, add sinks, then
// either Start a sampling loop or call Publish manually.
func NewRouter() *Router {
	return &Router{
		collectors: map[string]Collector{},
		retired:    map[string]float64{},
	}
}

// SetFaults arms the deterministic fault plane on the sink path (site
// "obs/sink-write", keyed by sink index) — the chaos tests' handle for
// proving that failing sinks drop metrics without touching verdicts.
func (rt *Router) SetFaults(p *faultinject.Plan) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	rt.faults = p
	rt.mu.Unlock()
}

// Attach registers a collector under the given job label; samples it
// yields are emitted as per-job series and aggregated into the fleet
// rollup. The empty label is the process-level collector (a daemon's own
// run): its samples contribute to the fleet without a per-job series.
// Re-attaching a label replaces the collector.
func (rt *Router) Attach(job string, c Collector) {
	if rt == nil || c == nil {
		return
	}
	rt.mu.Lock()
	if _, ok := rt.collectors[job]; !ok {
		rt.order = append(rt.order, job)
	}
	rt.collectors[job] = c
	rt.mu.Unlock()
}

// Detach removes the collector attached under job, folding its final
// counter values into the fleet's retired
// totals so fleet counters stay monotonic across job completions. Gauges
// and unknown labels fold nothing.
func (rt *Router) Detach(job string) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	c, ok := rt.collectors[job]
	if ok {
		delete(rt.collectors, job)
		for i, l := range rt.order {
			if l == job {
				rt.order = append(rt.order[:i], rt.order[i+1:]...)
				break
			}
		}
	}
	rt.mu.Unlock()
	if !ok {
		return
	}
	final := c.CollectMetrics(nil)
	rt.mu.Lock()
	for _, m := range final {
		if m.Kind != KindCounter {
			continue
		}
		if _, seen := rt.retired[m.Name]; !seen {
			rt.retOrder = append(rt.retOrder, m.Name)
		}
		rt.retired[m.Name] += m.Value
	}
	rt.mu.Unlock()
}

// AddSink attaches a sink behind a bounded queue and its own writer
// goroutine. Batches that do not fit the queue are dropped (see Dropped);
// write errors and injected faults are counted (see Errors) and never
// propagate.
func (rt *Router) AddSink(s MetricSink) {
	if rt == nil || s == nil {
		return
	}
	w := &sinkWorker{sink: s, ch: make(chan []Metric, routerSinkQueue), done: make(chan struct{})}
	rt.mu.Lock()
	rt.workers = append(rt.workers, w)
	idx := len(rt.workers) - 1
	rt.mu.Unlock()
	go rt.runSink(w, idx)
}

// runSink drains one sink's queue until the channel closes.
func (rt *Router) runSink(w *sinkWorker, idx int) {
	defer close(w.done)
	key := "sink-" + strconv.Itoa(idx)
	for batch := range w.ch {
		rt.writeOne(w, key, batch)
	}
}

// writeOne performs one guarded sink write: injected faults and sink
// errors are counted, and a panicking sink (or an injected KindPanic) is
// quarantined as one more error instead of killing the process.
func (rt *Router) writeOne(w *sinkWorker, key string, batch []Metric) {
	defer func() {
		if v := recover(); v != nil {
			rt.errs.Add(1)
		}
	}()
	rt.mu.Lock()
	faults := rt.faults
	rt.mu.Unlock()
	if err := faults.Point("obs/sink-write", key); err != nil {
		rt.errs.Add(1)
		return
	}
	if err := w.sink.WriteMetrics(batch); err != nil {
		rt.errs.Add(1)
	}
}

// Sample performs one synchronous collection pass: pull every attached
// collector, aggregate, and return the combined batch — fleet
// series (empty Job) and per-job series, sorted by name then job for
// deterministic output. Sample never touches the sinks; Publish does.
func (rt *Router) Sample() []Metric {
	if rt == nil {
		return nil
	}
	rt.mu.Lock()
	labels := append([]string(nil), rt.order...)
	colls := make([]Collector, len(labels))
	for i, l := range labels {
		colls[i] = rt.collectors[l]
	}
	retNames := append([]string(nil), rt.retOrder...)
	retired := make(map[string]float64, len(retNames))
	for _, n := range retNames {
		retired[n] = rt.retired[n]
	}
	rt.mu.Unlock()

	type series struct {
		kind  MetricKind
		value float64
	}
	fleet := map[string]*series{}
	var fleetOrder []string
	addFleet := func(name string, kind MetricKind, v float64) {
		s, ok := fleet[name]
		if !ok {
			s = &series{kind: kind}
			fleet[name] = s
			fleetOrder = append(fleetOrder, name)
		}
		s.value += v
	}

	var perJob []Metric
	var scratch []Metric
	for i, c := range colls {
		scratch = c.CollectMetrics(scratch[:0])
		for _, m := range scratch {
			addFleet(m.Name, m.Kind, m.Value)
			if labels[i] != "" {
				perJob = append(perJob, Metric{Name: m.Name, Kind: m.Kind, Job: labels[i], Value: m.Value})
			}
		}
	}
	for _, n := range retNames {
		addFleet(n, KindCounter, retired[n])
	}
	if d := rt.dropped.Load(); d > 0 {
		addFleet("obs/router/dropped-batches", KindCounter, float64(d))
	}
	if e := rt.errs.Load(); e > 0 {
		addFleet("obs/router/sink-errors", KindCounter, float64(e))
	}

	batch := make([]Metric, 0, len(fleetOrder)+len(perJob))
	for _, n := range fleetOrder {
		batch = append(batch, Metric{Name: n, Kind: fleet[n].kind, Value: fleet[n].value})
	}
	batch = append(batch, perJob...)
	sort.SliceStable(batch, func(i, j int) bool {
		if batch[i].Name != batch[j].Name {
			return batch[i].Name < batch[j].Name
		}
		return batch[i].Job < batch[j].Job // "" (fleet) sorts first
	})
	return batch
}

// Publish samples once and hands the batch to every sink worker without
// blocking: a worker whose queue is full loses this batch (counted in
// Dropped). Safe from any goroutine.
func (rt *Router) Publish() {
	if rt == nil {
		return
	}
	batch := rt.Sample()
	if len(batch) == 0 {
		return
	}
	rt.mu.Lock()
	workers := append([]*sinkWorker(nil), rt.workers...)
	rt.mu.Unlock()
	for _, w := range workers {
		select {
		case w.ch <- batch:
		default:
			rt.dropped.Add(1)
		}
	}
}

// Start launches the sampling loop, publishing every interval until Close.
// Idempotent; non-positive intervals and nil routers are no-ops (Publish
// remains available for manual control).
func (rt *Router) Start(interval time.Duration) {
	if rt == nil || interval <= 0 {
		return
	}
	rt.mu.Lock()
	if rt.loopStop != nil {
		rt.mu.Unlock()
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	rt.loopStop, rt.loopDone = stop, done
	rt.mu.Unlock()
	go func() {
		defer close(done)
		every(stop, interval, rt.Publish)
	}()
}

// Close stops the sampling loop, publishes one final batch, and waits up
// to DrainTimeout for the sink workers to flush. A sink still blocked past
// the deadline is abandoned with its queued batches — shutdown is never
// hostage to a wedged sink. Safe on nil routers; idempotent.
func (rt *Router) Close() {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	stop, done := rt.loopStop, rt.loopDone
	rt.loopStop, rt.loopDone = nil, nil
	rt.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}

	rt.Publish()

	rt.mu.Lock()
	workers := rt.workers
	rt.workers = nil
	drain := rt.DrainTimeout
	rt.mu.Unlock()
	if drain <= 0 {
		drain = 2 * time.Second
	}
	deadline := time.NewTimer(drain)
	defer deadline.Stop()
	for _, w := range workers {
		close(w.ch)
	}
	for _, w := range workers {
		select {
		case <-w.done:
		case <-deadline.C:
			return
		}
	}
}

// Dropped returns how many batches were discarded because a sink's queue
// was full.
func (rt *Router) Dropped() int64 {
	if rt == nil {
		return 0
	}
	return rt.dropped.Load()
}

// Errors returns how many sink writes failed (sink errors plus injected
// faults).
func (rt *Router) Errors() int64 {
	if rt == nil {
		return 0
	}
	return rt.errs.Load()
}
