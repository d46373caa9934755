package obs

import (
	"sort"
	"sync"
)

// Router is the read side of the telemetry pipeline: it pulls samples from
// attached collectors (one per job, plus an unlabeled process collector)
// on each Sample and aggregates per-job series into fleet-level rollups.
// Nothing is pushed; /metrics is one Sample per scrape (see PromHandler).
//
// Fleet aggregation is merge-order independent: counters sum across live
// collectors plus the folded totals of detached ones (Detach folds a
// collector's final counter values into the fleet as it removes it), and
// addition commutes, so any interleaving of job completions yields the
// same fleet totals. Gauges are instantaneous and sum across live
// collectors only — a finished job's queue depths are meaningless.
type Router struct {
	mu         sync.Mutex
	collectors map[string]Collector
	order      []string
	retired    map[string]float64 // counter name -> folded total
	retOrder   []string
}

// NewRouter returns an empty router. Attach collectors, then Sample it.
func NewRouter() *Router {
	return &Router{
		collectors: map[string]Collector{},
		retired:    map[string]float64{},
	}
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

// Detach removes the collector attached under job and folds its final
// counter values into the fleet's retired totals, both in one critical
// section, so fleet counters stay monotonic across job completions: no
// Sample sees the collector gone and its counters not yet folded. Gauges
// and unknown labels fold nothing.
func (rt *Router) Detach(job string) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	c, ok := rt.collectors[job]
	if !ok {
		return
	}
	delete(rt.collectors, job)
	for i, l := range rt.order {
		if l == job {
			rt.order = append(rt.order[:i], rt.order[i+1:]...)
			break
		}
	}
	for _, m := range c.CollectMetrics(nil) {
		if m.Kind != KindCounter {
			continue
		}
		if _, seen := rt.retired[m.Name]; !seen {
			rt.retOrder = append(rt.retOrder, m.Name)
		}
		rt.retired[m.Name] += m.Value
	}
}

// Sample performs one synchronous collection pass: pull every attached
// collector, aggregate, and return the combined batch — fleet
// series (empty Job) and per-job series, sorted by name then job for
// deterministic output.
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
