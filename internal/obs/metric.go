package obs

import "time"

// MetricKind classifies a metric sample for sinks that care about
// semantics (the Prometheus exposition's # TYPE lines, rate computation in
// downstream collectors).
type MetricKind uint8

// Metric kinds. Counters are monotonically increasing across a collector's
// lifetime (and across the fleet: a detached collector's final counter
// values fold into the fleet totals); gauges are instantaneous.
const (
	// KindCounter marks a monotonically increasing sample (counter values
	// and timer totals).
	KindCounter MetricKind = iota
	// KindGauge marks an instantaneous sample (queue depths, high-water
	// marks).
	KindGauge
)

// String returns the Prometheus type name of the kind.
func (k MetricKind) String() string {
	if k == KindGauge {
		return "gauge"
	}
	return "counter"
}

// Metric is one sample flowing through the telemetry pipeline: a named
// value with a kind and an optional job label. The fleet-level series of a
// router carries an empty Job; per-job series carry the job identifier the
// collector was attached under.
type Metric struct {
	// Name is the registry name, slash-separated ("states/checked",
	// "phase/explore/seconds"). Sinks that need a restricted alphabet
	// sanitize it themselves (see SanitizeMetricName).
	Name string
	// Kind is the sample semantics: counter or gauge.
	Kind MetricKind
	// Job is the per-job label ("" for fleet/process-level series).
	Job string
	// Value is the sample. Counters and gauges are integral in the
	// registry; timer seconds are fractional.
	Value float64
}

// Collector is a source of metric samples. The obs Run is the canonical
// collector (counters, gauges and timers in registration order); routers
// pull from every attached collector on each sampling pass.
type Collector interface {
	// CollectMetrics appends the collector's current samples to dst and
	// returns the extended slice. Implementations leave Job empty — the
	// router labels samples with the attachment label.
	CollectMetrics(dst []Metric) []Metric
}

// CollectMetrics implements Collector on a Run: counters, then gauges,
// then timers (each timer as two counter samples, <name>/seconds and
// <name>/count), all in registration order. A nil run collects nothing.
func (r *Run) CollectMetrics(dst []Metric) []Metric {
	if r == nil {
		return dst
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range r.counterOrder {
		dst = append(dst, Metric{Name: n, Kind: KindCounter, Value: float64(r.counters[n].v.Load())})
	}
	for _, n := range r.gaugeOrder {
		dst = append(dst, Metric{Name: n, Kind: KindGauge, Value: float64(r.gauges[n].v.Load())})
	}
	for _, n := range r.timerOrder {
		t := r.timers[n]
		dst = append(dst,
			Metric{Name: n + "/seconds", Kind: KindCounter, Value: time.Duration(t.ns.Load()).Seconds()},
			Metric{Name: n + "/count", Kind: KindCounter, Value: float64(t.n.Load())},
		)
	}
	return dst
}
