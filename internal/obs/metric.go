package obs

// MetricKind classifies a metric sample: the Prometheus exposition's
// # TYPE line, and whether a detached collector's value folds into the
// fleet totals.
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

// Metric is one sample read through a Router: a named
// value with a kind and an optional job label. The fleet-level series of a
// router carries an empty Job; per-job series carry the job identifier the
// collector was attached under.
type Metric struct {
	// Name is the registry name, slash-separated ("states/checked",
	// "phase/explore/seconds"). The exposition maps it onto the
	// Prometheus alphabet (see SanitizeMetricName).
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
// pull from every attached collector on each Sample.
type Collector interface {
	// CollectMetrics appends the collector's current samples to dst and
	// returns the extended slice. Implementations leave Job empty — the
	// router labels samples with the attachment label — and must not call
	// the router they are attached to: Detach holds its lock across the
	// collector's final read.
	CollectMetrics(dst []Metric) []Metric
}

// CollectMetrics implements Collector on a Run: counters, then gauges,
// then timers (each timer as two counter samples, <name>/seconds and
// <name>/count), all in registration order. A nil run collects nothing.
func (r *Run) CollectMetrics(dst []Metric) []Metric {
	reg := r.read()
	for _, c := range reg.counters {
		dst = append(dst, Metric{Name: c.name, Kind: KindCounter, Value: float64(c.v)})
	}
	for _, g := range reg.gauges {
		dst = append(dst, Metric{Name: g.name, Kind: KindGauge, Value: float64(g.v)})
	}
	for _, t := range reg.timers {
		dst = append(dst,
			Metric{Name: t.Name + "/seconds", Kind: KindCounter, Value: t.Seconds},
			Metric{Name: t.Name + "/count", Kind: KindCounter, Value: float64(t.Count)},
		)
	}
	return dst
}
