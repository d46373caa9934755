package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"
)

// MetricSink consumes sampled metric batches from a router. WriteMetrics
// is called from the sink's dedicated worker goroutine (one per AddSink),
// so implementations only need to serialise against themselves; the batch
// slice is shared between sinks and must not be mutated. A returned error
// is counted by the router and otherwise ignored — sinks are best-effort
// by design.
type MetricSink interface {
	WriteMetrics(batch []Metric) error
}

// TextSink renders each batch as human-oriented lines on W, one sample per
// line ("name value" for fleet series, `name{job="id"} value` for per-job
// series) with a blank line between batches — the stdout sink.
type TextSink struct {
	// W receives the rendered lines.
	W io.Writer
	// mu serialises writes from Flush-time callers against the worker.
	mu sync.Mutex
}

// WriteMetrics implements MetricSink.
func (s *TextSink) WriteMetrics(batch []Metric) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	for _, m := range batch {
		if m.Job == "" {
			fmt.Fprintf(&b, "%s %s\n", m.Name, formatValue(m.Value))
		} else {
			fmt.Fprintf(&b, "%s{job=%q} %s\n", m.Name, m.Job, formatValue(m.Value))
		}
	}
	b.WriteByte('\n')
	_, err := io.WriteString(s.W, b.String())
	return err
}

// metricJSON is the stable wire shape of one sample in JSON sinks and the
// HTTP push payload.
type metricJSON struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Job   string  `json:"job,omitempty"`
	Value float64 `json:"value"`
}

func toJSON(batch []Metric) []metricJSON {
	out := make([]metricJSON, len(batch))
	for i, m := range batch {
		out[i] = metricJSON{Name: m.Name, Kind: m.Kind.String(), Job: m.Job, Value: m.Value}
	}
	return out
}

// MetricJSONLSink writes each batch as one JSON array per line — the
// machine-readable file sink.
type MetricJSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewMetricJSONLSink returns a sink encoding batches onto w, one JSON
// array per line.
func NewMetricJSONLSink(w io.Writer) *MetricJSONLSink {
	return &MetricJSONLSink{enc: json.NewEncoder(w)}
}

// WriteMetrics implements MetricSink.
func (s *MetricJSONLSink) WriteMetrics(batch []Metric) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enc.Encode(toJSON(batch))
}

// HTTPPushSink POSTs each batch as a JSON array to URL — the push
// counterpart of the pull-style /metrics endpoint, for fleets funnelling
// into a central receiver. Requests are bounded by Timeout (default 5s) so
// a dead receiver costs at most one in-flight request per batch; the
// router's queue absorbs or drops the rest.
type HTTPPushSink struct {
	// URL is the receiver endpoint.
	URL string
	// Client overrides the HTTP client (nil uses a default with Timeout).
	Client *http.Client
	// Timeout bounds each push when Client is nil (default 5s).
	Timeout time.Duration

	once   sync.Once
	client *http.Client
}

// WriteMetrics implements MetricSink.
func (s *HTTPPushSink) WriteMetrics(batch []Metric) error {
	s.once.Do(func() {
		s.client = s.Client
		if s.client == nil {
			to := s.Timeout
			if to <= 0 {
				to = 5 * time.Second
			}
			s.client = &http.Client{Timeout: to}
		}
	})
	body, err := json.Marshal(toJSON(batch))
	if err != nil {
		return err
	}
	resp, err := s.client.Post(s.URL, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("obs: push to %s: status %s", s.URL, resp.Status)
	}
	return nil
}

// ParseSinkSpec builds a metric sink from a CLI -sink specification:
//
//	stdout          human-readable lines on standard output
//	stderr          the same on standard error
//	jsonl:PATH      one JSON array per batch appended to PATH
//	push:URL        POST each batch as JSON to URL (http:// or https://)
//
// It returns the sink and a close function releasing any resource the
// sink holds (the file sink's descriptor; nil-safe no-op otherwise).
func ParseSinkSpec(spec string) (MetricSink, func() error, error) {
	nop := func() error { return nil }
	switch {
	case spec == "stdout":
		return &TextSink{W: os.Stdout}, nop, nil
	case spec == "stderr":
		return &TextSink{W: os.Stderr}, nop, nil
	case strings.HasPrefix(spec, "jsonl:"):
		path := spec[len("jsonl:"):]
		if path == "" {
			return nil, nil, fmt.Errorf("obs: sink spec %q: empty path", spec)
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("obs: sink %q: %w", spec, err)
		}
		return NewMetricJSONLSink(f), f.Close, nil
	case strings.HasPrefix(spec, "push:"):
		url := spec[len("push:"):]
		if !strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://") {
			return nil, nil, fmt.Errorf("obs: sink spec %q: push URL must be http(s)", spec)
		}
		return &HTTPPushSink{URL: url}, nop, nil
	default:
		return nil, nil, fmt.Errorf("obs: unknown sink spec %q (want stdout, stderr, jsonl:PATH or push:URL)", spec)
	}
}

// SinkSpecList is a repeatable -sink flag value accumulating sink
// specifications (see ParseSinkSpec for the grammar).
type SinkSpecList []string

// String implements flag.Value.
func (l *SinkSpecList) String() string { return strings.Join(*l, ",") }

// Set implements flag.Value, validating the spec's shape eagerly so flag
// parsing reports bad specs (files are opened later by ParseSinkSpec).
func (l *SinkSpecList) Set(v string) error {
	switch {
	case v == "stdout", v == "stderr":
	case strings.HasPrefix(v, "jsonl:") && len(v) > len("jsonl:"):
	case strings.HasPrefix(v, "push:http://"), strings.HasPrefix(v, "push:https://"):
	default:
		return fmt.Errorf("unknown sink spec %q (want stdout, stderr, jsonl:PATH or push:URL)", v)
	}
	*l = append(*l, v)
	return nil
}

// formatValue renders a metric value without float noise: integral values
// (the common case — counters and gauges) print as integers.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
