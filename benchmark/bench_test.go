package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// benchmarkSpec mirrors BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesHarness keeps BENCHMARK.json and the harness's tables in
// step: same workloads with the same reasons, same metrics with the same
// units, directions and bounds.
func TestSpecMatchesHarness(t *testing.T) {
	spec := readSpec(t)
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", spec.PerLayer, perLayer)
	}
	if len(spec.Workloads) != len(benchWorkloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(benchWorkloads))
	}
	for i, w := range benchWorkloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %+v, code %s: %s", i, spec.Workloads[i], w.Name, w.Why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("metric %+v breaks the naming rules", d)
		}
	}
}

// TestQuickRun runs every workload in smoke mode, untraced and traced, and
// checks what the full run promises: every metric of BENCHMARK.json present
// with its unit and a finite value, verdicts equal to golden.json, and
// every span inside its parent.
func TestQuickRun(t *testing.T) {
	spec := readSpec(t)
	ctx := context.Background()
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name + "/end-to-end"
			defs := spec.EndToEnd
			if traced {
				name = w.Name + "/traced"
				defs = spec.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel() // values are not checked, only their presence; two cores halve the wait
				cfg := runConfig{Workload: w.Name, Seed: 1, Seconds: 1, Trace: traced, Quick: true, StateDir: t.TempDir()}
				res, err := runWorkload(ctx, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d errors=%v", res.Correct, res.Attempted, res.Failed, res.Errors)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("%s has unit %q, want %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s is %v", d.Name, m.Value)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end metric %s is %v, must be positive", d.Name, m.Value)
					}
				}
				if traced {
					checkSpans(t, res.spans)
				}
			})
		}
	}
}

func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Error("traced run recorded no spans")
	}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %s (%s) ends before it starts", s.Name, s.Cell)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %s names a parent that was not recorded", s.Name)
			continue
		}
		// Server-side timestamps of a job come from another clock reading
		// (wall clock, rounded by JSON); allow them a millisecond.
		slack := int64(0)
		if p.Name == "job" {
			slack = int64(time.Millisecond)
		}
		if s.StartNs < p.StartNs-slack || s.EndNs > p.EndNs+slack || s.Cell != p.Cell {
			t.Errorf("span %s [%d,%d] of %s lies outside its parent %s [%d,%d] of %s",
				s.Name, s.StartNs, s.EndNs, s.Cell, p.Name, p.StartNs, p.EndNs, p.Cell)
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {20, 50}, {39, 50}, {40, 75}, {48, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {3000, 99},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for p, want := range map[float64]float64{0: 1, 25: 2, 50: 3, 75: 4, 100: 5, 90: 4.6} {
		if got := percentile(xs, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
}

// TestQuartile pins the quartiles to Python's statistics.quantiles(n=4).
func TestQuartile(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if q1, q3 := quartile(xs, 1), quartile(xs, 3); math.Abs(q1-2.75) > 1e-9 || math.Abs(q3-8.25) > 1e-9 {
		t.Errorf("quartiles %v, %v; want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartile([]float64{5}, 1), quartile([]float64{5}, 3); q1 != 5 || q3 != 5 {
		t.Errorf("quartiles of one sample %v, %v; want 5, 5", q1, q3)
	}
}

func TestClassify(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same runs", steady, steady, lower, verdictWithin},
		{"5% slower, bound 10%", steady, scale(steady, 1.05), lower, verdictWithin},
		{"20% slower", steady, scale(steady, 1.20), lower, verdictWorse},
		{"20% faster", steady, scale(steady, 0.80), lower, verdictBetter},
		{"throughput down 20%", steady, scale(steady, 0.80), higher, verdictWorse},
		{"throughput up 20%", steady, scale(steady, 1.20), higher, verdictBetter},
		{"spread wider than the bound", wide, scale(wide, 1.02), lower, verdictUnresolved},
		{"wide, but every run better", wide, scale(wide, 0.4), lower, verdictBetter},
	} {
		if got := classify(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
