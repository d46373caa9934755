package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// staticCollector yields a fixed sample set — deterministic router input.
type staticCollector []Metric

func (c staticCollector) CollectMetrics(dst []Metric) []Metric {
	return append(dst, c...)
}

func TestRouterFleetAndPerJobSeries(t *testing.T) {
	rt := NewRouter()
	proc := NewRun()
	proc.Counter("jobs/submitted").Add(2)
	rt.Attach("", proc)
	rt.Attach("job-a", staticCollector{
		{Name: "states/checked", Kind: KindCounter, Value: 10},
		{Name: "queue/depth", Kind: KindGauge, Value: 3},
	})
	rt.Attach("job-b", staticCollector{
		{Name: "states/checked", Kind: KindCounter, Value: 5},
	})

	batch := rt.Sample()
	if m, ok := find(batch, "states/checked", ""); !ok || m.Value != 15 {
		t.Fatalf("fleet states/checked = %+v (ok=%v), want 15", m, ok)
	}
	if m, ok := find(batch, "states/checked", "job-a"); !ok || m.Value != 10 {
		t.Fatalf("per-job states/checked = %+v (ok=%v), want 10", m, ok)
	}
	if m, ok := find(batch, "states/checked", "job-b"); !ok || m.Value != 5 {
		t.Fatalf("per-job states/checked = %+v (ok=%v), want 5", m, ok)
	}
	// The process-level collector contributes to the fleet only: no series
	// labeled with the empty job beyond the fleet rollup, and no per-job
	// jobs/submitted.
	if m, ok := find(batch, "jobs/submitted", ""); !ok || m.Value != 2 {
		t.Fatalf("fleet jobs/submitted = %+v (ok=%v), want 2", m, ok)
	}
	if _, ok := find(batch, "jobs/submitted", "job-a"); ok {
		t.Fatal("process-level series leaked into a job label")
	}
	// Sorted by (name, job), fleet ("") first within a name.
	if !sort.SliceIsSorted(batch, func(i, j int) bool {
		if batch[i].Name != batch[j].Name {
			return batch[i].Name < batch[j].Name
		}
		return batch[i].Job < batch[j].Job
	}) {
		t.Fatalf("batch not sorted: %+v", batch)
	}
}

func TestRouterDetachFoldsCounters(t *testing.T) {
	rt := NewRouter()
	run := NewRun()
	run.Counter("states/checked").Add(9)
	run.Gauge("queue/depth").Set(4)
	rt.Attach("job-a", run)

	rt.Detach("job-a")
	batch := rt.Sample()
	var fleet, perJob, gauges int
	for _, m := range batch {
		switch {
		case m.Name == "states/checked" && m.Job == "":
			fleet++
			if m.Value != 9 {
				t.Fatalf("folded fleet counter = %g, want 9", m.Value)
			}
		case m.Name == "states/checked":
			perJob++
		case m.Name == "queue/depth":
			gauges++
		}
	}
	if fleet != 1 {
		t.Fatalf("fleet counter series = %d, want 1\n%+v", fleet, batch)
	}
	if perJob != 0 {
		t.Fatalf("detached job still has per-job series: %+v", batch)
	}
	if gauges != 0 {
		t.Fatalf("detached job's gauge survived the fold: %+v", batch)
	}

	// Detaching an unknown label folds nothing and does not panic.
	rt.Detach("nope")
}

// TestRouterMergeOrderIndependence is the aggregation property test: for a
// randomized fleet of jobs with random counter values, the final fleet
// totals are identical whatever order the jobs complete in, and however
// sampling interleaves with completions — fold-on-detach plus commutative
// addition makes the rollup associative.
func TestRouterMergeOrderIndependence(t *testing.T) {
	const jobs = 12
	rng := rand.New(rand.NewSource(42))

	type jobSpec struct {
		label string
		vals  map[string]float64
	}
	names := []string{"states/checked", "states/deduped", "restores/servers", "ops/replayed"}
	specs := make([]jobSpec, jobs)
	want := map[string]float64{}
	for i := range specs {
		specs[i] = jobSpec{label: fmt.Sprintf("job-%02d", i), vals: map[string]float64{}}
		for _, n := range names {
			if rng.Intn(4) == 0 {
				continue // not every job touches every counter
			}
			v := float64(rng.Intn(1000))
			specs[i].vals[n] = v
			want[n] += v
		}
	}

	fleetTotals := func(batch []Metric) map[string]float64 {
		out := map[string]float64{}
		for _, m := range batch {
			if m.Job == "" {
				out[m.Name] += m.Value
			}
		}
		return out
	}

	var baseline map[string]float64
	for trial := 0; trial < 20; trial++ {
		rt := NewRouter()
		for _, s := range specs {
			var batch []Metric
			for _, n := range names {
				if v, ok := s.vals[n]; ok {
					batch = append(batch, Metric{Name: n, Kind: KindCounter, Value: v})
				}
			}
			rt.Attach(s.label, staticCollector(batch))
		}
		// Complete the jobs in a fresh random order, sampling mid-stream at
		// random points — intermediate samples must not perturb the end state.
		perm := rng.Perm(jobs)
		for _, idx := range perm {
			if rng.Intn(2) == 0 {
				rt.Sample()
			}
			rt.Detach(specs[idx].label)
		}
		got := fleetTotals(rt.Sample())
		if trial == 0 {
			baseline = got
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("fleet totals = %v, want %v", got, want)
			}
			continue
		}
		if !reflect.DeepEqual(got, baseline) {
			t.Fatalf("trial %d (order %v): fleet totals = %v, differ from baseline %v", trial, perm, got, baseline)
		}
	}
}

// TestRouterSampleReadsLiveValues: every Sample reads the collectors
// anew, so a counter bumped between two samples shows its new value, per
// job and in the fleet rollup.
func TestRouterSampleReadsLiveValues(t *testing.T) {
	rt := NewRouter()
	run := NewRun()
	rt.Attach("j", run)
	c := run.Counter("states/checked")
	for _, want := range []float64{3, 5} {
		c.Add(int64(want) - c.Value())
		batch := rt.Sample()
		if m, ok := find(batch, "states/checked", "j"); !ok || m.Value != want {
			t.Fatalf("per-job sample = %+v (ok=%v), want %g", m, ok, want)
		}
		if m, ok := find(batch, "states/checked", ""); !ok || m.Value != want {
			t.Fatalf("fleet sample = %+v (ok=%v), want %g", m, ok, want)
		}
	}
}

// blockingCollector reports a fixed counter; once armed, its next
// CollectMetrics call signals entered and waits for release.
type blockingCollector struct {
	value   float64
	armed   bool
	entered chan struct{}
	release chan struct{}
}

func (c *blockingCollector) CollectMetrics(dst []Metric) []Metric {
	if c.armed {
		close(c.entered)
		<-c.release
	}
	return append(dst, Metric{Name: "states/checked", Kind: KindCounter, Value: c.value})
}

// TestRouterDetachNeverLowersFleetCounters holds Detach to monotonic fleet
// counters: a collector blocks inside Detach's final read while another
// goroutine samples, and no sample may read the fleet counter below its
// value before the Detach.
func TestRouterDetachNeverLowersFleetCounters(t *testing.T) {
	rt := NewRouter()
	c := &blockingCollector{value: 7, entered: make(chan struct{}), release: make(chan struct{})}
	rt.Attach("job-a", c)
	before, _ := find(rt.Sample(), "states/checked", "")
	if before.Value != 7 {
		t.Fatalf("fleet counter before Detach = %g, want 7", before.Value)
	}

	c.armed = true
	detached := make(chan struct{})
	go func() {
		rt.Detach("job-a")
		close(detached)
	}()
	<-c.entered // Detach is inside the collector's final read

	var reads []float64
	firstRead, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for i := 0; ; i++ {
			m, _ := find(rt.Sample(), "states/checked", "")
			reads = append(reads, m.Value)
			if i == 0 {
				close(firstRead)
			}
			select {
			case <-detached:
				return
			default:
			}
		}
	}()
	// A Detach that reads and folds in one critical section holds every
	// Sample off until it returns; one that does not lets the first read
	// land while the collector is gone and its counters are not yet folded.
	select {
	case <-firstRead:
	case <-time.After(50 * time.Millisecond):
	}
	close(c.release)
	<-sampled

	for i, v := range reads {
		if v < before.Value {
			t.Fatalf("sample %d of %d read the fleet counter at %g, below %g before Detach", i+1, len(reads), v, before.Value)
		}
	}
	if after, _ := find(rt.Sample(), "states/checked", ""); after.Value != 7 {
		t.Fatalf("fleet counter after Detach = %g, want 7", after.Value)
	}
}

// find returns the sample with the given name and job label.
func find(batch []Metric, name, job string) (Metric, bool) {
	for _, m := range batch {
		if m.Name == name && m.Job == job {
			return m, true
		}
	}
	return Metric{}, false
}

func TestRouterNilIsNoop(t *testing.T) {
	var rt *Router
	rt.Attach("j", NewRun())
	rt.Detach("j")
	if rt.Sample() != nil {
		t.Fatal("nil router must be inert")
	}
}
