package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"paracrash/internal/obs"
	core "paracrash/internal/paracrash"
)

// scrape fetches /metrics and returns the exposition text.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// scrapeUntil polls /metrics until the predicate holds.
func scrapeUntil(t *testing.T, url, what string, pred func(string) bool) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var last string
	for time.Now().Before(deadline) {
		last = scrape(t, url)
		if pred(last) {
			return last
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s; last scrape:\n%s", what, last)
	return ""
}

// TestMetricsEndpointLifecycle drives the full per-job series lifecycle
// over HTTP: while a job runs, /metrics exposes its counters labeled
// job="<id>" alongside the fleet rollup and the daemon's own series; after
// completion the per-job series disappears and its counters stay folded
// into the monotonic fleet totals.
func TestMetricsEndpointLifecycle(t *testing.T) {
	st, _ := OpenStore("")
	run := obs.NewRun()
	s := NewScheduler(SchedulerConfig{MaxConcurrent: 1}, st, run)
	gate := make(chan struct{})
	s.executor = func(ctx context.Context, job *Job, jrun *obs.Run) (*core.Report, error) {
		jrun.Counter("states/checked").Add(7)
		select {
		case <-gate:
			return &core.Report{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s.Start()
	defer s.Drain(context.Background())
	srv := httptest.NewServer(NewServer(s, st, run))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, st, j.ID, JobRunning)

	perJob := `paracrash_states_checked_total{job="` + j.ID + `"} 7`
	running := scrapeUntil(t, srv.URL, "the running job's series", func(text string) bool {
		return strings.Contains(text, perJob)
	})
	for _, want := range []string{
		"# TYPE paracrash_states_checked_total counter",
		"paracrash_states_checked_total 7", // fleet rollup
		"paracrash_jobs_submitted_total 1", // daemon's own run, fleet-level
		"paracrash_jobs_running 1",
	} {
		if !strings.Contains(running, want) {
			t.Fatalf("running scrape missing %q:\n%s", want, running)
		}
	}

	close(gate)
	waitState(t, st, j.ID, JobDone)
	done := scrapeUntil(t, srv.URL, "the per-job series to retire", func(text string) bool {
		return !strings.Contains(text, perJob) && strings.Contains(text, "paracrash_jobs_done_total 1")
	})
	// Folded: the fleet total survives the job's completion.
	if !strings.Contains(done, "paracrash_states_checked_total 7") {
		t.Fatalf("fleet total lost after job completion:\n%s", done)
	}
	if strings.Contains(done, `job="`+j.ID+`"`) {
		t.Fatalf("finished job still has labeled series:\n%s", done)
	}
}

// TestSchedulerRouterRingSink asserts in-process what the HTTP test asserts
// over the wire: a sink attached to the scheduler's router receives each
// published batch with per-job and fleet series — no scraping involved.
func TestSchedulerRouterRingSink(t *testing.T) {
	st, _ := OpenStore("")
	s := NewScheduler(SchedulerConfig{MaxConcurrent: 1}, st, obs.NewRun())
	s.executor = func(ctx context.Context, job *Job, jrun *obs.Run) (*core.Report, error) {
		jrun.Counter("states/checked").Add(3)
		return &core.Report{}, nil
	}
	s.Start()
	defer s.Drain(context.Background())

	ring := &lastBatchSink{}
	s.Router().AddSink(ring)

	j, err := s.Submit(JobRequest{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, st, j.ID, JobDone)

	s.Router().Publish()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := ring.Find("states/checked", ""); ok {
			break
		}
		time.Sleep(time.Millisecond)
		s.Router().Publish()
	}
	m, ok := ring.Find("states/checked", "")
	if !ok || m.Value != 3 {
		t.Fatalf("ring fleet sample = (%+v, %v), want folded value 3", m, ok)
	}
	if m, ok := ring.Find("jobs/done", ""); !ok || m.Value != 1 {
		t.Fatalf("ring daemon sample = (%+v, %v), want jobs/done 1", m, ok)
	}
}

// TestChaosSchedulerWedgedSinkDoesNotStallJobs is the serve-layer chaos
// gate: a wedged telemetry sink on the scheduler's router — with an
// aggressive sampling loop — must not delay a real exploration job or its
// verdict.
func TestChaosSchedulerWedgedSinkDoesNotStallJobs(t *testing.T) {
	st, _ := OpenStore("")
	run := obs.NewRun()
	s := NewScheduler(SchedulerConfig{MaxConcurrent: 2}, st, run)
	s.Start()
	defer s.Drain(context.Background())

	router := s.Router()
	router.DrainTimeout = 50 * time.Millisecond
	wedged := &wedgedMetricSink{release: make(chan struct{})}
	defer close(wedged.release)
	router.AddSink(wedged)
	router.Start(time.Millisecond)
	defer router.Close()

	j, err := s.Submit(JobRequest{FS: "beegfs", Program: "ARVR", Mode: "pruning"})
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, st, j.ID, JobDone) // waitState's deadline IS the stall check
	if done.Report == nil {
		t.Fatal("job finished without a report under a wedged sink")
	}
}

// lastBatchSink keeps the most recent metric batch it was written.
type lastBatchSink struct {
	mu   sync.Mutex
	last []obs.Metric
}

func (s *lastBatchSink) WriteMetrics(batch []obs.Metric) error {
	s.mu.Lock()
	s.last = append([]obs.Metric(nil), batch...)
	s.mu.Unlock()
	return nil
}

// Find returns the sample with the given name and job label from the most
// recent batch (false when absent).
func (s *lastBatchSink) Find(name, job string) (obs.Metric, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.last {
		if m.Name == name && m.Job == job {
			return m, true
		}
	}
	return obs.Metric{}, false
}

// wedgedMetricSink blocks every metric write until released.
type wedgedMetricSink struct{ release chan struct{} }

func (s *wedgedMetricSink) WriteMetrics([]obs.Metric) error {
	<-s.release
	return nil
}
