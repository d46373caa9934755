package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"paracrash/internal/exps"
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

// TestSchedulerRouterSample asserts in-process what the HTTP test asserts
// over the wire: a Sample of the scheduler's router carries a finished
// job's counters folded into the fleet series beside the daemon's own.
func TestSchedulerRouterSample(t *testing.T) {
	st, _ := OpenStore("")
	s := NewScheduler(SchedulerConfig{MaxConcurrent: 1}, st, obs.NewRun())
	s.executor = func(ctx context.Context, job *Job, jrun *obs.Run) (*core.Report, error) {
		jrun.Counter("states/checked").Add(3)
		return &core.Report{}, nil
	}
	s.Start()
	defer s.Drain(context.Background())

	j, err := s.Submit(JobRequest{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, st, j.ID, JobDone)

	// The store records the job done just before the router detaches it.
	var checked, done obs.Metric
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		checked, done = obs.Metric{}, obs.Metric{}
		for _, m := range s.Router().Sample() {
			switch {
			case m.Job != "":
			case m.Name == "states/checked":
				checked = m
			case m.Name == "jobs/done":
				done = m
			}
		}
		if checked.Value == 3 && done.Value == 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("fleet samples states/checked = %+v, jobs/done = %+v; want folded 3 and 1", checked, done)
}

// TestChaosSchedulerScrapedJobsComplete is the serve-layer passivity
// claim: while /metrics is scraped in a tight loop, real exploration jobs
// still finish, each with the report an unobserved standalone run gives.
func TestChaosSchedulerScrapedJobsComplete(t *testing.T) {
	st, _ := OpenStore("")
	run := obs.NewRun()
	s := NewScheduler(SchedulerConfig{MaxConcurrent: 2}, st, run)
	s.Start()
	defer s.Drain(context.Background())
	srv := httptest.NewServer(NewServer(s, st, run))
	defer srv.Close()

	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if resp, err := http.Get(srv.URL + "/metrics"); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	defer func() { close(stop); <-stopped }()

	reqs := []JobRequest{
		{FS: "beegfs", Program: "ARVR", Mode: "pruning"},
		{FS: "ext4", Program: "CR", Mode: "brute"},
		{FS: "lustre", Program: "WAL", Mode: "pruning"},
	}
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID
	}
	for i, req := range reqs {
		done := waitState(t, st, ids[i], JobDone) // waitState's deadline is the stall check
		if done.Report == nil {
			t.Fatalf("job %s finished without a report while scraped", ids[i])
		}
		if got, want := exps.ReportFingerprint(done.Report), standaloneFingerprint(t, req); got != want {
			t.Fatalf("%s/%s: scraped job's report differs from a standalone run's:\n got %q\nwant %q", req.FS, req.Program, got, want)
		}
	}
}
