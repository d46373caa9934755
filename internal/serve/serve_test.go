package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"paracrash/internal/obs"
	core "paracrash/internal/paracrash"
)

// waitState polls the store until the job reaches want (or a terminal
// state, or the deadline).
func waitState(t *testing.T, st *Store, id string, want JobState) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := st.Get(id)
		if !ok {
			t.Fatalf("job %s vanished from store", id)
		}
		if j.State == want {
			return j
		}
		if j.State.Terminal() {
			t.Fatalf("job %s reached %s, want %s (error: %s)", id, j.State, want, j.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return Job{}
}

// gatedScheduler builds a scheduler whose jobs block until the returned
// gate closes, so tests control exactly when jobs finish.
func gatedScheduler(cfg SchedulerConfig, st *Store) (*Scheduler, chan struct{}) {
	s := NewScheduler(cfg, st, nil)
	gate := make(chan struct{})
	s.executor = func(ctx context.Context, job *Job, run *obs.Run) (*core.Report, error) {
		select {
		case <-gate:
			return &core.Report{Program: job.Request.Program, FS: job.Request.FS}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s.Start()
	return s, gate
}

func TestSubmitValidation(t *testing.T) {
	st, _ := OpenStore("")
	s := NewScheduler(SchedulerConfig{}, st, nil)
	s.Start()
	defer s.Drain(context.Background())

	for _, req := range []JobRequest{
		{Kind: "bogus"},
		{FS: "zfs"},
		{Program: "no-such-program"},
		{Mode: "exhaustive"},
		{PFSModel: "eventual"},
		{K: -1},
		{Workers: -2},
		{TimeoutSeconds: -1},
		{Kind: "fuzz"},
		{Clients: -1},
		{Rows: -1},
		{Cols: -1},
		{ResizeRows: -3},
		{ResizeCols: -1},
	} {
		if _, err := s.Submit(req); err == nil {
			t.Errorf("Submit(%+v) accepted an invalid request", req)
		}
	}
	if len(st.List()) != 0 {
		t.Fatalf("invalid submissions reached the store: %d jobs", len(st.List()))
	}
}

// TestClientsBound: the H5 clients knob is refused above its bound with a
// 400, before any job runs. The parallel programs open one session per
// rank before anything can fail, so an unbounded value could tie up a
// worker and exhaust memory; 16 is workloads.H5Params.Validate's bound.
func TestClientsBound(t *testing.T) {
	for clients, ok := range map[int]bool{16: true, 17: false} {
		req := JobRequest{Program: "H5-parallel-create", Clients: clients}
		if err := req.Normalize(); (err == nil) != ok {
			t.Errorf("Normalize with clients=%d: err = %v, want accepted %t", clients, err, ok)
		}
	}

	st, _ := OpenStore("")
	s := NewScheduler(SchedulerConfig{}, st, nil)
	var ran atomic.Bool
	s.executor = func(ctx context.Context, job *Job, run *obs.Run) (*core.Report, error) {
		ran.Store(true)
		return &core.Report{}, nil
	}
	s.Start()
	defer s.Drain(context.Background())
	srv := httptest.NewServer(NewServer(s, st, nil))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"program":"H5-parallel-create","clients":10000000}`))
	if err != nil {
		t.Fatal(err)
	}
	var e struct{ Error string }
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "clients must be <= 16") {
		t.Errorf("POST with clients=10000000: status %d, error %q; want 400 naming the bound", resp.StatusCode, e.Error)
	}
	if ran.Load() || len(st.List()) != 0 {
		t.Fatal("a request over the clients bound reached the executor or the store")
	}
}

// TestConcurrentJobsAndBackpressure runs four jobs at once and verifies the
// queue-depth limit surfaces as ErrQueueFull while they hold the slots.
func TestConcurrentJobsAndBackpressure(t *testing.T) {
	st, _ := OpenStore("")
	s, gate := gatedScheduler(SchedulerConfig{MaxConcurrent: 4, QueueDepth: 2}, st)
	t.Cleanup(func() { s.Drain(context.Background()) })

	// Submit one at a time, waiting for a worker to claim each: admission
	// counts queue slots only, so racing 4 submissions against dispatch
	// could trip the depth-2 queue before the slots fill.
	for i := 0; i < 4; i++ {
		j, err := s.Submit(JobRequest{})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, st, j.ID, JobRunning)
	}

	// Slots are full; the queue absorbs exactly QueueDepth more.
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(JobRequest{}); err != nil {
			t.Fatalf("queued submission %d: %v", i, err)
		}
	}
	if _, err := s.Submit(JobRequest{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submission over queue depth: err = %v, want ErrQueueFull", err)
	}

	close(gate)
	for _, j := range st.List() {
		j := waitState(t, st, j.ID, JobDone)
		if j.Report == nil {
			t.Errorf("job %s done without a report", j.ID)
		}
	}
}

// TestDrainCompletesInFlight verifies graceful shutdown: draining rejects
// new submissions but lets running jobs finish.
func TestDrainCompletesInFlight(t *testing.T) {
	st, _ := OpenStore("")
	s, gate := gatedScheduler(SchedulerConfig{MaxConcurrent: 1}, st)

	j, err := s.Submit(JobRequest{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, st, j.ID, JobRunning)

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	// Drain flips the draining flag before waiting; poll until it shows.
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(JobRequest{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: err = %v, want ErrDraining", err)
	}

	close(gate) // let the in-flight job finish
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if j := waitState(t, st, j.ID, JobDone); j.Report == nil {
		t.Fatalf("drained job lost its report")
	}
}

// TestDrainDeadlineCancels verifies the forced path: when the drain
// context expires, in-flight jobs are cancelled and recorded as such.
func TestDrainDeadlineCancels(t *testing.T) {
	st, _ := OpenStore("")
	s, _ := gatedScheduler(SchedulerConfig{MaxConcurrent: 1}, st)

	j, err := s.Submit(JobRequest{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, st, j.ID, JobRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain: err = %v, want DeadlineExceeded", err)
	}
	got, _ := st.Get(j.ID)
	if got.State != JobCanceled {
		t.Fatalf("job state = %s, want canceled", got.State)
	}
}

// TestJobTimeoutCancelsExploration bounds a real brute-force exploration
// with a tiny per-job timeout and verifies the job lands in canceled
// without leaking goroutines.
func TestJobTimeoutCancelsExploration(t *testing.T) {
	before := runtime.NumGoroutine()
	st, _ := OpenStore("")
	s := NewScheduler(SchedulerConfig{MaxConcurrent: 1}, st, nil)
	s.Start()

	j, err := s.Submit(JobRequest{
		Mode: "brute", K: 2,
		TimeoutSeconds: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	var got Job
	for time.Now().Before(deadline) {
		got, _ = st.Get(j.ID)
		if got.State.Terminal() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	// done is possible if the run beat the 20ms clock; anything else must
	// be the timeout.
	if got.State != JobCanceled && got.State != JobDone {
		t.Fatalf("job state = %s (error %q), want canceled or done", got.State, got.Error)
	}
	if got.State == JobCanceled && !strings.Contains(got.Error, "deadline") {
		t.Errorf("canceled job error = %q, want a deadline error", got.Error)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	settle := time.Now().Add(5 * time.Second)
	for time.Now().Before(settle) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

// TestPanicIsolation verifies a panicking job becomes a failed record and
// the scheduler keeps serving.
func TestPanicIsolation(t *testing.T) {
	st, _ := OpenStore("")
	s := NewScheduler(SchedulerConfig{MaxConcurrent: 1}, st, nil)
	boom := true
	s.executor = func(ctx context.Context, job *Job, run *obs.Run) (*core.Report, error) {
		if boom {
			boom = false
			panic("engine blew up")
		}
		return &core.Report{}, nil
	}
	s.Start()
	defer s.Drain(context.Background())

	j1, err := s.Submit(JobRequest{})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, _ := st.Get(j1.ID)
		if got.State.Terminal() {
			if got.State != JobFailed || !strings.Contains(got.Error, "panicked") {
				t.Fatalf("job state = %s error = %q, want failed/panicked", got.State, got.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("panicking job never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}

	j2, err := s.Submit(JobRequest{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, st, j2.ID, JobDone)
}

// TestStoreRestartRoundTrip persists completed jobs and verifies a fresh
// store over the same directory lists them.
func TestStoreRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, warns := OpenStore(dir)
	if len(warns) != 0 {
		t.Fatalf("fresh store warnings: %v", warns)
	}
	s, gate := gatedScheduler(SchedulerConfig{MaxConcurrent: 2}, st)
	close(gate)

	j1, err := s.Submit(JobRequest{Program: "WAL", FS: "lustre"})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(JobRequest{Program: "CR", FS: "gpfs"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, st, j1.ID, JobDone)
	waitState(t, st, j2.ID, JobDone)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// "Restart": a new store over the same directory.
	st2, warns := OpenStore(dir)
	if len(warns) != 0 {
		t.Fatalf("reopen warnings: %v", warns)
	}
	jobs := st2.List()
	if len(jobs) != 2 {
		t.Fatalf("reloaded %d jobs, want 2", len(jobs))
	}
	for _, j := range jobs {
		if j.State != JobDone || j.Report == nil || j.Version != JobVersion {
			t.Errorf("reloaded job %s: state=%s report=%v version=%d", j.ID, j.State, j.Report != nil, j.Version)
		}
	}
	got, ok := st2.Get(j1.ID)
	if !ok || got.Request.Program != "WAL" || got.Request.FS != "lustre" {
		t.Fatalf("job %s round-trip mismatch: %+v", j1.ID, got.Request)
	}
}

// TestStoreSkipsCorruptRecords verifies one bad file cannot poison a
// restart.
func TestStoreSkipsCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	st, _ := OpenStore(dir)
	s, gate := gatedScheduler(SchedulerConfig{}, st)
	close(gate)
	j, err := s.Submit(JobRequest{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, st, j.ID, JobDone)
	s.Drain(context.Background())

	writeFile(t, dir+"/job-corrupt.json", "{not json")
	writeFile(t, dir+"/job-oldversion.json", `{"version": 99, "id": "j-old", "state": "done"}`)

	st2, warns := OpenStore(dir)
	if len(warns) != 2 {
		t.Fatalf("warnings = %v, want 2", warns)
	}
	if len(st2.List()) != 1 {
		t.Fatalf("reloaded %d jobs, want 1 (corrupt records skipped)", len(st2.List()))
	}
}

// TestHTTPEndToEnd drives the full API over HTTP: submit, list, get,
// stream events, health, and the error statuses.
func TestHTTPEndToEnd(t *testing.T) {
	st, _ := OpenStore("")
	run := obs.NewRun()
	s := NewScheduler(SchedulerConfig{MaxConcurrent: 4, QueueDepth: 8, ProgressInterval: 5 * time.Millisecond}, st, run)
	s.Start()
	defer s.Drain(context.Background())
	srv := httptest.NewServer(NewServer(s, st, run))
	defer srv.Close()

	// Submit four real (fast) exploration jobs concurrently.
	var ids []string
	for i := 0; i < 4; i++ {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"fs":"beegfs","program":"ARVR","mode":"pruning"}`))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status = %s", resp.Status)
		}
		var j Job
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if j.State != JobQueued || j.ID == "" {
			t.Fatalf("submitted job = %+v", j)
		}
		ids = append(ids, j.ID)
	}

	// Stream one job's events to completion: NDJSON lines ending in the
	// final progress event.
	eresp, err := http.Get(srv.URL + "/v1/jobs/" + ids[0] + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := eresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content-type = %q", ct)
	}
	var events []obs.Event
	sc := bufio.NewScanner(eresp.Body)
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	eresp.Body.Close()
	if len(events) == 0 || !events[len(events)-1].Final {
		t.Fatalf("event stream = %d events, final=%v; want >=1 ending final", len(events), len(events) > 0 && events[len(events)-1].Final)
	}

	// All four jobs finish with reports.
	for _, id := range ids {
		j := waitState(t, st, id, JobDone)
		if j.Report == nil || j.Report.Program != "ARVR" {
			t.Fatalf("job %s report = %+v", id, j.Report)
		}
	}

	// GET /v1/jobs lists all four.
	lresp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobSummary
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(list) != 4 {
		t.Fatalf("list = %d jobs, want 4", len(list))
	}

	// GET /v1/jobs/{id} returns the full record.
	gresp, err := http.Get(srv.URL + "/v1/jobs/" + ids[1])
	if err != nil {
		t.Fatal(err)
	}
	var got Job
	if err := json.NewDecoder(gresp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if got.ID != ids[1] || got.State != JobDone {
		t.Fatalf("get job = %+v", got.Summary())
	}

	// healthz.
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Done   int    `json:"done"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if health.Status != "ok" || health.Done != 4 {
		t.Fatalf("health = %+v", health)
	}

	// Error statuses: unknown job, invalid body, unknown field.
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"GET", "/v1/jobs/j-doesnotexist", "", http.StatusNotFound},
		{"GET", "/v1/jobs/j-doesnotexist/events", "", http.StatusNotFound},
		{"POST", "/v1/jobs", "{", http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"filesystem":"beegfs"}`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"fs":"zfs"}`, http.StatusBadRequest},
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: status = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}

// TestStreamEndMeansTerminal: the event stream closes only after the
// terminal record is in the store, so the first GET a client makes after
// reading the stream to its end never finds the job still running — 200
// times out of 200.
func TestStreamEndMeansTerminal(t *testing.T) {
	st, _ := OpenStore("")
	s := NewScheduler(SchedulerConfig{}, st, nil)
	s.Start()
	defer s.Drain(context.Background())
	srv := httptest.NewServer(NewServer(s, st, nil))
	defer srv.Close()

	for i := 0; i < 200; i++ {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"fs":"ext4","program":"CR","mode":"pruning"}`))
		if err != nil {
			t.Fatal(err)
		}
		var job Job
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %s, %v", i, resp.Status, err)
		}

		events, err := http.Get(srv.URL + "/v1/jobs/" + job.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.Copy(io.Discard, events.Body)
		events.Body.Close()
		if err != nil || events.StatusCode != http.StatusOK {
			t.Fatalf("events %d: %s, %v", i, events.Status, err)
		}

		got, err := http.Get(srv.URL + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(got.Body).Decode(&job)
		got.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if job.State != JobDone || job.Report == nil {
			t.Fatalf("job %d: first GET after the stream ended says %s, want done with a report", i, job.State)
		}
	}
}

// TestRetiredIncrementalField: JobRequest lost its "incremental" toggle when
// the engine lost its second reconstruction path, and its "representative"
// toggle when class attribution lost its off switch. Job records persisted
// by an earlier daemon may still carry either and must keep loading; a
// client still sending one is told so by name rather than silently ignored.
func TestRetiredIncrementalField(t *testing.T) {
	for _, field := range []string{"incremental", "representative"} {
		t.Run(field, func(t *testing.T) {
			dir := t.TempDir()
			record := fmt.Sprintf(`{"version":%d,"id":"j-old","state":"done","request":{"kind":"explore","fs":"beegfs","program":"ARVR",%q:true},"created_at":"2026-08-01T00:00:00Z"}`, JobVersion, field)
			if err := os.WriteFile(filepath.Join(dir, "job-j-old.json"), []byte(record), 0o644); err != nil {
				t.Fatal(err)
			}
			st, warns := OpenStore(dir)
			if len(warns) != 0 {
				t.Fatalf("old job record did not load cleanly: %v", warns)
			}
			if j, ok := st.Get("j-old"); !ok || j.Request.Program != "ARVR" {
				t.Fatalf("old job record missing after load: %+v", j)
			}

			s := NewScheduler(SchedulerConfig{}, st, nil)
			s.Start()
			defer s.Drain(context.Background())
			srv := httptest.NewServer(NewServer(s, st, nil))
			defer srv.Close()
			resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(fmt.Sprintf(`{"fs":"beegfs",%q:true}`, field)))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), field) {
				t.Fatalf("POST with the retired field: status %d, body %s; want 400 naming the field", resp.StatusCode, body)
			}
		})
	}
}

// TestRetiredOptimizedMode: the "optimized" mode was retired. Stored data
// still naming it — a finished job's report and request, an interrupted
// job's request — passes fsck, loads and resumes as pruning, never as the
// zero Mode (brute force); a client submitting it gets a 400 naming it.
func TestRetiredOptimizedMode(t *testing.T) {
	dir := t.TempDir()
	for id, record := range map[string]string{
		"j-done": fmt.Sprintf(`{"version":%d,"id":"j-done","state":"done","request":{"kind":"explore","fs":"ext4","program":"CR","mode":"optimized"},"report":{"Program":"CR","FS":"ext4","Mode":"optimized"},"created_at":"2026-08-01T00:00:00Z"}`, JobVersion),
		"j-int":  fmt.Sprintf(`{"version":%d,"id":"j-int","state":"running","request":{"kind":"explore","fs":"ext4","program":"CR","mode":"optimized"},"created_at":"2026-08-01T00:00:00Z"}`, JobVersion),
	} {
		if err := os.WriteFile(filepath.Join(dir, "job-"+id+".json"), []byte(record), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if rep, err := Fsck(dir, FsckOptions{}); err != nil || !rep.Clean {
		t.Fatalf("fsck of records naming the retired mode: %v, %+v", err, rep)
	}
	st, warns := OpenStore(dir)
	if len(warns) != 0 {
		t.Fatalf("records naming the retired mode did not load cleanly: %v", warns)
	}
	if j, ok := st.Get("j-done"); !ok || j.Report == nil || j.Report.Mode != core.ModePruning {
		t.Fatalf("stored report's mode did not load as pruning: %+v", j.Report)
	}
	if mode := (&JobRequest{Mode: "optimized"}).options().Mode; mode != core.ModePruning {
		t.Fatalf("stored request mode resolves to %s, want pruning", mode)
	}

	s := NewScheduler(SchedulerConfig{}, st, nil)
	s.Start()
	defer s.Drain(context.Background())
	if err := s.Resubmit("j-int"); err != nil {
		t.Fatalf("Resubmit: %v", err)
	}
	if j := waitState(t, st, "j-int", JobDone); j.Report == nil || j.Report.Mode != core.ModePruning {
		t.Fatalf("resumed job did not run as pruning: %+v", j.Report)
	}

	srv := httptest.NewServer(NewServer(s, st, nil))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"fs":"ext4","program":"CR","mode":"optimized"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "optimized") {
		t.Fatalf("POST with the retired mode: status %d, body %s; want 400 naming the mode", resp.StatusCode, body)
	}
}

// TestRetiredFuzzJobKind: the daemon's fuzz-campaign job kind was retired;
// campaigns run offline through cmd/experiments -exp fuzz. A client asking
// for one is told so by name. Stored fuzz records keep loading, and an
// interrupted one is finished as failed without ever running as an explore
// job (its request has no fs or program to default).
func TestRetiredFuzzJobKind(t *testing.T) {
	dir := t.TempDir()
	for id, record := range map[string]string{
		"j-fdone": fmt.Sprintf(`{"version":%d,"id":"j-fdone","state":"done","request":{"kind":"fuzz","fuzz":{"seeds":4,"backends":["beegfs"]}},"fuzz":{"ok":true,"workloads":4,"cells":4,"explorer_runs":24,"violations":0,"summary":"=== fuzz campaign ===\n"},"created_at":"2026-08-01T00:00:00Z"}`, JobVersion),
		"j-fint":  fmt.Sprintf(`{"version":%d,"id":"j-fint","state":"running","request":{"kind":"fuzz","fuzz":{"seeds":4}},"created_at":"2026-08-01T00:00:00Z"}`, JobVersion),
	} {
		if err := os.WriteFile(filepath.Join(dir, "job-"+id+".json"), []byte(record), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if rep, err := Fsck(dir, FsckOptions{}); err != nil || !rep.Clean {
		t.Fatalf("fsck of stored fuzz records: %v, %+v", err, rep)
	}
	st, warns := OpenStore(dir)
	if len(warns) != 0 {
		t.Fatalf("stored fuzz records did not load cleanly: %v", warns)
	}

	s := NewScheduler(SchedulerConfig{}, st, nil)
	var ran atomic.Bool
	s.executor = func(ctx context.Context, job *Job, run *obs.Run) (*core.Report, error) {
		ran.Store(true)
		return &core.Report{}, nil
	}
	s.Start()
	defer s.Drain(context.Background())
	if err := s.Resubmit("j-fint"); !errors.Is(err, errFuzzRetired) {
		t.Fatalf("Resubmit of an interrupted fuzz job: err = %v, want the retirement error", err)
	}
	j, _ := st.Get("j-fint")
	if j.State != JobFailed || j.Error != errFuzzRetired.Error() || j.FinishedAt == nil {
		t.Fatalf("interrupted fuzz job after Resubmit: state %s, error %q; want failed with the retirement error", j.State, j.Error)
	}

	srv := httptest.NewServer(NewServer(s, st, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobSummary
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	states := map[string]JobState{}
	for _, js := range list {
		if js.Kind != "fuzz" {
			t.Errorf("listed job %s has kind %q, want fuzz", js.ID, js.Kind)
		}
		states[js.ID] = js.State
	}
	if states["j-fdone"] != JobDone || states["j-fint"] != JobFailed || len(states) != 2 {
		t.Fatalf("GET /v1/jobs lists %v, want j-fdone done and j-fint failed", states)
	}

	for _, tc := range []struct{ body, name string }{
		{`{"kind":"fuzz"}`, `"fuzz" is retired`},
		{`{"fuzz":{"seeds":4}}`, `unknown field "fuzz"`},
	} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error string }
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, tc.name) {
			t.Errorf("POST %s: status %d, error %q; want 400 naming %s", tc.body, resp.StatusCode, e.Error, tc.name)
		}
	}
	if ran.Load() {
		t.Fatal("the executor ran a retired fuzz job")
	}
}

// TestHTTPBackpressure verifies the 429 + Retry-After contract over HTTP.
func TestHTTPBackpressure(t *testing.T) {
	st, _ := OpenStore("")
	s, gate := gatedScheduler(SchedulerConfig{MaxConcurrent: 1, QueueDepth: 1}, st)
	defer func() { close(gate); s.Drain(context.Background()) }()
	srv := httptest.NewServer(NewServer(s, st, nil))
	defer srv.Close()

	submit := func() *http.Response {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	var j Job
	{
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(resp.Body).Decode(&j)
		resp.Body.Close()
	}
	waitState(t, st, j.ID, JobRunning) // slot taken
	if resp := submit(); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit status = %d", resp.StatusCode) // queue takes one
	}
	resp := submit()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// TestSubmitBodyCap tests the submit body limit at the cap: a valid job
// padded with leading whitespace to exactly maxSubmitBytes is accepted, and
// one byte more is a 400.
func TestSubmitBodyCap(t *testing.T) {
	st, _ := OpenStore("")
	s, gate := gatedScheduler(SchedulerConfig{}, st)
	defer func() { close(gate); s.Drain(context.Background()) }()
	srv := httptest.NewServer(NewServer(s, st, nil))
	defer srv.Close()

	const job = `{"fs":"beegfs","program":"ARVR"}`
	for _, tc := range []struct {
		size, want int
	}{{maxSubmitBytes, http.StatusAccepted}, {maxSubmitBytes + 1, http.StatusBadRequest}} {
		body := strings.Repeat(" ", tc.size-len(job)) + job
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%d-byte body: status %d (%s), want %d", tc.size, resp.StatusCode, bytes.TrimSpace(msg), tc.want)
		}
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestJobWorkersIgnored: a request's workers field is validated but
// runs nothing: exploration is serial, so any count yields the options of
// a request that omits it.
func TestJobWorkersIgnored(t *testing.T) {
	want := (&JobRequest{}).options()
	for _, w := range []int{1, 8} {
		if got := (&JobRequest{Workers: w}).options(); !reflect.DeepEqual(got, want) {
			t.Errorf("workers %d: options %+v, want %+v", w, got, want)
		}
	}
}
