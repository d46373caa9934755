package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"paracrash/internal/obs"
	core "paracrash/internal/paracrash"
)

func TestTenantRegistryValidation(t *testing.T) {
	good := []Tenant{{Name: "acme", Key: "acme-key-1"}, {Name: "rival", Key: "rival-key-1", Priority: PriorityLow}}
	if _, err := NewTenants(good); err != nil {
		t.Fatal(err)
	}
	bad := [][]Tenant{
		nil, // empty
		{{Name: "", Key: "some-key-1"}},
		{{Name: "a", Key: "short"}},
		{{Name: "a", Key: "aaaaaaaa"}, {Name: "a", Key: "bbbbbbbb"}}, // dup name
		{{Name: "a", Key: "aaaaaaaa"}, {Name: "b", Key: "aaaaaaaa"}}, // dup key
		{{Name: "a", Key: "aaaaaaaa", Priority: "urgent"}},           // bad class
		{{Name: "a", Key: "aaaaaaaa", MaxQueued: -1}},                // bad quota
		{{Name: "a", Key: "aaaaaaaa", RatePerSec: -0.5}},             // bad rate
	}
	for i, list := range bad {
		if _, err := NewTenants(list); err == nil {
			t.Errorf("case %d: invalid tenant list accepted", i)
		}
	}
}

func TestTenantsFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	body := `{"version":1,"tenants":[{"name":"acme","key":"acme-key-1","priority":"high","max_queued":4,"rate_per_sec":2}]}`
	if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
		t.Fatal(err)
	}
	reg, err := LoadTenants(path)
	if err != nil {
		t.Fatal(err)
	}
	tn, ok := reg.ByName("acme")
	if !ok || tn.Priority != PriorityHigh || tn.MaxQueued != 4 {
		t.Fatalf("loaded tenant: %+v ok=%v", tn, ok)
	}

	// Version skew and unknown fields are refused, not silently accepted.
	os.WriteFile(path, []byte(`{"version":2,"tenants":[]}`), 0o600)
	if _, err := LoadTenants(path); err == nil {
		t.Fatal("version skew accepted")
	}
	os.WriteFile(path, []byte(`{"version":1,"tenants":[{"name":"a","key":"aaaaaaaa","max_jobs":3}]}`), 0o600)
	if _, err := LoadTenants(path); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestTenantAuthenticate(t *testing.T) {
	reg, err := NewTenants([]Tenant{{Name: "acme", Key: "acme-key-1"}})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(hdr, val string) *http.Request {
		r := httptest.NewRequest("GET", "/v1/jobs", nil)
		if hdr != "" {
			r.Header.Set(hdr, val)
		}
		return r
	}
	if tn, err := reg.Authenticate(mk("Authorization", "Bearer acme-key-1")); err != nil || tn.Name != "acme" {
		t.Fatalf("bearer auth: %v %+v", err, tn)
	}
	if tn, err := reg.Authenticate(mk("X-API-Key", "acme-key-1")); err != nil || tn.Name != "acme" {
		t.Fatalf("header auth: %v %+v", err, tn)
	}
	for _, r := range []*http.Request{mk("", ""), mk("X-API-Key", "wrong-key-1"), mk("Authorization", "Basic acme-key-1")} {
		if _, err := reg.Authenticate(r); !errors.Is(err, ErrUnauthorized) {
			t.Fatalf("bad auth accepted: %v", err)
		}
	}
}

func TestTenantRateLimit(t *testing.T) {
	reg, err := NewTenants([]Tenant{{Name: "acme", Key: "acme-key-1", RatePerSec: 1, Burst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	reg.now = func() time.Time { return now }

	if !reg.Allow("acme") || !reg.Allow("acme") {
		t.Fatal("burst of 2 not honoured")
	}
	if reg.Allow("acme") {
		t.Fatal("third immediate submission passed the bucket")
	}
	// One second refills one token.
	now = now.Add(time.Second)
	if !reg.Allow("acme") {
		t.Fatal("refill did not restore a token")
	}
	if reg.Allow("acme") {
		t.Fatal("bucket over-refilled")
	}
	// Unknown and unlimited tenants always pass.
	if !reg.Allow("nobody") {
		t.Fatal("unknown tenant rate-limited")
	}
}

func TestFairQueueRoundRobinAndPriority(t *testing.T) {
	q := newFairQueue()
	push := func(id, tenant string, prio int) {
		q.push(&queuedJob{job: &Job{ID: id}, tenant: tenant}, prio)
	}
	// Three tenants in the normal class, one of them chatty; plus one low
	// and one high job arriving last.
	push("a1", "a", 1)
	push("a2", "a", 1)
	push("a3", "a", 1)
	push("b1", "b", 1)
	push("c1", "c", 1)
	push("l1", "low", 2)
	push("h1", "hi", 0)

	var got []string
	for i := 0; i < 7; i++ {
		qj := q.pop()
		got = append(got, qj.job.ID)
		q.release(qj.tenant)
	}
	want := "h1 a1 b1 c1 a2 a3 l1"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("dispatch order %q, want %q", s, want)
	}
}

func TestFairQueueRunningCap(t *testing.T) {
	q := newFairQueue()
	q.push(&queuedJob{job: &Job{ID: "a1"}, tenant: "a", maxRun: 1}, 1)
	q.push(&queuedJob{job: &Job{ID: "a2"}, tenant: "a", maxRun: 1}, 1)
	q.push(&queuedJob{job: &Job{ID: "b1"}, tenant: "b"}, 1)

	if qj := q.pop(); qj.job.ID != "a1" {
		t.Fatalf("first pop: %s", qj.job.ID)
	}
	// Tenant a is at its cap: the queue passes over a2 and serves b1.
	if qj := q.pop(); qj.job.ID != "b1" {
		t.Fatalf("capped tenant not skipped: got %s", qj.job.ID)
	}
	// a2 is blocked until a1's slot frees.
	unblocked := make(chan string, 1)
	go func() {
		qj := q.pop()
		unblocked <- qj.job.ID
	}()
	select {
	case id := <-unblocked:
		t.Fatalf("pop returned %s while tenant a was at its cap", id)
	case <-time.After(50 * time.Millisecond):
	}
	q.release("a")
	select {
	case id := <-unblocked:
		if id != "a2" {
			t.Fatalf("after release got %s, want a2", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("release did not unblock the capped tenant")
	}
}

func TestFairQueueCloseDrains(t *testing.T) {
	q := newFairQueue()
	q.push(&queuedJob{job: &Job{ID: "j1"}, tenant: ""}, 1)
	q.push(&queuedJob{job: &Job{ID: "j2"}, tenant: ""}, 1)
	q.close()
	if qj := q.pop(); qj == nil || qj.job.ID != "j1" {
		t.Fatalf("backlog lost on close: %+v", qj)
	}
	if qj := q.pop(); qj == nil || qj.job.ID != "j2" {
		t.Fatalf("backlog lost on close: %+v", qj)
	}
	if qj := q.pop(); qj != nil {
		t.Fatalf("pop after drain: %+v", qj)
	}
}

// tenantScheduler builds a gated scheduler with a tenant registry attached.
func tenantScheduler(t *testing.T, cfg SchedulerConfig, tenants []Tenant) (*Scheduler, *Store, chan struct{}, *Tenants) {
	t.Helper()
	reg, err := NewTenants(tenants)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tenants = reg
	st, _ := OpenStore("")
	s, gate := gatedScheduler(cfg, st)
	return s, st, gate, reg
}

func TestSchedulerTenantAdmission(t *testing.T) {
	s, st, gate, reg := tenantScheduler(t, SchedulerConfig{MaxConcurrent: 1, QueueDepth: 16}, []Tenant{
		{Name: "acme", Key: "acme-key-1", MaxQueued: 1},
		{Name: "slow", Key: "slow-key-1", RatePerSec: 0.001, Burst: 1},
	})
	defer func() { close(gate); s.Drain(context.Background()) }()
	acme, _ := reg.ByName("acme")
	slow, _ := reg.ByName("slow")

	// Occupy the single worker so later submissions stay queued.
	filler, err := s.Submit(JobRequest{Program: "CR"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, st, filler.ID, JobRunning)

	j1, err := s.SubmitTenant(JobRequest{Program: "CR"}, acme)
	if err != nil {
		t.Fatal(err)
	}
	if j1.Tenant != "acme" {
		t.Fatalf("job not stamped with tenant: %+v", j1)
	}
	if got, _ := st.Get(j1.ID); got.Tenant != "acme" {
		t.Fatalf("store record missing tenant: %+v", got)
	}
	// acme is at MaxQueued=1 now.
	if _, err := s.SubmitTenant(JobRequest{Program: "CR"}, acme); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("quota: got %v", err)
	}
	// slow's bucket holds one token; the second submission is rate-limited.
	if _, err := s.SubmitTenant(JobRequest{Program: "CR"}, slow); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitTenant(JobRequest{Program: "CR"}, slow); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("rate limit: got %v", err)
	}
	if s.QueuedFor("acme") != 1 || s.QueuedFor("slow") != 1 {
		t.Fatalf("queue usage: acme=%d slow=%d", s.QueuedFor("acme"), s.QueuedFor("slow"))
	}
}

// TestSchedulerPriorityDispatch: with one worker busy, a high-priority
// tenant's job queued after a low-priority tenant's job still runs first.
func TestSchedulerPriorityDispatch(t *testing.T) {
	reg, err := NewTenants([]Tenant{
		{Name: "batch", Key: "batch-key-1", Priority: PriorityLow},
		{Name: "urgent", Key: "urgent-key-1", Priority: PriorityHigh},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := OpenStore("")
	s := NewScheduler(SchedulerConfig{MaxConcurrent: 1, Tenants: reg}, st, nil)
	var mu sync.Mutex
	var order []string
	gate := make(chan struct{})
	s.executor = func(ctx context.Context, job *Job, run *obs.Run) (*core.Report, error) {
		mu.Lock()
		order = append(order, job.Tenant)
		mu.Unlock()
		select {
		case <-gate:
			return &core.Report{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s.Start()
	t.Cleanup(func() { s.Drain(context.Background()) })

	batch, _ := reg.ByName("batch")
	urgent, _ := reg.ByName("urgent")
	filler, err := s.Submit(JobRequest{Program: "CR"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, st, filler.ID, JobRunning)
	lo, err := s.SubmitTenant(JobRequest{Program: "CR"}, batch)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := s.SubmitTenant(JobRequest{Program: "CR"}, urgent)
	if err != nil {
		t.Fatal(err)
	}

	gate <- struct{}{} // finish the filler; the worker picks the next job
	waitState(t, st, hi.ID, JobRunning)
	gate <- struct{}{}
	waitState(t, st, lo.ID, JobRunning)
	gate <- struct{}{}
	waitState(t, st, lo.ID, JobDone)

	mu.Lock()
	defer mu.Unlock()
	want := []string{"", "urgent", "batch"}
	if len(order) != 3 || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
}

func TestHTTPTenantAuthAndScoping(t *testing.T) {
	s, st, gate, _ := tenantScheduler(t, SchedulerConfig{MaxConcurrent: 2, QueueDepth: 8}, []Tenant{
		{Name: "acme", Key: "acme-key-1", Priority: PriorityHigh, MaxQueued: 4},
		{Name: "rival", Key: "rival-key-1"},
	})
	close(gate) // jobs finish immediately
	defer s.Drain(context.Background())
	srv := httptest.NewServer(NewServer(s, st, nil))
	defer srv.Close()

	do := func(method, path, key, body string) (*http.Response, []byte) {
		t.Helper()
		var rd *strings.Reader
		if body == "" {
			rd = strings.NewReader("")
		} else {
			rd = strings.NewReader(body)
		}
		req, _ := http.NewRequest(method, srv.URL+path, rd)
		if key != "" {
			req.Header.Set("X-API-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf [1 << 16]byte
		n, _ := resp.Body.Read(buf[:])
		return resp, buf[:n]
	}

	// No key / wrong key: 401 on every /v1 route; /healthz stays open.
	for _, path := range []string{"/v1/jobs", "/v1/tenant"} {
		if resp, _ := do("GET", path, "", ""); resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("GET %s without key: %d", path, resp.StatusCode)
		}
		if resp, _ := do("GET", path, "wrong-key-1", ""); resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("GET %s wrong key: %d", path, resp.StatusCode)
		}
	}
	if resp, _ := do("GET", "/healthz", "", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz requires auth: %d", resp.StatusCode)
	}
	if resp, _ := do("GET", "/metrics", "", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics requires auth: %d", resp.StatusCode)
	}

	// acme submits a job.
	resp, body := do("POST", "/v1/jobs", "acme-key-1", `{"program":"CR","fs":"ext4"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.Tenant != "acme" {
		t.Fatalf("submitted job tenant %q", job.Tenant)
	}

	// rival sees neither the job record, its events, nor its list entry.
	if resp, _ := do("GET", "/v1/jobs/"+job.ID, "rival-key-1", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant get: %d", resp.StatusCode)
	}
	if resp, _ := do("GET", "/v1/jobs/"+job.ID+"/events", "rival-key-1", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant events: %d", resp.StatusCode)
	}
	_, body = do("GET", "/v1/jobs", "rival-key-1", "")
	var list []JobSummary
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Fatalf("rival sees %d jobs", len(list))
	}

	// acme sees its own job and its tenant status.
	if resp, _ := do("GET", "/v1/jobs/"+job.ID, "acme-key-1", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("own get: %d", resp.StatusCode)
	}
	_, body = do("GET", "/v1/tenant", "acme-key-1", "")
	var ts tenantStatus
	if err := json.Unmarshal(body, &ts); err != nil {
		t.Fatal(err)
	}
	if ts.Open || ts.Name != "acme" || ts.Priority != PriorityHigh || ts.MaxQueued != 4 {
		t.Fatalf("tenant status: %+v", ts)
	}
}

func TestHTTPTenantOpenMode(t *testing.T) {
	st, _ := OpenStore("")
	s, gate := gatedScheduler(SchedulerConfig{MaxConcurrent: 1}, st)
	close(gate)
	defer s.Drain(context.Background())
	srv := httptest.NewServer(NewServer(s, st, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/tenant")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ts tenantStatus
	if err := json.NewDecoder(resp.Body).Decode(&ts); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !ts.Open {
		t.Fatalf("open-mode tenant status: %d %+v", resp.StatusCode, ts)
	}
}
