package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync"

	"paracrash/internal/obs"
)

// Server is the paracrashd HTTP API over a scheduler and its store.
type Server struct {
	sched   *Scheduler
	store   *Store
	run     *obs.Run // daemon-level run, exposed at /debug/obs
	tenants *Tenants // from the scheduler config; nil = open mode
	mux     *http.ServeMux

	mu   sync.RWMutex
	fsck *FsckReport // startup fsck report; nil until SetFsck
}

// NewServer wires the API routes. run (nilable) is the daemon-level obs
// run served at /debug/obs*. When the scheduler carries a tenant registry,
// every /v1 route requires an API key; /healthz, /metrics and /debug stay
// open (they feed probes and scrapers, not tenants).
func NewServer(sched *Scheduler, store *Store, run *obs.Run) *Server {
	s := &Server{sched: sched, store: store, run: run, tenants: sched.Tenants(), mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/tenant", s.handleTenant)
	// /metrics is the Prometheus text exposition of the scheduler's
	// telemetry router: fleet-level series (daemon counters plus rollups
	// across all jobs, completed ones included) and one labeled series set
	// per running job.
	s.mux.Handle("GET /metrics", sched.Router().PromHandler())
	s.mux.HandleFunc("GET /debug/obs", s.handleObs)
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// authenticate resolves the caller's tenant on a /v1 route. In open mode
// (no registry) it returns (nil, true): no key required, full visibility.
// With tenants configured, a missing or unknown key gets a 401 and
// (nil, false).
func (s *Server) authenticate(w http.ResponseWriter, r *http.Request) (*Tenant, bool) {
	if s.tenants == nil {
		return nil, true
	}
	tn, err := s.tenants.Authenticate(r)
	if err != nil {
		w.Header().Set("WWW-Authenticate", `Bearer realm="paracrashd"`)
		writeError(w, http.StatusUnauthorized, "%v", err)
		return nil, false
	}
	return tn, true
}

// visible reports whether the caller may see the job: everything in open
// mode, only the tenant's own jobs otherwise. Hidden jobs 404 rather than
// 403 so tenants cannot probe for other tenants' job IDs.
func (s *Server) visible(tn *Tenant, j *Job) bool {
	if s.tenants == nil {
		return true
	}
	return tn != nil && j.Tenant == tn.Name
}

// SetFsck records the startup fsck report so /healthz summarises it and
// /readyz fails while quarantined (unreconstructible) records exist.
func (s *Server) SetFsck(r *FsckReport) {
	s.mu.Lock()
	s.fsck = r
	s.mu.Unlock()
}

// fsckReport returns the report recorded by SetFsck (nil before it).
func (s *Server) fsckReport() *FsckReport {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.fsck
}

// fsckHealth is the /healthz projection of the startup fsck report.
type fsckHealth struct {
	Problems    int  `json:"problems"`
	Repaired    int  `json:"repaired"`
	Quarantined int  `json:"quarantined"`
	Clean       bool `json:"clean"`
}

// healthResponse is the GET /healthz payload.
type healthResponse struct {
	// Status is "ok", "degraded" (startup fsck quarantined records) or
	// "draining" (shutdown in progress; draining wins over degraded).
	Status  string `json:"status"`
	Queued  int    `json:"queued"`
	Running int    `json:"running"`
	Done    int    `json:"done"`
	// Fsck summarises the startup state-directory check; absent when the
	// daemon runs memory-only or predates SetFsck.
	Fsck *fsckHealth `json:"fsck,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{Status: "ok"}
	if rep := s.fsckReport(); rep != nil {
		resp.Fsck = &fsckHealth{
			Problems:    len(rep.Problems),
			Repaired:    rep.Repaired,
			Quarantined: rep.Quarantined,
			Clean:       rep.Clean,
		}
		if rep.Degraded() {
			resp.Status = "degraded"
		}
	}
	if s.sched.Draining() {
		resp.Status = "draining"
	}
	for _, j := range s.store.List() {
		switch j.State {
		case JobQueued:
			resp.Queued++
		case JobRunning:
			resp.Running++
		default:
			resp.Done++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// readyResponse is the GET /readyz payload.
type readyResponse struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
}

// handleReady is the load-balancer gate: 200 only when the daemon is
// accepting work. Draining daemons and daemons whose startup fsck had to
// quarantine state (they run, but something was lost) answer 503 so
// orchestrators route around them while /healthz still shows the details.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.sched.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, readyResponse{Reason: "draining"})
		return
	}
	if rep := s.fsckReport(); rep != nil && rep.Degraded() {
		writeJSON(w, http.StatusServiceUnavailable, readyResponse{
			Reason: fmt.Sprintf("degraded: startup fsck quarantined %d record(s); see /healthz and the quarantine directory", rep.Quarantined),
		})
		return
	}
	writeJSON(w, http.StatusOK, readyResponse{Ready: true})
}

// maxSubmitBytes caps a submit body; a longer one is answered 400.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.authenticate(w, r)
	if !ok {
		return
	}
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	job, err := s.sched.SubmitTenant(req, tn)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, job)
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrRateLimited), errors.Is(err, ErrQuotaExceeded):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.authenticate(w, r)
	if !ok {
		return
	}
	jobs := s.store.List()
	out := make([]JobSummary, 0, len(jobs))
	for i := range jobs {
		if s.visible(tn, &jobs[i]) {
			out = append(out, jobs[i].Summary())
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.authenticate(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	job, found := s.store.Get(id)
	if !found || !s.visible(tn, &job) {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// tenantStatus is the GET /v1/tenant payload: the caller's configuration
// plus live queue usage. Open-mode daemons report the implicit tenant.
type tenantStatus struct {
	Open       bool    `json:"open"`
	Name       string  `json:"name,omitempty"`
	Priority   string  `json:"priority,omitempty"`
	MaxQueued  int     `json:"max_queued,omitempty"`
	MaxRunning int     `json:"max_running,omitempty"`
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	Queued     int     `json:"queued"`
	Running    int     `json:"running"`
}

func (s *Server) handleTenant(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.authenticate(w, r)
	if !ok {
		return
	}
	st := tenantStatus{Open: s.tenants == nil}
	name := ""
	if tn != nil {
		st.Name = tn.Name
		st.Priority = tn.Priority
		if st.Priority == "" {
			st.Priority = PriorityNormal
		}
		st.MaxQueued = tn.MaxQueued
		st.MaxRunning = tn.MaxRunning
		st.RatePerSec = tn.RatePerSec
		name = tn.Name
	}
	st.Queued = s.sched.QueuedFor(name)
	st.Running = s.sched.RunningFor(name)
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams a job's progress as NDJSON obs.Events: a running
// or queued job's current snapshot, then one per ProgressInterval, then
// its final event once the terminal record is written. A finished job
// answers with its final event alone.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.authenticate(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	if job, found := s.store.Get(id); !found || !s.visible(tn, &job) {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	run, jr, ok := s.sched.progress(id)
	if !ok {
		// Restart-loaded job: the record survived, its progress did not.
		writeError(w, http.StatusGone, "job %q predates this daemon instance; no event stream retained", id)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	write := func(ev obs.Event) {
		if enc.Encode(ev) == nil && flusher != nil {
			flusher.Flush()
		}
	}
	if run == nil {
		write(jr.final)
		return
	}

	// Follow the run until the job is terminal or the client goes away; a
	// snapshot read after done closes is the frozen final event.
	snapshot := func() obs.Event {
		select {
		case <-jr.done:
			return jr.final
		default:
			return run.Event()
		}
	}
	write(run.Event())
	stop := obs.Follow(s.sched.cfg.ProgressInterval, snapshot, write)
	select {
	case <-jr.done:
	case <-r.Context().Done():
	}
	stop()
}

// handleObs serves the daemon-level obs summary.
func (s *Server) handleObs(w http.ResponseWriter, r *http.Request) {
	if s.run == nil {
		writeError(w, http.StatusNotFound, "observability disabled")
		return
	}
	data, err := s.run.SummaryJSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}
