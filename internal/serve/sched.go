package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"paracrash/internal/exps"
	"paracrash/internal/obs"
	core "paracrash/internal/paracrash"
)

// Admission errors, mapped to HTTP statuses by the server (429 and 503).
var (
	// ErrQueueFull signals backpressure: the FIFO queue is at capacity.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining signals shutdown: the scheduler no longer accepts jobs.
	ErrDraining = errors.New("serve: scheduler is draining")
)

// SchedulerConfig bounds the scheduler. The zero value is usable: 2
// concurrent jobs, a 16-deep queue, no default timeout.
type SchedulerConfig struct {
	// MaxConcurrent is the number of jobs running at once (default 2).
	MaxConcurrent int
	// QueueDepth bounds the FIFO queue; a full queue rejects submissions
	// with ErrQueueFull (default 16).
	QueueDepth int
	// DefaultTimeout applies to jobs that do not request one (0 = none).
	DefaultTimeout time.Duration
	// MaxTimeout caps every job's timeout, requested or defaulted
	// (0 = no cap).
	MaxTimeout time.Duration
	// ProgressInterval is how often the events endpoint writes a running
	// job's progress snapshot to each of its readers (default 250ms).
	ProgressInterval time.Duration
	// Fleet, when non-nil, makes this scheduler a fleet coordinator: explore
	// jobs whose effective partition width is >= 2 are sharded across worker
	// processes through the shared results directory (see shard.go). Requires
	// a persistent store (fleet records are files).
	Fleet *FleetConfig
	// Tenants, when non-nil, turns on multi-tenancy: the server requires an
	// API key on /v1 routes, submissions pass per-tenant rate limits and
	// queued-job quotas, and the queue becomes priority-classed and
	// tenant-fair (see tenant.go and queue.go).
	Tenants *Tenants
}

func (c SchedulerConfig) withDefaults() SchedulerConfig {
	if c.MaxConcurrent < 1 {
		c.MaxConcurrent = 2
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 16
	}
	if c.ProgressInterval <= 0 {
		c.ProgressInterval = 250 * time.Millisecond
	}
	return c
}

// jobRun is the live half of a job. While the job is queued or running,
// run collects its metrics and the events endpoint reads it. When the job
// becomes terminal the scheduler writes the record, freezes final from
// run, closes done and drops run, so a finished job keeps one Event and no
// collector. Restart-loaded jobs have no entry.
type jobRun struct {
	run   *obs.Run
	done  chan struct{}
	final obs.Event
}

func newJobRun() *jobRun {
	return &jobRun{run: obs.NewRun(), done: make(chan struct{})}
}

// Scheduler owns the job queue and the worker pool.
type Scheduler struct {
	cfg    SchedulerConfig
	store  *Store
	obs    *obs.Run    // daemon-level run (queue gauges, job counters)
	router *obs.Router // telemetry router: daemon run + live job runs
	fleet  FleetConfig // resolved coordinator knobs (zero when not a coordinator)

	fq *fairQueue
	wg sync.WaitGroup

	mu       sync.Mutex
	draining bool
	runs     map[string]*jobRun

	// Every job's context derives from jobs; a drain whose deadline passes
	// cancels it, and with it every running and still-queued job.
	jobs       context.Context
	cancelJobs context.CancelFunc

	// The coordinator's directory watch (shard.go): started by Start, closed
	// by Drain, nil when not a coordinator or when it could not start.
	watch *dirWatcher
	// watchDir starts it; tests substitute one that fails.
	watchDir func(dir string, on func(dirEvent)) (*dirWatcher, error)
	watchMu  sync.Mutex
	waiting  map[string]chan struct{} // job → wake channel of its executeFleet

	// executor runs one job's payload; tests substitute it to control job
	// duration and failure modes without spinning real explorations. It
	// receives the whole job (not just the request) so the real executor can
	// derive the job's checkpoint-journal path from its ID.
	executor func(ctx context.Context, job *Job, run *obs.Run) (*core.Report, error)

	ctrSubmitted *obs.Counter
	ctrRejected  *obs.Counter
	ctrDone      *obs.Counter
	ctrFailed    *obs.Counter
	ctrCanceled  *obs.Counter
	gaugeQueued  *obs.Gauge
	gaugeRunning *obs.Gauge
}

// NewScheduler builds a scheduler over the store; run (nilable) receives
// the daemon-level metrics. Call Start to launch the worker pool.
//
// The scheduler also owns the daemon's telemetry router (see Router): the
// daemon run is its process-level collector, every live job's run is
// attached under the job ID for the duration of the job, and a finished
// job's counters fold into the fleet totals on detach — so the /metrics
// exposition carries per-job series for running jobs and monotonic
// fleet-level rollups across completions.
func NewScheduler(cfg SchedulerConfig, store *Store, run *obs.Run) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		cfg:    cfg,
		store:  store,
		obs:    run,
		router: obs.NewRouter(),
		fq:     newFairQueue(),
		runs:   map[string]*jobRun{},

		watchDir: watchDir,
		waiting:  map[string]chan struct{}{},

		ctrSubmitted: run.Counter("jobs/submitted"),
		ctrRejected:  run.Counter("jobs/rejected"),
		ctrDone:      run.Counter("jobs/done"),
		ctrFailed:    run.Counter("jobs/failed"),
		ctrCanceled:  run.Counter("jobs/canceled"),
		gaugeQueued:  run.Gauge("jobs/queued"),
		gaugeRunning: run.Gauge("jobs/running"),
	}
	if cfg.Fleet != nil {
		s.fleet = cfg.Fleet.withDefaults()
	}
	s.jobs, s.cancelJobs = context.WithCancel(context.Background())
	s.router.Attach("", run)
	s.executor = s.execute
	return s
}

// fleetEnabled reports whether this scheduler coordinates a worker fleet
// (configured for it and backed by a persistent store to exchange records).
func (s *Scheduler) fleetEnabled() bool {
	return s.cfg.Fleet != nil && s.store.Dir() != ""
}

// Tenants returns the tenant registry (nil in open mode). The server uses
// it to authenticate /v1 requests.
func (s *Scheduler) Tenants() *Tenants {
	return s.cfg.Tenants
}

// QueuedFor reports how many of the tenant's jobs are queued ("" is the
// open-mode default tenant).
func (s *Scheduler) QueuedFor(tenant string) int { return s.fq.queuedFor(tenant) }

// RunningFor reports how many of the tenant's jobs are running ("" is the
// open-mode default tenant).
func (s *Scheduler) RunningFor(tenant string) int { return s.fq.runningFor(tenant) }

// tenantOf resolves a persisted job's tenant name against the current
// registry; a job from an open-mode era (or a since-removed tenant) falls
// back to default scheduling.
func (s *Scheduler) tenantOf(name string) (*Tenant, bool) {
	if name == "" || s.cfg.Tenants == nil {
		return nil, false
	}
	return s.cfg.Tenants.ByName(name)
}

// Router returns the scheduler's telemetry router. The server mounts its
// Prometheus handler at /metrics, so each scrape is one Sample.
func (s *Scheduler) Router() *obs.Router {
	return s.router
}

// Start launches the worker pool and, on a coordinator, the directory
// watch its jobs wait on.
func (s *Scheduler) Start() {
	if s.fleetEnabled() {
		s.watchResults()
	}
	for i := 0; i < s.cfg.MaxConcurrent; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				qj := s.fq.pop()
				if qj == nil {
					return
				}
				s.gaugeQueued.Add(-1)
				s.runJob(qj.job)
				s.fq.release(qj.tenant)
			}
		}()
	}
}

// Submit validates, enqueues and registers a job for the open-mode default
// tenant. ErrQueueFull and ErrDraining are admission rejections; other
// errors are request errors.
func (s *Scheduler) Submit(req JobRequest) (Job, error) {
	return s.SubmitTenant(req, nil)
}

// SubmitTenant is Submit on behalf of a tenant (nil = the open-mode
// default): the submission additionally passes the tenant's token-bucket
// rate limit (ErrRateLimited) and queued-job quota (ErrQuotaExceeded), and
// the job queues in the tenant's priority class.
func (s *Scheduler) SubmitTenant(req JobRequest, tn *Tenant) (Job, error) {
	if err := req.Normalize(); err != nil {
		return Job{}, err
	}
	job := &Job{
		Version:   JobVersion,
		ID:        newJobID(),
		State:     JobQueued,
		Request:   req,
		CreatedAt: time.Now().UTC(),
	}
	name, prio, maxRun := "", 1, 0
	if tn != nil {
		job.Tenant = tn.Name
		name = tn.Name
		prio, _ = priorityIndex(tn.Priority) // validated at registry build
		maxRun = tn.MaxRunning
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.ctrRejected.Inc()
		return Job{}, ErrDraining
	}
	// Admission order: the tenant's own limits first (rate, then quota), the
	// shared queue depth last — a tenant over its own budget is told so even
	// when the global queue also happens to be full.
	if tn != nil && s.cfg.Tenants != nil && !s.cfg.Tenants.Allow(tn.Name) {
		s.mu.Unlock()
		s.ctrRejected.Inc()
		s.obs.Counter("tenant/" + tn.Name + "/rate-limited").Inc()
		return Job{}, ErrRateLimited
	}
	if tn != nil && tn.MaxQueued > 0 && s.fq.queuedFor(tn.Name) >= tn.MaxQueued {
		s.mu.Unlock()
		s.ctrRejected.Inc()
		s.obs.Counter("tenant/" + tn.Name + "/quota-rejected").Inc()
		return Job{}, ErrQuotaExceeded
	}
	// Every push happens under s.mu and workers only drain the queue, so
	// this depth check bounds the queue exactly.
	if s.fq.len() >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.ctrRejected.Inc()
		return Job{}, ErrQueueFull
	}
	// Register the live half, its router attachment and the store record
	// before the job becomes visible to workers: a worker that dequeues it
	// immediately must find all three (and may finish, dropping the run and
	// detaching it, before Submit returns), and the events endpoint can
	// subscribe the instant Submit returns. Snapshot the record now — once
	// enqueued, workers own it.
	jr := newJobRun()
	s.runs[job.ID] = jr
	s.router.Attach(job.ID, jr.run)
	s.store.Add(job)
	snap := *job
	s.gaugeQueued.Add(1)
	s.fq.push(&queuedJob{job: job, tenant: name, maxRun: maxRun}, prio)
	s.mu.Unlock()

	s.ctrSubmitted.Inc()
	if tn != nil {
		s.obs.Counter("tenant/" + tn.Name + "/submitted").Inc()
	}
	return snap, nil
}

// progress returns what the events endpoint reads of a job: its live run
// (nil once the job is terminal) and its jobRun, whose done channel closes
// once final holds the job's last Event. ok is false for unknown and
// restart-loaded jobs, which have no progress to read.
func (s *Scheduler) progress(id string) (run *obs.Run, jr *jobRun, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jr, ok = s.runs[id]
	if !ok {
		return nil, nil, false
	}
	return jr.run, jr, true
}

// Draining reports whether the scheduler has stopped accepting jobs.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admission and waits for the queue to empty and in-flight
// jobs to finish, then closes the coordinator's directory watch. When ctx
// expires first, the remaining jobs are cancelled and Drain waits for them
// to acknowledge. Idempotent.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.fq.close()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.cancelJobs()
		<-done
		err = ctx.Err()
	}
	s.watch.Close() // no job is left to wake
	return err
}

// maxTimeoutSeconds is the longest timeout a time.Duration holds, in
// seconds: a longer request would overflow to a negative duration.
const maxTimeoutSeconds = float64(math.MaxInt64 / int64(time.Second))

// timeoutFor resolves a job's effective timeout.
func (s *Scheduler) timeoutFor(req JobRequest) time.Duration {
	d := s.cfg.DefaultTimeout
	if req.TimeoutSeconds > 0 {
		d = time.Duration(min(req.TimeoutSeconds, maxTimeoutSeconds) * float64(time.Second))
	}
	if s.cfg.MaxTimeout > 0 && (d == 0 || d > s.cfg.MaxTimeout) {
		d = s.cfg.MaxTimeout
	}
	return d
}

// runJob executes one job with timeout, cancellation and panic isolation,
// then records the terminal state and, only then, ends the job's event
// streams: a client that reads the stream to its end finds the job
// terminal.
func (s *Scheduler) runJob(job *Job) {
	s.mu.Lock()
	jr := s.runs[job.ID]
	s.mu.Unlock()
	if jr == nil { // unreachable: Submit registers before enqueueing
		jr = newJobRun()
	}

	ctx := s.jobs
	if d := s.timeoutFor(job.Request); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	now := time.Now().UTC()
	_ = s.store.Update(job.ID, func(j *Job) {
		j.State = JobRunning
		j.StartedAt = &now
	})
	s.gaugeRunning.Add(1)
	defer s.gaugeRunning.Add(-1)

	report, err := s.safeExecute(ctx, job, jr.run)

	end := time.Now().UTC()
	perr := s.store.Update(job.ID, func(j *Job) {
		j.FinishedAt = &end
		j.Report = report
		switch {
		case err == nil:
			j.State = JobDone
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			j.State = JobCanceled
			j.Error = err.Error()
		default:
			j.State = JobFailed
			j.Error = err.Error()
		}
	})
	if perr != nil {
		// The record stays queryable in memory; persistence failure only
		// costs restart durability.
		s.obs.Counter("jobs/persist-errors").Inc()
	}
	switch {
	case err == nil:
		s.ctrDone.Inc()
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.ctrCanceled.Inc()
	default:
		s.ctrFailed.Inc()
	}

	// With the record written, freeze the final event and end every
	// events stream. Dropping the run releases the job's collector, and
	// detaching it from the router folds its final counters into the fleet
	// totals and ends its per-job /metrics series (bounded label
	// cardinality).
	final := jr.run.Event()
	final.Final = true
	s.mu.Lock()
	jr.final = final
	close(jr.done)
	jr.run = nil
	s.mu.Unlock()
	s.router.Detach(job.ID)
}

// safeExecute isolates panics: a panic anywhere in the engine becomes a
// job failure instead of taking the daemon down.
func (s *Scheduler) safeExecute(ctx context.Context, job *Job, run *obs.Run) (report *core.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			report = nil
			err = fmt.Errorf("serve: job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return s.executor(ctx, job, run)
}

// checkpointPath is the per-job checkpoint-journal location ("" for a
// memory-only store — no directory to journal into).
func (s *Scheduler) checkpointPath(id string) string {
	if s.store.Dir() == "" {
		return ""
	}
	return filepath.Join(s.store.Dir(), "ckpt-"+sanitizeID(id)+".jsonl")
}

// spec assembles a job's run in this daemon: the request's spec under the
// per-job worker cap, with the job's run and checkpoint journal. The
// journal lives next to the job record; a resubmitted job (same ID)
// resumes from it, and a clean finish removes it.
func (s *Scheduler) spec(job *Job, run *obs.Run) (exps.Spec, error) {
	sp, err := job.Request.Spec()
	if err != nil {
		return exps.Spec{}, err
	}
	sp.Options.Obs = run
	if p := s.checkpointPath(job.ID); p != "" {
		sp.Options.Checkpoint = core.OpenCheckpoint(p)
	}
	return sp, nil
}

// execute runs an explore job: sharded across the fleet when this
// scheduler coordinates one and the job's partition is at least two wide,
// in-process otherwise.
func (s *Scheduler) execute(ctx context.Context, job *Job, run *obs.Run) (*core.Report, error) {
	if s.fleetEnabled() {
		if n := s.fleet.effectiveShards(job.Request); n >= 2 {
			return s.executeFleet(ctx, job, run, n)
		}
	}
	sp, err := s.spec(job, run)
	if err != nil {
		return nil, err
	}
	rep, err := sp.Run(ctx)
	if err != nil {
		return nil, err
	}
	if sp.Options.Checkpoint != nil {
		if n := sp.Options.Checkpoint.Resumed(); n > 0 {
			run.Counter("job/resumed-verdicts").Add(int64(n))
		}
		os.Remove(sp.Options.Checkpoint.Path())
	}
	return rep, nil
}

// Resubmit re-enqueues a non-terminal job — one a previous daemon process
// was killed while running — under its original ID, so its explore
// checkpoint journal (if any) is picked up and the work continues from the
// frontier. Admission control applies like Submit's. A job of the retired
// fuzz kind is not run: it is finished as failed, and the error says so.
func (s *Scheduler) Resubmit(id string) error {
	j, ok := s.store.Get(id)
	if !ok {
		return fmt.Errorf("serve: resubmit of unknown job %s", id)
	}
	if j.State.Terminal() {
		return fmt.Errorf("serve: job %s already finished", id)
	}
	if j.Request.Kind == retiredFuzzKind {
		// Should the record fail to persist, the next start finds it
		// interrupted again and finishes it the same way.
		end := time.Now().UTC()
		_ = s.store.Update(id, func(job *Job) {
			job.State = JobFailed
			job.Error = errFuzzRetired.Error()
			job.FinishedAt = &end
		})
		s.ctrFailed.Inc()
		return fmt.Errorf("serve: job %s marked failed: %w", id, errFuzzRetired)
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.ctrRejected.Inc()
		return ErrDraining
	}
	if s.fq.len() >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.ctrRejected.Inc()
		return ErrQueueFull
	}
	jr := newJobRun()
	s.runs[id] = jr
	s.router.Attach(id, jr.run)
	_ = s.store.Update(id, func(job *Job) {
		job.State = JobQueued
		job.Resumes++
		job.StartedAt = nil
	})
	s.gaugeQueued.Add(1)
	// Workers only read ID, Request and Tenant off the queued record; the
	// store keeps the canonical copy. Resubmission is the daemon recovering
	// its own interrupted work, so the tenant's rate limit and queued quota
	// do not re-apply — but its priority class and running cap still do.
	prio, maxRun := 1, 0
	if tn, ok := s.tenantOf(j.Tenant); ok {
		prio, _ = priorityIndex(tn.Priority)
		maxRun = tn.MaxRunning
	}
	s.fq.push(&queuedJob{job: &Job{ID: id, Request: j.Request, Tenant: j.Tenant}, tenant: j.Tenant, maxRun: maxRun}, prio)
	s.mu.Unlock()

	s.obs.Counter("jobs/resumed").Inc()
	return nil
}

// newJobID mints a random 12-hex-digit job ID.
func newJobID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is unrecoverable noise; fall back to a
		// time-derived ID rather than refusing jobs.
		return fmt.Sprintf("j-%012x", time.Now().UnixNano()&0xffffffffffff)
	}
	return "j-" + hex.EncodeToString(b[:])
}
