package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"paracrash/internal/serve"
	"paracrash/internal/statefs"
)

// svcSpec sizes a service workload.
type svcSpec struct {
	// Fleet runs the coordinator/worker path (Shards=2, two goroutine
	// workers, production poll cadences) instead of the in-process one.
	Fleet bool
	// RoundJobs is how many completed jobs make one "pass" of the workload.
	RoundJobs int
	// WarmupJobs is how many discarded jobs set-up pushes through first.
	WarmupJobs int
	// QuickJobs is the job count of the -quick smoke run.
	QuickJobs int
}

const svcClients = 2

// svcRotation is the job mix both service workloads rotate over: four
// millisecond-class cells, so admission, queueing, job-store writes and
// result pickup are what is measured.
var svcRotation = []serve.JobRequest{
	{FS: "ext4", Program: "CR", Mode: "pruning", Workers: 1},
	{FS: "beegfs", Program: "ARVR", Mode: "pruning", Workers: 1},
	{FS: "orangefs", Program: "CR", Mode: "pruning", Workers: 1},
	{FS: "glusterfs", Program: "WAL", Mode: "pruning", Workers: 1},
}

func requestKey(r serve.JobRequest) string {
	return fmt.Sprintf("%s/%s/%s/k1", r.FS, r.Program, r.Mode)
}

// service is a stood-up daemon: store, scheduler, optional fleet workers
// and an httptest server, over a fresh state directory.
type service struct {
	w      *workload
	dir    string
	sched  *serve.Scheduler
	srv    *httptest.Server
	golden golden
	offset int // rotation offset, from the seed

	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
}

// setUpService stands the daemon up and pushes the warm-up jobs through it.
func setUpService(ctx context.Context, w *workload, cfg runConfig) (*service, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.StateDir, w.Name+"-")
	if err != nil {
		return nil, err
	}
	st, warns := serve.OpenStore(dir)
	if len(warns) > 0 {
		os.RemoveAll(dir)
		return nil, warns[0]
	}
	sc := serve.SchedulerConfig{}
	if w.svc.Fleet {
		// Poll is left 0 on both sides: the production default cadences.
		sc.Fleet = &serve.FleetConfig{Shards: 2}
	}
	s := &service{w: w, dir: dir, golden: g, offset: int(cfg.Seed % int64(len(svcRotation)))}
	if s.offset < 0 {
		s.offset += len(svcRotation)
	}
	s.sched = serve.NewScheduler(sc, st, nil)
	s.sched.Start()
	wctx, cancel := context.WithCancel(ctx)
	s.stopWorkers = cancel
	if w.svc.Fleet {
		for i := 0; i < 2; i++ {
			fw, err := serve.NewFleetWorker(serve.FleetWorkerConfig{Dir: dir, ID: fmt.Sprintf("bench-w%d", i)})
			if err != nil {
				s.close()
				return nil, err
			}
			s.workers.Add(1)
			go func() {
				defer s.workers.Done()
				_ = fw.Run(wctx) // returns ctx.Err() on stop
			}()
		}
	}
	s.srv = httptest.NewServer(serve.NewServer(s.sched, st, nil))
	if !cfg.Quick {
		if load := s.drive(ctx, w.svc.WarmupJobs, 0, nil); load.failed > 0 {
			s.close()
			return nil, fmt.Errorf("%s: warm-up jobs: %s", w.Name, load.firstErr)
		}
	}
	return s, nil
}

// close stops the server, drains the scheduler, stops the workers and
// removes the state directory.
func (s *service) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	_ = s.sched.Drain(context.Background()) // the queue is empty: every client waited for its job
	s.stopWorkers()
	s.workers.Wait()
	os.RemoveAll(s.dir)
	os.Remove(filepath.Dir(s.dir)) // the shared parent, once the last run has left it
}

// jobSample is what one client saw of one job.
type jobSample struct {
	latencyMs float64
	doneAt    time.Time
	states    int
	layers    map[string]float64 // serve.* decomposition, traced runs only
}

// load is the outcome of one closed-loop drive.
type load struct {
	jobs      []jobSample
	start     time.Time
	seconds   float64
	attempted int
	failed    int
	rejected  int
	firstErr  string
}

// drive runs svcClients closed-loop clients until maxJobs jobs have been
// started (maxJobs > 0) or the duration has passed, whichever is set. Each
// client submits, follows the job's event stream until the daemon closes
// it, then fetches the job: the sequence `paracrash -remote` performs. With
// a tracer, every second job is traced.
func (s *service) drive(ctx context.Context, maxJobs int, d time.Duration, tr *tracer) load {
	var (
		mu   sync.Mutex
		out  load
		next int
		wg   sync.WaitGroup
	)
	out.start = time.Now()
	deadline := out.start.Add(d)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if (maxJobs > 0 && next >= maxJobs) || (maxJobs == 0 && !time.Now().Before(deadline)) {
			return 0, false
		}
		next++
		return next - 1, true
	}
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			defer client.CloseIdleConnections()
			for {
				i, ok := take()
				if !ok || ctx.Err() != nil {
					return
				}
				req := svcRotation[(i+s.offset)%len(svcRotation)]
				jobTracer := tr
				if i%2 == 0 {
					jobTracer = nil
				}
				sample, rejected, err := s.oneJob(client, req, i, jobTracer)
				mu.Lock()
				out.attempted++
				out.rejected += rejected
				if err != nil {
					out.failed++
					if out.firstErr == "" {
						out.firstErr = fmt.Sprintf("job %d (%s): %v", i, requestKey(req), err)
					}
				} else {
					out.jobs = append(out.jobs, sample)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.seconds = time.Since(out.start).Seconds()
	return out
}

// oneJob submits one job and waits for its report. A refusal (429/503) is
// counted and retried; any other failure fails the job.
func (s *service) oneJob(client *http.Client, req serve.JobRequest, n int, tr *tracer) (jobSample, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return jobSample{}, 0, err
	}
	cellID := fmt.Sprintf("job-%d", n)
	base := s.srv.URL
	rejected := 0
	t0 := time.Now()

	var job serve.Job
	for {
		resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return jobSample{}, rejected, err
		}
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			drain(resp)
			rejected++
			if rejected > 100 {
				return jobSample{}, rejected, fmt.Errorf("submit refused %d times", rejected)
			}
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best-effort error text
			resp.Body.Close()
			return jobSample{}, rejected, fmt.Errorf("submit: %s: %s", resp.Status, msg)
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		drain(resp)
		if err != nil {
			return jobSample{}, rejected, fmt.Errorf("submit response: %w", err)
		}
		break
	}
	submitted := time.Now()

	// The daemon closes the stream once the job's run has ended.
	if resp, err := client.Get(base + "/v1/jobs/" + job.ID + "/events"); err == nil {
		drain(resp)
	}

	// The terminal record is written just after the stream closes.
	var fetchStart time.Time
	for tries := 0; ; tries++ {
		fetchStart = time.Now()
		resp, err := client.Get(base + "/v1/jobs/" + job.ID)
		if err != nil {
			return jobSample{}, rejected, err
		}
		job = serve.Job{}
		err = json.NewDecoder(resp.Body).Decode(&job)
		drain(resp)
		if err != nil {
			return jobSample{}, rejected, fmt.Errorf("job response: %w", err)
		}
		if job.State.Terminal() {
			break
		}
		if tries > 30000 {
			return jobSample{}, rejected, fmt.Errorf("job %s still %s", job.ID, job.State)
		}
		time.Sleep(time.Millisecond)
	}
	done := time.Now()

	if job.State != serve.JobDone || job.Report == nil {
		return jobSample{}, rejected, fmt.Errorf("job %s %s: %s", job.ID, job.State, job.Error)
	}
	if err := s.golden.check(requestKey(req), job.Report); err != nil {
		return jobSample{}, rejected, err
	}
	sample := jobSample{latencyMs: ms(done.Sub(t0)), doneAt: done, states: job.Report.Stats.StatesGenerated}
	if tr != nil && job.StartedAt != nil && job.FinishedAt != nil {
		// The fetch that returns the terminal record may already be in
		// flight when the job finishes; the client then waited for nothing.
		finished := *job.FinishedAt
		if finished.After(fetchStart) {
			finished = fetchStart
		}
		root := tr.add("job", cellID, 0, t0, done)
		tr.add("serve.submit", cellID, root, t0, submitted)
		tr.add("serve.queue", cellID, root, job.CreatedAt, *job.StartedAt)
		tr.add("serve.run", cellID, root, *job.StartedAt, *job.FinishedAt)
		tr.add("serve.notify", cellID, root, finished, fetchStart)
		tr.add("serve.fetch", cellID, root, fetchStart, done)
		engine := ms(job.Report.Stats.Duration)
		run := ms(job.FinishedAt.Sub(*job.StartedAt))
		sample.layers = map[string]float64{
			"serve.submit_ms":       ms(submitted.Sub(t0)),
			"serve.queue_ms":        ms(job.StartedAt.Sub(job.CreatedAt)),
			"serve.run_ms":          run,
			"serve.engine_ms":       engine,
			"serve.run_overhead_ms": run - engine,
			"serve.notify_ms":       ms(fetchStart.Sub(finished)),
			"serve.fetch_ms":        ms(done.Sub(fetchStart)),
			"serve.overhead_ms":     sample.latencyMs - engine,
		}
	}
	return sample, rejected, nil
}

// drain reads a response body to its end and closes it, so the connection
// goes back to the client's pool.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body) // a broken stream ends the wait just the same
	resp.Body.Close()
}

// measure drives the service for cfg.Seconds. A traced run traces every
// second job, so the traced and the untraced jobs it compares shared the
// same daemon over the same seconds.
func (s *service) measure(ctx context.Context, cfg runConfig, res *result) {
	maxJobs := 0
	if cfg.Quick {
		maxJobs = s.w.svc.QuickJobs
	}
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	writesBefore := statefsWrites()
	l := s.drive(ctx, maxJobs, cfg.duration(), tr)
	res.count(l.attempted, l.failed, l.firstErr)
	writesPerJob := ratio(float64(statefsWrites()-writesBefore), float64(len(l.jobs)))

	if !cfg.Trace {
		lat := latencies(l.jobs, false)
		rounds := roundSeconds(l, s.w.svc.RoundJobs)
		states := 0
		for _, j := range l.jobs {
			states += j.states
		}
		res.set("pass_s", median(rounds), rounds)
		res.set("states_per_s", float64(states)/l.seconds, nil)
		res.set("job_p50_ms", median(lat), lat)
		res.set("job_tail_ms", percentile(lat, s.w.TailPct), lat)
		if highestPercentile(len(lat)) < s.w.TailPct {
			res.Notes = append(res.Notes, fmt.Sprintf("job_tail_ms is p%.0f of %d jobs: fewer than ten samples lie beyond it", s.w.TailPct, len(lat)))
		}
		res.set("jobs_per_s", float64(len(l.jobs))/l.seconds, nil)
		return
	}

	byLayer := map[string][]float64{}
	for _, j := range l.jobs {
		for k, v := range j.layers {
			byLayer[k] = append(byLayer[k], v)
		}
	}
	for k, xs := range byLayer {
		res.set(k, median(xs), xs)
	}
	res.set("serve.rejected_share", ratio(float64(l.rejected), float64(l.attempted+l.rejected)), nil)
	res.set("statefs.writes_per_job", writesPerJob, nil)
	write, app := probeStatefs(s.dir)
	res.set("statefs.write_us", median(write), write)
	res.set("statefs.append_us", median(app), app)
	res.set("trace_overhead_share", ratio(median(latencies(l.jobs, true)), median(latencies(l.jobs, false)))-1, nil)
	res.set("job_tail_percentile", s.w.TailPct, nil)
	res.set("engine.peak_rss_mb", peakRSSMB(), nil)
	res.spans = tr.from(0)
}

// latencies returns the client-observed latency of the traced or of the
// untraced jobs.
func latencies(jobs []jobSample, traced bool) []float64 {
	var xs []float64
	for _, j := range jobs {
		if (j.layers != nil) == traced {
			xs = append(xs, j.latencyMs)
		}
	}
	return xs
}

// roundSeconds splits the drive into rounds of n completed jobs, in
// completion order, and returns each round's wall seconds. A drive shorter
// than one round is one round.
func roundSeconds(l load, n int) []float64 {
	done := make([]time.Time, len(l.jobs))
	for i, j := range l.jobs {
		done[i] = j.doneAt
	}
	sort.Slice(done, func(a, b int) bool { return done[a].Before(done[b]) })
	var rounds []float64
	prev := l.start
	for i := n; i <= len(done); i += n {
		rounds = append(rounds, done[i-1].Sub(prev).Seconds())
		prev = done[i-1]
	}
	if len(rounds) == 0 {
		rounds = []float64{l.seconds}
	}
	return rounds
}

var (
	siteProbeWrite  = statefs.Register("benchmark/probe-write", statefs.OpAtomic)
	siteProbeAppend = statefs.Register("benchmark/probe-append", statefs.OpJournal)
)

// statefsWrites totals the durable writes completed through the daemon's
// registered sites in this process.
func statefsWrites() int64 {
	var n int64
	for _, site := range statefs.Sites() {
		if site != siteProbeWrite && site != siteProbeAppend {
			n += site.Writes()
		}
	}
	return n
}

// probeStatefs times the two write disciplines the daemon uses, directly,
// in the state directory: 200 atomic replaces and 200 journal appends of a
// job-record-sized payload. Microseconds per call.
func probeStatefs(dir string) (write, app []float64) {
	payload := bytes.Repeat([]byte("x"), 1024)
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if err := statefs.WriteBytes(siteProbeWrite, filepath.Join(dir, "probe.json"), payload); err != nil {
			return nil, nil
		}
		write = append(write, us(time.Since(t0)))
		t0 = time.Now()
		if err := statefs.Append(siteProbeAppend, filepath.Join(dir, "probe.journal"), payload[:128]); err != nil {
			return nil, nil
		}
		app = append(app, us(time.Since(t0)))
	}
	return write, app
}
