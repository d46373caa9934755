package serve

// The wake-up path, at the cadences users run: every test here leaves Poll
// at 0 on both sides (500 ms worker, 250 ms coordinator), so a job or a
// pickup that finishes in a fraction of that was woken, not polled. The
// file is Linux-only because the wake-ups are inotify's.

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"paracrash/internal/exps"
	"paracrash/internal/obs"
	core "paracrash/internal/paracrash"
)

// wokenBound is what the median woken job must beat: well under either
// ticker, well over the few milliseconds the work takes.
const wokenBound = 100 * time.Millisecond

// timedDir is a fleet directory for the tests that assert a latency: on
// tmpfs where the box has one, so that what is timed is the wake-up and not
// a neighbour's fsync on the shared disk (a fleet job makes thirty durable
// writes, and the sandbox's disk stalls single ones for tens of
// milliseconds).
func timedDir(t *testing.T) string {
	t.Helper()
	dir, err := os.MkdirTemp("/dev/shm", "paracrash-wake-")
	if err != nil {
		return t.TempDir()
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}

// quickJob is a millisecond-class explore job.
var quickJob = JobRequest{Kind: JobKindExplore, FS: "ext4", Program: "CR", Mode: "pruning"}

// runJobs pushes n jobs through the scheduler one after another and returns
// each one's submit-to-done latency and the last job's record.
func runJobs(t *testing.T, s *Scheduler, st *Store, req JobRequest, n int) ([]time.Duration, Job) {
	t.Helper()
	var (
		lat  []time.Duration
		last Job
	)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		job, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		for {
			j, _ := st.Get(job.ID)
			if j.State.Terminal() {
				last = j
				break
			}
			if time.Since(t0) > 30*time.Second {
				t.Fatalf("job %d (%s) still %s after 30s", i, job.ID, j.State)
			}
			time.Sleep(50 * time.Microsecond)
		}
		lat = append(lat, time.Since(t0))
		if last.State != JobDone || last.Report == nil {
			t.Fatalf("job %d ended %s: %s", i, last.State, last.Error)
		}
	}
	return lat, last
}

// percentile picks the pth percentile from sorted latencies (nearest-rank).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func medianOf(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return percentile(s, 0.5)
}

func sumCounter(runs []*obs.Run, name string) int64 {
	var n int64
	for _, r := range runs {
		n += r.Counter(name).Value()
	}
	return n
}

// fleetConfig is a coordinator config at production cadences.
func fleetConfig(maxConcurrent int) SchedulerConfig {
	return SchedulerConfig{MaxConcurrent: maxConcurrent, Fleet: &FleetConfig{Shards: 2}}
}

// TestWakeupJobLatency: twenty millisecond-class fleet jobs each finish well
// under either ticker, and the report is the standalone one.
func TestWakeupJobLatency(t *testing.T) {
	want := standaloneFingerprint(t, quickJob)
	f := startFleetWith(t, timedDir(t), fleetConfig(1), 2, nil)
	defer f.stop()

	lat, last := runJobs(t, f.sched, f.store, quickJob, 20)
	// The typical job is held to wokenBound; each one only to beating the
	// faster ticker, which no polled job can (TestWakeupFallback) and which
	// the odd 100 ms stall of a shared two-CPU box leaves alone.
	if m := medianOf(lat); m >= wokenBound {
		t.Errorf("median job took %v, want < %v", m, wokenBound)
	}
	for i, d := range lat {
		if d >= f.sched.fleet.Poll {
			t.Errorf("job %d took %v, want < %v: it waited for a ticker", i, d, f.sched.fleet.Poll)
		}
	}
	if got := exps.ReportFingerprint(last.Report); got != want {
		t.Errorf("fleet report diverged from standalone:\nfleet:      %.120q\nstandalone: %.120q", got, want)
	}
	t.Logf("median %v, slowest %v over %d jobs", medianOf(lat), slices.Max(lat), len(lat))
	if n := f.obs.Counter("fleet/wakeups").Value(); n == 0 {
		t.Error("coordinator counted no wake-up")
	}
	if n := sumCounter(f.workers, "fleet/wakeups"); n == 0 {
		t.Error("workers counted no wake-up")
	}
	if n := f.obs.Counter("fleet/watch-errors").Value() + sumCounter(f.workers, "fleet/watch-errors"); n != 0 {
		t.Errorf("fleet/watch-errors = %d, want 0", n)
	}
}

// TestWakeupNotLost writes 500 tasks one at a time, each the instant the
// previous result lands — when the worker is between its last look at the
// directory and its next wait, the window a lost wake-up would hide in. A
// lost one costs the rest of a 500 ms tick, so none should take half of
// that; two in the 500 may, because a shared two-CPU box now and then
// stalls a process that long, while a window that loses wake-ups loses
// them by the dozen here.
func TestWakeupNotLost(t *testing.T) {
	dir := timedDir(t)
	run := obs.NewRun()
	w, err := NewFleetWorker(FleetWorkerConfig{Dir: dir, ID: "w0", Obs: run})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()

	req := quickJob
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	const tasks = 500
	var (
		worst time.Duration
		slow  int // tasks that took Poll/2 or more
	)
	for i := 0; i < tasks; i++ {
		job := fmt.Sprintf("j-%04d", i)
		t0 := time.Now()
		if err := WriteShardTask(dir, ShardTask{Job: job, Shard: core.ShardSpec{Index: i % 2, Count: 2}, Request: req}); err != nil {
			t.Fatal(err)
		}
		result := shardResultPath(dir, job, i%2)
		for {
			if _, err := os.Stat(result); err == nil {
				break
			}
			if time.Since(t0) > 10*time.Second {
				t.Fatalf("task %d never produced a result", i)
			}
			time.Sleep(20 * time.Microsecond)
		}
		d := time.Since(t0)
		worst = max(worst, d)
		if d >= w.cfg.Poll/2 {
			slow++
		}
		if i > 0 { // keep the directory small; the worker is done with the previous job
			RemoveShardFiles(dir, fmt.Sprintf("j-%04d", i-1), 2)
		}
	}
	if slow > 2 {
		t.Errorf("%d of %d tasks took %v (Poll/2) or more from write to result, the slowest %v: wake-ups were lost", slow, tasks, w.cfg.Poll/2, worst)
	}
	if n := run.Counter("fleet/shards-done").Value(); n != tasks {
		t.Errorf("fleet/shards-done = %d, want %d", n, tasks)
	}
	t.Logf("slowest of %d write-to-result times: %v; %d wake-ups, %d listings", tasks, worst,
		run.Counter("fleet/wakeups").Value(), run.Counter("fleet/dir-scans").Value())
}

// TestWakeupCrossProcess: the watch is the kernel's, so it crosses
// processes on one host — a real worker process is woken by a coordinator
// in another, which is what `paracrashd -role worker` gets.
func TestWakeupCrossProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a worker subprocess; skipped in -short")
	}
	want := standaloneFingerprint(t, quickJob)
	dir := timedDir(t)

	ctx, cancel := context.WithCancel(context.Background())
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), envSelfCheckScenario+"="+scenarioFleetWorker, envSelfCheckDir+"="+dir)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cancel() // kills the worker
		_ = cmd.Wait()
	}()

	f := startFleetWith(t, dir, fleetConfig(1), 0, nil)
	defer f.stop()
	lat, last := runJobs(t, f.sched, f.store, quickJob, 31)
	// The first job also pays for the worker process starting up.
	if m := medianOf(lat); m >= wokenBound {
		t.Errorf("median job across processes took %v, want < %v\nworker stderr:\n%s", m, wokenBound, stderr.String())
	}
	if got := exps.ReportFingerprint(last.Report); got != want {
		t.Errorf("cross-process fleet report diverged from standalone:\nfleet:      %.120q\nstandalone: %.120q", got, want)
	}
	t.Logf("median %v over %d jobs (first %v)", medianOf(lat), len(lat), lat[0])
}

// TestWakeupFallback: with no watch on either side the fleet is the one it
// was before wake-ups — same report, a job per worker tick — and says so.
func TestWakeupFallback(t *testing.T) {
	want := standaloneFingerprint(t, quickJob)
	f := startFleetWith(t, t.TempDir(), fleetConfig(1), 2, func(s *Scheduler, ws []*FleetWorker) {
		s.watchDir = failingWatch
		for _, w := range ws {
			w.watchDir = failingWatch
		}
	})
	defer f.stop()

	lat, last := runJobs(t, f.sched, f.store, quickJob, 3)
	if got := exps.ReportFingerprint(last.Report); got != want {
		t.Errorf("fallback fleet report diverged from standalone:\nfleet:      %.120q\nstandalone: %.120q", got, want)
	}
	// A job waits for a worker's tick (at most 500 ms) and then for one of
	// its own (250 ms apart, the first 250 ms after its tasks are written).
	for i, d := range lat {
		if d < f.sched.fleet.Poll || d > 2*time.Second {
			t.Errorf("job %d took %v without a watch, want a Poll (%v) at least and two or so at most", i, d, f.sched.fleet.Poll)
		}
	}
	if n := f.obs.Counter("fleet/watch-errors").Value(); n != 1 {
		t.Errorf("coordinator fleet/watch-errors = %d, want 1", n)
	}
	for i, r := range f.workers {
		if n := r.Counter("fleet/watch-errors").Value(); n != 1 {
			t.Errorf("worker %d fleet/watch-errors = %d, want 1", i, n)
		}
		if n := r.Counter("fleet/dir-scans").Value(); n < 3 {
			t.Errorf("worker %d fleet/dir-scans = %d, want one per tick at least", i, n)
		}
	}
	if n := f.obs.Counter("fleet/wakeups").Value() + sumCounter(f.workers, "fleet/wakeups"); n != 0 {
		t.Errorf("fleet/wakeups = %d with no watch, want 0", n)
	}
}

// openFDs lists what /proc/self/fd points at.
func openFDs(t *testing.T) []string {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	var out []string
	for _, e := range ents {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil {
			out = append(out, target)
		}
	}
	return out
}

func inotifyFDs(t *testing.T) int {
	n := 0
	for _, target := range openFDs(t) {
		if strings.Contains(target, "inotify") {
			n++
		}
	}
	return n
}

// TestWatchNoLeak: a hundred start/stop cycles of a worker and of a
// coordinating scheduler leave no goroutine and no descriptor behind.
func TestWatchNoLeak(t *testing.T) {
	dir := t.TempDir()
	st, _ := OpenStore(dir)
	cycle := func() {
		run := obs.NewRun()
		w, err := NewFleetWorker(FleetWorkerConfig{Dir: dir, Obs: run})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = w.Run(ctx)
		}()
		for run.Counter("fleet/dir-scans").Value() == 0 { // the watch is up before the first listing
			time.Sleep(20 * time.Microsecond)
		}
		cancel()
		<-done

		s := NewScheduler(fleetConfig(2), st, nil)
		s.Start()
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // whatever the runtime sets up once is set up now
	goroutines, fds := runtime.NumGoroutine(), len(openFDs(t))
	for i := 0; i < 100; i++ {
		cycle()
	}
	if n := inotifyFDs(t); n != 0 {
		t.Errorf("%d inotify descriptors open after every worker and scheduler stopped", n)
	}
	if n := len(openFDs(t)); n > fds {
		t.Errorf("open descriptors grew from %d to %d over 100 cycles", fds, n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("goroutines grew from %d to %d over 100 cycles", goroutines, n)
	}
}

// TestWatchOnePerRole: eight jobs in flight on one coordinator share one
// inotify instance, a worker adds one, and both go when their owner stops.
func TestWatchOnePerRole(t *testing.T) {
	before := inotifyFDs(t)
	f := startFleetWith(t, t.TempDir(), fleetConfig(8), 0, nil)
	for i := 0; i < 8; i++ {
		if _, err := f.sched.Submit(quickJob); err != nil {
			t.Fatal(err)
		}
	}
	for { // no worker yet: all eight sit in executeFleet, waiting
		f.sched.watchMu.Lock()
		n := len(f.sched.waiting)
		f.sched.watchMu.Unlock()
		if n == 8 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if n := inotifyFDs(t) - before; n != 1 {
		t.Errorf("coordinator with 8 jobs in flight holds %d inotify instances, want 1", n)
	}

	w, err := NewFleetWorker(FleetWorkerConfig{Dir: f.store.Dir()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx)
	}()
	for _, j := range f.store.List() {
		waitState(t, f.store, j.ID, JobDone)
	}
	if n := inotifyFDs(t) - before; n != 2 {
		t.Errorf("coordinator plus one worker hold %d inotify instances, want 2", n)
	}
	cancel()
	<-done
	f.stop()
	if n := inotifyFDs(t) - before; n != 0 {
		t.Errorf("%d inotify instances left after Run returned and Drain completed", n)
	}
}

// TestWakeupDoesNoListing: with 2,000 old job records in the store, 200
// fleet jobs are picked up by name — the listings a worker makes are its
// start-up one and one per Poll, however many jobs pass, while wake-ups
// grow with the jobs.
func TestWakeupDoesNoListing(t *testing.T) {
	if testing.Short() {
		t.Skip("writes 2,000 job records; skipped in -short")
	}
	const records, jobs = 2000, 200
	drive := func(records int) (time.Duration, *testFleet, time.Duration) {
		dir := timedDir(t)
		st, _ := OpenStore(dir)
		for i := 0; i < records; i++ {
			st.Add(&Job{Version: JobVersion, ID: fmt.Sprintf("j-old-%04d", i), State: JobDone, Request: quickJob, CreatedAt: time.Now().UTC()})
		}
		start := time.Now()
		f := startFleetWith(t, dir, fleetConfig(1), 2, nil)
		lat, _ := runJobs(t, f.sched, f.store, quickJob, jobs)
		f.stop()
		return medianOf(lat), f, time.Since(start)
	}
	bare, _, _ := drive(0)
	full, f, elapsed := drive(records)
	t.Logf("median job latency: %v with an empty store, %v with %d job records in it", bare, full, records)

	for i, r := range f.workers {
		allowed := 1 + int64(elapsed/(500*time.Millisecond))
		if n := r.Counter("fleet/dir-scans").Value(); n > allowed {
			t.Errorf("worker %d listed the directory %d times in %v, want <= %d (start-up + one per Poll)", i, n, elapsed, allowed)
		}
	}
	if n := sumCounter(f.workers, "fleet/wakeups"); n < jobs {
		t.Errorf("workers' fleet/wakeups = %d over %d jobs, want it to grow with the jobs", n, jobs)
	}
	if n := f.obs.Counter("fleet/wakeups").Value(); n < jobs {
		t.Errorf("coordinator's fleet/wakeups = %d over %d jobs, want it to grow with the jobs", n, jobs)
	}
}
