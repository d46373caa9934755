package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"paracrash/internal/exps"
	"paracrash/internal/obs"
	core "paracrash/internal/paracrash"
)

// testFleet is a coordinator scheduler over a persistent store plus worker
// loops sharing its directory, every cadence left at its production default.
type testFleet struct {
	sched   *Scheduler
	store   *Store
	obs     *obs.Run   // the coordinator's daemon-level run
	workers []*obs.Run // one run per worker
	stop    func()     // stops the workers, then drains the scheduler
}

// startFleetWith builds a testFleet; tweak (nilable) sees the scheduler and
// the workers before anything is started.
func startFleetWith(t *testing.T, dir string, cfg SchedulerConfig, workers int, tweak func(*Scheduler, []*FleetWorker)) *testFleet {
	t.Helper()
	st, warns := OpenStore(dir)
	if len(warns) > 0 {
		t.Fatal(warns[0])
	}
	f := &testFleet{store: st, obs: obs.NewRun()}
	f.sched = NewScheduler(cfg, st, f.obs)
	var ws []*FleetWorker
	for i := 0; i < workers; i++ {
		run := obs.NewRun()
		w, err := NewFleetWorker(FleetWorkerConfig{Dir: dir, ID: fmt.Sprintf("w%d", i), Obs: run})
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
		f.workers = append(f.workers, run)
	}
	if tweak != nil {
		tweak(f.sched, ws)
	}
	f.sched.Start()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
		}()
	}
	f.stop = func() {
		cancel()
		wg.Wait()
		_ = f.sched.Drain(context.Background())
	}
	return f
}

// startFleet is the common case: one job at a time, a default shard width.
func startFleet(t *testing.T, dir string, shards, workers int) (*Scheduler, *Store, func()) {
	t.Helper()
	f := startFleetWith(t, dir, SchedulerConfig{MaxConcurrent: 1, Fleet: &FleetConfig{Shards: shards}}, workers, nil)
	return f.sched, f.store, f.stop
}

// standaloneFingerprint runs the same request in-process (serial engine)
// and fingerprints the report — the byte-identity baseline.
func standaloneFingerprint(t *testing.T, req JobRequest) string {
	t.Helper()
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	sp, err := req.Spec()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := exps.RunOneContext(context.Background(), sp.FS, sp.Program, sp.Options, sp.H5, sp.Config)
	if err != nil {
		t.Fatal(err)
	}
	return exps.ReportFingerprint(rep)
}

// TestFleetByteIdentity: a 3-worker fleet over every backend produces the
// byte-identical report a standalone serial run produces — the tentpole
// invariant, checked end to end through the coordinator, leases, shard
// checkpoints and the merge.
func TestFleetByteIdentity(t *testing.T) {
	for _, fsName := range exps.FSNames() {
		fsName := fsName
		t.Run(fsName, func(t *testing.T) {
			req := JobRequest{Kind: JobKindExplore, FS: fsName, Program: "CR", Mode: "pruning"}
			want := standaloneFingerprint(t, req)

			s, st, stop := startFleet(t, t.TempDir(), 3, 3)
			defer stop()
			job, err := s.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			done := waitState(t, st, job.ID, JobDone)
			if done.Report == nil {
				t.Fatal("fleet job finished without a report")
			}
			if got := exps.ReportFingerprint(done.Report); got != want {
				t.Errorf("fleet report diverged from standalone on %s:\nfleet:      %.120q\nstandalone: %.120q", fsName, got, want)
			}
		})
	}
}

// TestFleetShardFailureFailsJob: a shard that fails for good (not a lease
// loss) must fail the job with the worker's error, not hang the
// coordinator.
func TestFleetShardFailureFailsJob(t *testing.T) {
	dir := t.TempDir()
	st, warns := OpenStore(dir)
	if len(warns) > 0 {
		t.Fatal(warns[0])
	}
	s := NewScheduler(SchedulerConfig{
		MaxConcurrent: 1,
		Fleet:         &FleetConfig{Shards: 2},
	}, st, nil)
	s.Start()
	defer s.Drain(context.Background())

	job, err := s.Submit(JobRequest{FS: "beegfs", Program: "CR"})
	if err != nil {
		t.Fatal(err)
	}
	// Play a worker that fails shard 0 terminally.
	deadline := time.Now().Add(10 * time.Second)
	for {
		tasks, _ := ListShardTasks(dir)
		if len(tasks) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("coordinator never wrote shard tasks")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := WriteShardResult(dir, ShardResult{Job: job.ID, Shard: core.ShardSpec{Index: 0, Count: 2}, Worker: "wX", Epoch: 1, Err: "disk on fire"}); err != nil {
		t.Fatal(err)
	}
	j := waitState(t, st, job.ID, JobFailed)
	if j.Error == "" {
		t.Fatalf("failed job carries no error: %+v", j)
	}
}

// TestChaosFleetWorkerDeathLeaseReclaim is the fleet chaos drill: workers
// are repeatedly "killed" mid-shard (context cancelled while configured to
// hold the lease, exactly like a kill -9), the lease expires, a fresh
// worker reclaims the shard at a bumped epoch and resumes the dead
// worker's checkpoint journal — and the merged report is still
// byte-identical to the standalone run.
func TestChaosFleetWorkerDeathLeaseReclaim(t *testing.T) {
	// About 20 judged states per shard: a lifetime that outlasts a shard's
	// preparation still ends mid-shard, after some verdicts are journaled.
	req := JobRequest{Kind: JobKindExplore, FS: "gpfs", Program: "H5-create", Mode: "brute"}
	want := standaloneFingerprint(t, req)

	dir := t.TempDir()
	st, warns := OpenStore(dir)
	if len(warns) > 0 {
		t.Fatal(warns[0])
	}
	s := NewScheduler(SchedulerConfig{
		MaxConcurrent: 1,
		Fleet:         &FleetConfig{Shards: 3, Poll: 5 * time.Millisecond},
	}, st, nil)
	s.Start()
	defer s.Drain(context.Background())

	job, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	// Rounds of short-lived workers with escalating lifetimes: early rounds
	// die mid-shard leaving a held lease and a partial journal; later rounds
	// must wait out the TTL, reclaim at epoch >= 2 and resume the journal.
	const ttl = 50 * time.Millisecond
	var reclaims, resumed int64
	finished := func() bool {
		j, ok := st.Get(job.ID)
		return ok && j.State.Terminal()
	}
	for round := 0; !finished(); round++ {
		if round > 120 {
			t.Fatal("fleet never finished the job under worker churn")
		}
		wrun := obs.NewRun()
		w, err := NewFleetWorker(FleetWorkerConfig{
			Dir:       dir,
			ID:        fmt.Sprintf("chaos-w%d", round),
			LeaseTTL:  ttl,
			Heartbeat: 10 * time.Millisecond,
			Poll:      time.Millisecond,
			Obs:       wrun,
		})
		if err != nil {
			t.Fatal(err)
		}
		w.holdLeaseOnCancel = true
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(round+1)*3*time.Millisecond)
		_ = w.Run(ctx)
		cancel()
		reclaims += wrun.Counter("fleet/reclaims").Value()
		resumed += wrun.Counter("fleet/resumed-verdicts").Value()
		// Let the dead worker's lease expire before the next one spawns.
		time.Sleep(ttl + 20*time.Millisecond)
	}

	j := waitState(t, st, job.ID, JobDone)
	if j.Report == nil {
		t.Fatalf("chaos job finished without a report: %+v", j)
	}
	if got := exps.ReportFingerprint(j.Report); got != want {
		t.Errorf("report diverged from standalone after worker churn:\nfleet:      %.120q\nstandalone: %.120q", got, want)
	}
	if reclaims == 0 {
		t.Error("no shard was ever reclaimed from an expired lease — the chaos never bit")
	}
	if resumed == 0 {
		t.Error("no reclaimed shard resumed a dead worker's checkpoint journal")
	}
}

// shardFilesOf lists the fleet records — task, result, lease, shard
// checkpoint — that dir still holds for the job.
func shardFilesOf(t *testing.T, dir, job string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.Contains(e.Name(), sanitizeID(job)+"-shard-") {
			out = append(out, e.Name())
		}
	}
	return out
}

// waitCounter waits for the counter to reach at least want.
func waitCounter(t *testing.T, run *obs.Run, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for run.Counter(name).Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, never reached %d", name, run.Counter(name).Value(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// failingWatch stands in for a host with no inotify instance left.
func failingWatch(string, func(dirEvent)) (*dirWatcher, error) {
	return nil, errors.New("inotify_init1: too many open files")
}

// TestFleetTimeoutEndsTheWork: a fleet job that times out is canceled for
// good — nothing resubmits it — so none of its shard records may stay
// behind to keep workers busy: not for a worker that starts later, and not
// for one that is judging a shard when the timeout strikes, whether a
// watch or only its heartbeat tells it so.
func TestFleetTimeoutEndsTheWork(t *testing.T) {
	const heartbeat = time.Second // the default
	for _, tc := range []struct {
		name   string
		watch  func(string, func(dirEvent)) (*dirWatcher, error)
		within time.Duration // from the cancel to the worker letting go
	}{
		{"watch", watchDir, heartbeat / 2},
		{"heartbeat", failingWatch, heartbeat + time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "watch" && runtime.GOOS != "linux" {
				t.Skip("no directory watch on this platform")
			}
			dir := t.TempDir()
			f := startFleetWith(t, dir, SchedulerConfig{MaxConcurrent: 1, Fleet: &FleetConfig{Shards: 2}}, 0, nil)
			defer f.stop()
			submit := func(timeout float64) Job {
				t.Helper()
				job, err := f.sched.Submit(JobRequest{Kind: JobKindExplore, FS: "beegfs", Program: "ARVR", Mode: "brute", TimeoutSeconds: timeout})
				if err != nil {
					t.Fatal(err)
				}
				return job
			}

			// No worker: the tasks are never claimed and go with the job.
			idle := submit(0.05)
			waitState(t, f.store, idle.ID, JobCanceled)
			if left := shardFilesOf(t, dir, idle.ID); len(left) > 0 {
				t.Errorf("timed-out job left %v", left)
			}

			// A worker that starts afterwards finds nothing to do. Its shard
			// runs block until their context ends, so the shard it claims
			// next is still being judged when that job times out.
			run := obs.NewRun()
			w, err := NewFleetWorker(FleetWorkerConfig{Dir: dir, ID: "slow", Obs: run})
			if err != nil {
				t.Fatal(err)
			}
			w.watchDir = tc.watch
			w.runShard = func(ctx context.Context, _ exps.Spec, _ core.ShardSpec) (*core.ShardReport, error) {
				<-ctx.Done()
				return nil, ctx.Err()
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
			waitCounter(t, run, "fleet/dir-scans", 1)
			if n := run.Counter("fleet/claims").Value(); n != 0 {
				t.Errorf("a worker started after the timeout claimed %d shards of the canceled job", n)
			}

			// Mid-shard: the worker lets go without a result. The timeout
			// leaves room for a pickup by the poll ticker alone.
			busy := submit(1.5)
			waitCounter(t, run, "fleet/claims", 1)
			waitState(t, f.store, busy.ID, JobCanceled)
			doneAtCancel := run.Counter("fleet/shards-done").Value()
			canceled := time.Now()
			waitCounter(t, run, "fleet/leases-lost", 1)
			if d := time.Since(canceled); d > tc.within {
				t.Errorf("the worker judged on for %v after the cancel, want %v at most", d, tc.within)
			}
			// A worker going by an old listing may still claim the job's
			// other shard, find its task gone and drop the lease again.
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				left := shardFilesOf(t, dir, busy.ID)
				if len(left) == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("job that timed out mid-shard left %v", left)
				}
			}
			if n := run.Counter("fleet/shards-done").Value(); n != doneAtCancel {
				t.Errorf("fleet/shards-done went from %d to %d after the cancel: the worker computed for a canceled job", doneAtCancel, n)
			}
		})
	}
}

// TestInboxCap tests the worker inbox at its cap: inboxCap−1 and inboxCap
// task events keep every name with no overflow; one more drops the names and
// sets overflow, so the worker lists the directory instead.
func TestInboxCap(t *testing.T) {
	for _, n := range []int{inboxCap - 1, inboxCap, inboxCap + 1} {
		b := inbox{wake: make(chan struct{}, 1)}
		for i := 0; i < n; i++ {
			b.on(dirEvent{name: fmt.Sprintf("task-%d", i)})
		}
		tasks, overflow := b.take()
		if n <= inboxCap {
			if overflow || len(tasks) != n || tasks[n-1] != fmt.Sprintf("task-%d", n-1) {
				t.Errorf("%d events: %d names kept, overflow=%t; want all %d, no overflow", n, len(tasks), overflow, n)
			}
		} else if !overflow || len(tasks) != 0 {
			t.Errorf("%d events: %d names kept, overflow=%t; want none kept and overflow", n, len(tasks), overflow)
		}
		if len(b.wake) != 1 {
			t.Errorf("%d events: the worker was not woken", n)
		}
	}
}
