// Fleet sharding: how one explore job spreads across worker processes
// (docs/ARCHITECTURE.md §2a). The coordinator writes one task record per
// shard into the shared results directory; a worker claims the shard's
// lease (lease.go), judges it with paracrash.RunShard, journaling every
// verdict so that a reclaimed shard resumes, and writes a result record;
// the coordinator merges the results with MergeShards. Everything is files
// in one directory (layout.go), written through statefs.
//
// Both sides wait on one select over a directory watch (watch_linux.go),
// which names the record that landed, and a poll ticker: the liveness
// fallback for writers on other hosts, platforms without inotify, dropped
// events, and expired leases.
package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"

	"paracrash/internal/exps"
	"paracrash/internal/obs"
	core "paracrash/internal/paracrash"
	"paracrash/internal/statefs"
)

// FleetVersion is the schema version of shard tasks and results, reports included.
const FleetVersion = 3

// ShardTask is one unit of fleet work: a job shard awaiting a worker.
type ShardTask struct {
	Version int            `json:"version"`
	Job     string         `json:"job"`
	Shard   core.ShardSpec `json:"shard"`
	Request JobRequest     `json:"request"`
}

// ShardResult is a worker's completed shard: the shard report, or the error
// that killed it.
type ShardResult struct {
	Version int            `json:"version"`
	Job     string         `json:"job"`
	Shard   core.ShardSpec `json:"shard"`
	// Worker is the ID of the worker that produced the result.
	Worker string `json:"worker"`
	// Epoch is the lease epoch the worker held; >1 means the shard was
	// reclaimed at least once before completing.
	Epoch int `json:"epoch"`
	// Err is set when the shard failed for good (not a lease loss — those
	// leave no result so another worker retries).
	Err    string            `json:"err,omitempty"`
	Report *core.ShardReport `json:"report,omitempty"`
}

// id is the shardID the shard's records are named by.
func (t ShardTask) id() string { return shardID(t.Job, t.Shard.Index) }

// WriteShardTask persists one task record.
func WriteShardTask(dir string, t ShardTask) error {
	t.Version = FleetVersion
	return statefs.WriteJSON(siteShardTask, kindTask.path(dir, t.id()), t)
}

// ListShardTasks returns every task record in the directory, sorted by job
// then shard index (the worker scan order). Unparsable or version-skewed
// records are skipped — one corrupt task must not wedge the fleet.
func ListShardTasks(dir string) ([]ShardTask, error) {
	paths, err := kindTask.glob(dir)
	if err != nil {
		return nil, err
	}
	var out []ShardTask
	for _, p := range paths {
		if t, ok := readShardTask(p); ok {
			out = append(out, t)
		}
	}
	slices.SortFunc(out, func(a, b ShardTask) int {
		return cmp.Or(strings.Compare(a.Job, b.Job), cmp.Compare(a.Shard.Index, b.Shard.Index))
	})
	return out, nil
}

// readShardTask is the one reader of task records, the workers' and
// fsck's; ok=false when the record is missing, unparsable or
// version-skewed.
func readShardTask(path string) (ShardTask, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ShardTask{}, false
	}
	var t ShardTask
	if err := json.Unmarshal(data, &t); err != nil || t.Version != FleetVersion || t.Job == "" {
		return ShardTask{}, false
	}
	return t, true
}

// WriteShardResult persists one result record.
func WriteShardResult(dir string, r ShardResult) error {
	r.Version = FleetVersion
	return statefs.WriteJSON(siteShardResult, kindResult.path(dir, shardID(r.Job, r.Shard.Index)), r)
}

// ReadShardResult is the one reader of result records, the coordinator's
// and fsck's: it loads one shard's result, with ok=false when none exists
// yet.
func ReadShardResult(dir, job string, index int) (ShardResult, bool, error) {
	data, err := os.ReadFile(kindResult.path(dir, shardID(job, index)))
	if os.IsNotExist(err) {
		return ShardResult{}, false, nil
	} else if err != nil {
		return ShardResult{}, false, err
	}
	var r ShardResult
	if err := json.Unmarshal(data, &r); err != nil {
		return ShardResult{}, false, fmt.Errorf("serve: malformed shard result for %s/%d: %w", job, index, err)
	}
	if r.Version != FleetVersion {
		return ShardResult{}, false, fmt.Errorf("serve: shard result for %s/%d has version %d, want %d", job, index, r.Version, FleetVersion)
	}
	return r, true, nil
}

// RemoveShardFiles deletes every fleet record of one job — tasks, results,
// leases and shard checkpoints — once the job has ended, however it ended.
func RemoveShardFiles(dir, job string, count int) {
	for i := 0; i < count; i++ {
		for _, k := range []recordKind{kindTask, kindResult, kindShardJournal, kindLease} {
			os.Remove(k.path(dir, shardID(job, i)))
		}
	}
}

// FleetWorkerConfig configures one worker process.
type FleetWorkerConfig struct {
	// Dir is the shared results directory (the coordinator's store dir).
	Dir string
	// ID identifies this worker in leases and results. Default "worker-<pid>".
	ID string
	// LeaseTTL is how long a claimed shard stays ours without renewal;
	// a worker that dies is reclaimed after at most this long. Default 3s.
	LeaseTTL time.Duration
	// Heartbeat is the renewal cadence. Default LeaseTTL/3.
	Heartbeat time.Duration
	// Poll is the fallback cadence: how often an idle worker lists the
	// directory for tasks the watch did not announce (written from another
	// host, or while the watch was down) and for expired leases. Default 500ms.
	Poll time.Duration
	// Obs (nilable) receives the worker's metrics.
	Obs *obs.Run
}

func (c FleetWorkerConfig) withDefaults() FleetWorkerConfig {
	if c.ID == "" {
		c.ID = fmt.Sprintf("worker-%d", os.Getpid())
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 3 * time.Second
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = c.LeaseTTL / 3
	}
	if c.Poll <= 0 {
		c.Poll = 500 * time.Millisecond
	}
	return c
}

// FleetWorker claims and judges shards until its context is cancelled.
type FleetWorker struct {
	cfg    FleetWorkerConfig
	leases *LeaseDir
	inbox  inbox
	// watchDir starts the directory watch; tests substitute one that fails.
	watchDir func(dir string, on func(dirEvent)) (*dirWatcher, error)
	// runShard runs the engine for one shard; tests substitute a slow one.
	runShard func(ctx context.Context, sp exps.Spec, shard core.ShardSpec) (*core.ShardReport, error)
	// holdLeaseOnCancel simulates hard worker death for the chaos tests: a
	// cancelled worker exits without releasing its lease, so reclaim must
	// wait out the TTL exactly as after a kill -9.
	holdLeaseOnCancel bool
}

// NewFleetWorker builds a worker over the shared directory.
func NewFleetWorker(cfg FleetWorkerConfig) (*FleetWorker, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("serve: fleet worker needs a shared directory")
	}
	ld, err := NewLeaseDir(cfg.Dir) // creates the directory if need be
	if err != nil {
		return nil, err
	}
	return &FleetWorker{cfg: cfg, leases: ld, inbox: inbox{wake: make(chan struct{}, 1)}, watchDir: watchDir, runShard: runShard}, nil
}

// ID returns the worker's identity.
func (w *FleetWorker) ID() string { return w.cfg.ID }

// inboxCap bounds the task names an inbox holds for a busy worker; past it
// the names are dropped and the worker lists the directory instead.
const inboxCap = 1024

// inbox is what the directory watch has told a worker since it last
// looked. The watch's goroutine fills it, the worker loop empties it.
type inbox struct {
	// wake has room for one signal, so an event that lands between a look
	// at the directory and the wait on wake is kept, not lost.
	wake chan struct{}

	mu       sync.Mutex
	tasks    []string      // task files to try: just written, or their lease just removed
	overflow bool          // events were dropped: only a listing says what there is
	running  string        // task file of the shard being judged ("" when idle)
	removed  chan struct{} // signalled when running is deleted: its job is over
}

// on files one watch event. Everything but task arrivals, lease removals
// and the removal of the running shard's task is somebody else's record.
func (b *inbox) on(ev dirEvent) {
	b.mu.Lock()
	defer b.mu.Unlock()
	task := ""
	rec, ok := parseRecord(ev.name)
	switch {
	case ev.name == "":
		b.overflow = true
	case ev.removed && ev.name == b.running:
		signal(b.removed)
		return
	case !ev.removed && strings.HasPrefix(ev.name, records[kindTask].prefix):
		// Any task-prefixed name: readShardTask refuses one that is no task.
		task = ev.name
	case ok && ev.removed && rec.kind == kindLease:
		// A released lease frees its shard: a task and its lease share an ID.
		task = kindTask.name(rec.id)
	default:
		return
	}
	if len(b.tasks) >= inboxCap {
		b.tasks, b.overflow = nil, true
	}
	if !b.overflow {
		b.tasks = append(b.tasks, task)
	}
	signal(b.wake)
}

// take empties the inbox. With overflow set the names are incomplete and
// the caller must list the directory.
func (b *inbox) take() (tasks []string, overflow bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	tasks, overflow = b.tasks, b.overflow
	b.tasks, b.overflow = nil, false
	return tasks, overflow
}

// follow names the task file of the shard about to be judged ("" for none)
// and returns the channel signalled if the watch sees that file deleted.
func (b *inbox) follow(name string) <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.running, b.removed = name, make(chan struct{}, 1)
	return b.removed
}

// signal leaves one wake-up in a one-slot channel, or none if one is
// already waiting there.
func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// Run is the worker loop: pick up a task, claim it, judge it, repeat. It
// returns when ctx is cancelled. Shards run one at a time — fleet
// parallelism is across worker processes, and a shard explores serially.
//
// The loop wakes on the directory watch, which names the task to try, and
// on the poll ticker, which lists the directory: at start-up, every Poll,
// and when the watch dropped events.
func (w *FleetWorker) Run(ctx context.Context) error {
	watch, err := w.watchDir(w.cfg.Dir, w.inbox.on)
	if err != nil {
		w.cfg.Obs.Counter("fleet/watch-errors").Inc()
	}
	defer watch.Close()
	tick := time.NewTicker(w.cfg.Poll)
	defer tick.Stop()
	// Without a watch nothing announces what arrived during the work: keep
	// listing until a listing finds nothing to do.
	list := func() {
		for w.scan(ctx) && watch == nil {
		}
	}
	list() // tasks may predate the watch
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			list()
		case <-w.inbox.wake:
			names, overflow := w.inbox.take()
			if overflow {
				w.cfg.Obs.Counter("fleet/watch-errors").Inc()
				list()
				continue
			}
			w.cfg.Obs.Counter("fleet/wakeups").Inc()
			for _, name := range names {
				if t, ok := readShardTask(filepath.Join(w.cfg.Dir, name)); ok && ctx.Err() == nil {
					w.tryTask(ctx, t)
				}
			}
		}
	}
}

// scan lists the directory once and tries every task in it, reporting
// whether it judged any shard.
func (w *FleetWorker) scan(ctx context.Context) bool {
	w.cfg.Obs.Counter("fleet/dir-scans").Inc()
	tasks, err := ListShardTasks(w.cfg.Dir)
	if err != nil {
		w.cfg.Obs.Counter("fleet/scan-errors").Inc()
		return false
	}
	worked := false
	for _, t := range tasks {
		if ctx.Err() != nil {
			break
		}
		if w.tryTask(ctx, t) {
			worked = true
		}
	}
	return worked
}

// tryTask judges the shard if it is still to be done and nobody else holds
// it, reporting whether it did. The task may come from an old listing or a
// stale event: every check is against the directory as it is now.
func (w *FleetWorker) tryTask(ctx context.Context, t ShardTask) bool {
	if _, err := os.Stat(kindResult.path(w.cfg.Dir, t.id())); err == nil {
		return false // judged; the coordinator has yet to merge it
	}
	lease, err := w.leases.Claim(t.id(), w.cfg.ID, w.cfg.LeaseTTL)
	if err != nil {
		if !errors.Is(err, ErrLeaseHeld) {
			w.cfg.Obs.Counter("fleet/claim-errors").Inc()
		}
		return false
	}
	if lease.Epoch > 1 {
		w.cfg.Obs.Counter("fleet/reclaims").Inc()
	}
	w.cfg.Obs.Counter("fleet/claims").Inc()
	w.runTask(ctx, t, lease)
	return true
}

// runTask judges one claimed shard under a heartbeat, writes the result and
// releases the lease. A lost lease (another worker reclaimed us after a
// stall) abandons the shard silently — the new owner produces the result —
// and so does a removed task file: its job is over.
func (w *FleetWorker) runTask(ctx context.Context, t ShardTask, lease *Lease) {
	task := kindTask.path(w.cfg.Dir, t.id())
	removed := w.inbox.follow(filepath.Base(task))
	defer w.inbox.follow("")
	// The claim came first, so a job that ended before this look removes
	// its lease after our create; one that ends later is caught below.
	if _, err := os.Stat(task); os.IsNotExist(err) {
		w.abandon(t, lease)
		return
	}

	// The heartbeat renews until the shard finishes; losing the lease or
	// the task cancels the shard so we stop burning CPU on work nobody
	// will use. The watch reports a removed task at once; every beat looks
	// for itself, for when there is no watch. (The lease going with the
	// task is no substitute: a renewal that read it just before writes it
	// back.)
	hbCtx, hbCancel := context.WithCancel(ctx)
	defer hbCancel()
	lost := make(chan struct{})
	go func() {
		tick := time.NewTicker(w.cfg.Heartbeat)
		defer tick.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-removed:
				close(lost)
				return
			case <-tick.C:
				if _, err := os.Stat(task); os.IsNotExist(err) {
					close(lost)
					return
				}
				if err := w.leases.Renew(lease, w.cfg.LeaseTTL); err != nil {
					if errors.Is(err, ErrLeaseLost) {
						close(lost)
						return
					}
					w.cfg.Obs.Counter("fleet/renew-errors").Inc()
				}
			}
		}
	}()
	shardCtx, shardCancel := context.WithCancel(ctx)
	defer shardCancel()
	go func() {
		select {
		case <-lost:
			shardCancel()
		case <-hbCtx.Done():
		}
	}()

	report, err := w.executeShard(shardCtx, t)
	hbCancel()

	if _, serr := os.Stat(task); os.IsNotExist(serr) {
		w.abandon(t, lease)
		return
	}
	select {
	case <-lost:
		// Presumed dead and reclaimed: the new owner resumed our journal;
		// writing a result now would be a stale epoch's word against theirs
		// (identical verdicts, but the new owner may still be judging).
		w.cfg.Obs.Counter("fleet/leases-lost").Inc()
		return
	default:
	}
	if ctx.Err() != nil {
		// Worker shutdown mid-shard: leave no result. With holdLeaseOnCancel
		// the lease times out like a crash; otherwise release it so another
		// worker picks the shard up immediately.
		if !w.holdLeaseOnCancel {
			_ = w.leases.Release(lease)
		}
		return
	}
	res := ShardResult{Job: t.Job, Shard: t.Shard, Worker: w.cfg.ID, Epoch: lease.Epoch}
	if err != nil {
		res.Err = err.Error()
		w.cfg.Obs.Counter("fleet/shard-failures").Inc()
	} else {
		res.Report = report
		w.cfg.Obs.Counter("fleet/shards-done").Inc()
	}
	if werr := WriteShardResult(w.cfg.Dir, res); werr != nil {
		w.cfg.Obs.Counter("fleet/result-write-errors").Inc()
		return
	}
	_ = w.leases.Release(lease)
}

// abandon drops a shard whose task file is gone: the job timed out, failed
// or was merged from another result, and the coordinator is removing its
// records. Nobody will read a result or resume the journal, so the worker
// leaves neither, nor its lease.
func (w *FleetWorker) abandon(t ShardTask, lease *Lease) {
	os.Remove(kindShardJournal.path(w.cfg.Dir, t.id()))
	_ = w.leases.Release(lease) // gone already, or ours to remove
	w.cfg.Obs.Counter("fleet/leases-lost").Inc()
}

// runShard is FleetWorker.runShard outside tests.
func runShard(ctx context.Context, sp exps.Spec, shard core.ShardSpec) (*core.ShardReport, error) {
	return sp.RunShard(ctx, shard)
}

// executeShard runs the engine for one shard with panic isolation, resuming
// the shard's checkpoint journal (ours, or a dead predecessor's).
func (w *FleetWorker) executeShard(ctx context.Context, t ShardTask) (report *core.ShardReport, err error) {
	defer func() {
		if r := recover(); r != nil {
			report = nil
			err = fmt.Errorf("serve: shard panicked: %v\n%s", r, debug.Stack())
		}
	}()
	sp, err := t.Request.Spec()
	if err != nil {
		return nil, err
	}
	sp.Options.Obs = w.cfg.Obs
	ckpt := core.OpenCheckpoint(kindShardJournal.path(w.cfg.Dir, t.id()))
	ckpt.Every = 1 // a reclaim must find the frontier, not a stale batch
	sp.Options.Checkpoint = ckpt
	rep, err := w.runShard(ctx, sp, t.Shard)
	if err != nil {
		return nil, err
	}
	if n := ckpt.Resumed(); n > 0 {
		w.cfg.Obs.Counter("fleet/resumed-verdicts").Add(int64(n))
	}
	return rep, nil
}

// FleetConfig arms the scheduler's coordinator role: explore jobs are
// partitioned into shards executed by external workers.
type FleetConfig struct {
	// Shards is the default partition width for explore jobs (a job may ask
	// for its own via JobRequest.Shards). Values < 2 mean the job runs
	// standalone in-process.
	Shards int
	// MaxShards caps any job's requested partition width (default 16).
	MaxShards int
	// Poll is the fallback cadence: how often a waiting job looks for
	// results the watch did not announce (written from another host, or
	// while the watch was down). Results written on this host are picked
	// up as they land. Default 250ms.
	Poll time.Duration
}

func (c FleetConfig) withDefaults() FleetConfig {
	if c.MaxShards <= 0 {
		c.MaxShards = 16
	}
	if c.Poll <= 0 {
		c.Poll = 250 * time.Millisecond
	}
	return c
}

// effectiveShards resolves one job's partition width.
func (c FleetConfig) effectiveShards(req JobRequest) int {
	n := c.Shards
	if req.Shards > 0 {
		n = req.Shards
	}
	if n > c.MaxShards {
		n = c.MaxShards
	}
	return n
}

// watchResults starts the coordinator's directory watch, one for the
// scheduler however many jobs are in flight. A watch that cannot start is
// counted and left nil: every job then waits on its poll ticker alone.
func (s *Scheduler) watchResults() {
	w, err := s.watchDir(s.store.Dir(), func(ev dirEvent) {
		s.watchMu.Lock()
		defer s.watchMu.Unlock()
		rec, ok := parseRecord(ev.name)
		switch {
		case ev.name == "":
			// Events were dropped: any job may have missed its result.
			s.obs.Counter("fleet/watch-errors").Inc()
			for _, wake := range s.waiting {
				signal(wake)
			}
		case ok && !ev.removed && rec.kind == kindResult:
			signal(s.waiting[rec.job]) // a nil channel, no job waiting, takes none
		}
	})
	if err != nil {
		s.obs.Counter("fleet/watch-errors").Inc()
	}
	s.watch = w
}

// awaitResults registers a job for result wake-ups and returns its
// one-slot wake channel plus the call that unregisters it. Register before
// the first look at the directory: a result landing between a look and the
// wait then leaves its signal in the channel instead of being lost.
func (s *Scheduler) awaitResults(job string) (<-chan struct{}, func()) {
	key := sanitizeID(job)
	wake := make(chan struct{}, 1)
	s.watchMu.Lock()
	s.waiting[key] = wake
	s.watchMu.Unlock()
	return wake, func() {
		s.watchMu.Lock()
		delete(s.waiting, key)
		s.watchMu.Unlock()
	}
}

// executeFleet is the coordinator's explore path: write one task per shard,
// wait for worker results, merge. Width<2 partitions never reach here
// (execute falls back to the in-process engine).
func (s *Scheduler) executeFleet(ctx context.Context, job *Job, run *obs.Run, count int) (*core.Report, error) {
	sp, err := s.spec(job, run)
	if err != nil {
		return nil, err
	}
	dir := s.store.Dir()
	run.Gauge("fleet/shards").Set(int64(count))
	wake, unregister := s.awaitResults(job.ID)
	defer unregister()
	// Every way out of here ends the job for good — done, failed, or
	// canceled by its timeout or a drain deadline, none of which is ever
	// resubmitted — so its fleet records go on every path. A worker still
	// judging one of its shards sees the task file go and abandons it.
	defer RemoveShardFiles(dir, job.ID, count)
	for i := 0; i < count; i++ {
		// Tasks are idempotent per job ID: a coordinator resuming an
		// interrupted job rewrites identical tasks, and shards that already
		// have results are simply not re-claimed by workers.
		if err := WriteShardTask(dir, ShardTask{Job: job.ID, Shard: core.ShardSpec{Index: i, Count: count}, Request: job.Request}); err != nil {
			return nil, fmt.Errorf("serve: writing shard task %d/%d: %w", i, count, err)
		}
	}
	s.obs.Counter("fleet/shards-dispatched").Add(int64(count))

	// Wait for results. Workers own all the retry machinery (lease reclaim,
	// checkpoint resume); the coordinator only waits — bounded by the job's
	// timeout like any other job — woken by the watch when one of its
	// results lands and by the ticker in case the watch never says so.
	reports := make([]*core.ShardReport, count)
	have := make([]bool, count)
	pending := count
	tick := time.NewTicker(s.fleet.Poll)
	defer tick.Stop()
	for pending > 0 {
		for i := 0; i < count; i++ {
			if have[i] {
				continue
			}
			// A result not there yet costs one failed open; only one that
			// has landed is read and parsed.
			res, ok, err := ReadShardResult(dir, job.ID, i)
			if err != nil {
				run.Counter("fleet/result-read-errors").Inc()
			}
			if !ok {
				continue
			}
			if res.Err != "" {
				return nil, fmt.Errorf("serve: shard %d/%d failed on worker %s: %s", i, count, res.Worker, res.Err)
			}
			reports[i] = res.Report
			have[i] = true
			pending--
			run.Counter("fleet/shards-merged").Inc()
			run.Gauge("fleet/shards-pending").Set(int64(pending))
		}
		if pending == 0 {
			break
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-tick.C:
		case <-wake:
			s.obs.Counter("fleet/wakeups").Inc()
		}
	}

	rep, err := sp.Merge(ctx, reports)
	if err != nil {
		return nil, err
	}
	if sp.Options.Checkpoint != nil {
		os.Remove(sp.Options.Checkpoint.Path())
	}
	return rep, nil
}
