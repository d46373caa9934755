// Parallel crash-state exploration: the generated crash-state list is
// sharded across N workers, each owning a detached clone of the cluster
// (pfs.Cloner) with its own clients, reconstruction scratch state and
// check caches; the legal-state cache is shared by the workers and the
// merge, so each legal set is enumerated once per run. Workers only *judge*
// states — every verdict, with the class key the worker digested the state
// into, is published to a result board keyed by crash-state index. The
// calling goroutine then replays the exact serial exploration (same
// visiting order, same pruning decisions, same classifier probes) but
// satisfies its checks and class lookups from the board, so the report's
// verdicts and state counts are byte-identical to a Workers=1 run without
// the merge reconstructing the states again. Each worker counts its own
// restores and op applies; foldEffort adds them to the primary's Stats
// once the workers are done, so the effort fields measure the parallel
// run's work, not a serial walk's.
//
// Pruning is speculative on the workers: they consult the shared BugSet
// (mutated only by the merge goroutine, read-locked by workers) and skip
// states that already match a known-bad pair. A worker's pair view at
// skip time is always a subset of the merge's view when the merge reaches
// that state, so a skipped state is one the merge would prune too — and
// if a classifier probe nevertheless needs a skipped state's verdict, the
// merge computes it locally, exactly as the serial engine would.
//
// Everything the workers share — the causality graph, the persist order,
// the emulator universe, the layer-op tables, the initial snapshot, the
// golden states and the Library — is immutable during exploration (see
// the concurrency notes in internal/causality and internal/pfs).
package paracrash

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"paracrash/internal/obs"
	"paracrash/internal/pfs"
)

// resultBoard collects worker verdicts, and the class keys the workers
// digested the states into, by crash-state index. await blocks until the
// state's worker has published (a verdict or a speculative skip); workers
// never wait on the board (only, briefly, on the shared legal-state cache,
// whose holder never waits on the board), so await always terminates.
// Cancelling the board releases every waiter: await then reports "no
// verdict" for unpublished states, and the merge goroutine — which polls
// the run's context between states — exits before asking for another.
type resultBoard struct {
	mu       sync.Mutex
	cond     *sync.Cond
	res      []checkResult
	class    []string
	done     []bool // published at all
	have     []bool // published with a verdict (false = speculatively skipped)
	canceled bool
}

func newResultBoard(n int) *resultBoard {
	b := &resultBoard{res: make([]checkResult, n), class: make([]string, n), done: make([]bool, n), have: make([]bool, n)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// publish records the verdict and class key for state i.
func (b *resultBoard) publish(i int, r checkResult, class string) {
	b.mu.Lock()
	b.res[i], b.class[i], b.done[i], b.have[i] = r, class, true, true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// skip records that state i's worker pruned it speculatively.
func (b *resultBoard) skip(i int) {
	b.mu.Lock()
	b.done[i] = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// await blocks until state i is published and returns its verdict and
// class key; ok is false when the worker skipped the state (or the board
// was cancelled before the worker reached it).
func (b *resultBoard) await(i int) (r checkResult, class string, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for !b.done[i] && !b.canceled {
		b.cond.Wait()
	}
	if !b.done[i] {
		return checkResult{}, "", false
	}
	return b.res[i], b.class[i], b.have[i]
}

// cancel releases every awaiting goroutine; workers observing the run's
// context stop publishing shortly after.
func (b *resultBoard) cancel() {
	b.mu.Lock()
	b.canceled = true
	b.mu.Unlock()
	b.cond.Broadcast()
}

// shardStates deals n state indices onto at most w shards — the ShardSpec
// partition a fleet run uses, in-process. Round-robin dealing lets each
// shard sample the whole front sequence.
func shardStates(n, w int) [][]int {
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	shards := make([][]int, w)
	for i := range shards {
		shards[i] = ShardSpec{Index: i, Count: w}.indices(n)
	}
	return shards
}

// stateKey is the cache/dedup key of a crash state.
func stateKey(cs CrashState) string {
	return cs.Front.Key() + "|" + cs.Keep.Key()
}

// serverProcs returns ServerOps plus the sorted proc names — the
// deterministic per-server iteration order of the reconstructor.
func (e *Emulator) serverProcs() ([]string, map[string][]int) {
	serverOps := e.ServerOps()
	procs := make([]string, 0, len(serverOps))
	for p := range serverOps {
		procs = append(procs, p)
	}
	sort.Strings(procs)
	return procs, serverOps
}

// shardSession builds a worker's private session around a detached clone:
// shared read-only analysis state and legal-state cache, private clients
// and check caches. The worker's effort lands on worker/-prefixed counters;
// runParallel folds its Stats into the primary's, which keeps the primary's
// counters reconciling 1:1 with the primary's Stats.
func (s *session) shardSession(fs pfs.FileSystem) *session {
	ws := &session{
		fs: fs, lib: s.lib, opts: s.opts, ctx: s.ctx,
		g: s.g, emu: s.emu, pfsOps: s.pfsOps, libOps: s.libOps,
		initial:    s.initial,
		clients:    map[string]pfs.Client{},
		legal:      s.legal,
		checkCache: map[string]checkResult{},
		classes:    map[string]checkResult{},
		fronts:     map[string]*frontStatus{},
		memoScope:  s.memoScope,
		goldenPFS:  s.goldenPFS,
		goldenLib:  s.goldenLib,
		// The resumed map is shared read-only: workers skip journaled states
		// just like the merge does. The checkpoint itself stays with the
		// primary session (only the merge journals fresh verdicts).
		resumed: s.resumed,
	}
	ws.bindObs(s.obs, "worker/")
	// The clone gets its own reconstructor (private prefix-root caches over
	// the clone's stores) seeded from the same shared initial snapshot —
	// which prepare already proved holds a store for every server.
	ws.recon, _ = newReconstructor(ws)
	return ws
}

// runParallel shards the states across workers and merges their verdicts
// deterministically. skip/handle are the serial per-state closures; bugs is
// shared with the workers for speculative pruning.
func (s *session) runParallel(states []CrashState, cloner pfs.Cloner, workers int, skip func(CrashState) bool, handle func(CrashState), bugs *BugSet) {
	board := newResultBoard(len(states))
	// Cancellation releases the merge goroutine from board.await; the
	// workers notice the context themselves between states.
	stopCancel := context.AfterFunc(s.ctx, board.cancel)
	defer stopCancel()
	shards := shardStates(len(states), workers)
	s.obs.Gauge("workers").Set(int64(len(shards)))

	var wg sync.WaitGroup
	workerSessions := make([]*session, 0, len(shards))
	for wi, ids := range shards {
		// Clones are built sequentially here (backend constructors are not
		// concurrency-safe against each other's recorder plumbing).
		clone := cloner.CloneDetached()
		if oa, ok := clone.(pfs.ObsAware); ok {
			oa.SetObs(s.obs)
		}
		if fa, ok := clone.(pfs.FaultAware); ok {
			// Clones share the primary's fault plan: injection decisions are
			// schedule-independent (hash-based), so worker count does not
			// change which points fault.
			fa.SetFaults(s.opts.Faults)
		}
		ws := s.shardSession(clone)
		ws.fs.Recorder().SetEnabled(false)
		workerSessions = append(workerSessions, ws)
		// Per-worker shard depth, decremented as the worker publishes; the
		// progress stream shows stragglers directly.
		pending := s.obs.Gauge(fmt.Sprintf("worker/%02d/pending", wi))
		pending.Set(int64(len(ids)))
		wg.Add(1)
		go func(ws *session, ids []int, pending *obs.Gauge) {
			defer wg.Done()
			// Last-resort quarantine: per-attempt recovery inside check
			// should contain every backend panic, but if one escapes, the
			// worker releases its remaining states as "no verdict" (the
			// merge computes them locally) instead of deadlocking the merge
			// on a board entry nobody will publish.
			defer func() {
				if p := recover(); p != nil {
					s.obs.Counter("worker/panics").Inc()
					for _, id := range ids {
						board.skip(id)
					}
				}
			}()
			ws.exploreShard(states, ids, bugs, board, pending)
		}(ws, ids, pending)
	}

	// Merge on this goroutine, in the exact serial visiting order. Checks
	// for generated states (and for classifier probes that coincide with
	// generated states) resolve through the board.
	byKey := make(map[string]int, len(states))
	for i, cs := range states {
		byKey[stateKey(cs)] = i
	}
	s.outcomeFor = func(key string) (checkResult, string, bool) {
		id, ok := byKey[key]
		if !ok {
			return checkResult{}, "", false
		}
		return board.await(id)
	}
	stopMerge := s.obs.Phase(obs.PhaseMerge)
	// The merge is the serial ordered walk verbatim: check resolves verdicts
	// through outcomeFor (the board), so no merge-specific accounting pass
	// is needed beyond folding in the workers' effort.
	s.visitOrdered(states, skip, handle)
	stopMerge()
	s.outcomeFor = nil
	wg.Wait()
	for _, ws := range workerSessions {
		s.foldEffort(ws.stats)
	}
}

// exploreShard is the one worker loop — in-process shard workers and fleet
// RunShard alike: it judges the worker's states in generation order,
// publishing every verdict to the board. All per-state logic lives in
// ws.check — the worker's private reconstructor caches prefix roots and
// counts the work in the worker's own Stats.
func (ws *session) exploreShard(states []CrashState, ids []int, bugs *BugSet, board *resultBoard, pending *obs.Gauge) {
	for _, id := range ids {
		if ws.ctx.Err() != nil {
			return
		}
		cs := states[id]
		if ws.opts.Mode != ModeBrute && bugs.KnownBad(cs) {
			board.skip(id)
			ws.stats.StatesPruned++
			ws.ctrPruned.Inc()
			pending.Add(-1)
			continue
		}
		r, class := ws.check(cs)
		board.publish(id, r, class)
		ws.countVisit(r)
		pending.Add(-1)
	}
}
