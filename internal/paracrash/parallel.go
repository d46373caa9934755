// Parallel crash-state exploration: the generated crash-state list is
// sharded across N workers, each owning a detached clone of the cluster
// (pfs.Cloner) with its own clients, reconstruction scratch state and
// replay/check caches. Workers only *judge* states — every verdict is
// published to a result board keyed by crash-state index. The calling
// goroutine then replays the exact serial exploration (same visiting
// order, same pruning decisions, same classifier probes) but satisfies
// its checks from the board, charging the stats a serial reconstruction
// would have charged. The report is therefore byte-identical to a
// Workers=1 run except for Stats.Duration.
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
	"paracrash/internal/tsp"
)

// resultBoard collects worker verdicts by crash-state index. await blocks
// until the state's worker has published (a verdict or a speculative skip);
// workers themselves never block, so await always terminates. Cancelling
// the board releases every waiter: await then reports "no verdict" for
// unpublished states, and the merge goroutine — which polls the run's
// context between states — exits before asking for another.
type resultBoard struct {
	mu       sync.Mutex
	cond     *sync.Cond
	res      []checkResult
	done     []bool // published at all
	have     []bool // published with a verdict (false = speculatively skipped)
	canceled bool
}

func newResultBoard(n int) *resultBoard {
	b := &resultBoard{res: make([]checkResult, n), done: make([]bool, n), have: make([]bool, n)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// publish records the verdict for state i.
func (b *resultBoard) publish(i int, r checkResult) {
	b.mu.Lock()
	b.res[i], b.done[i], b.have[i] = r, true, true
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

// await blocks until state i is published and returns its verdict; ok is
// false when the worker skipped the state (or the board was cancelled
// before the worker reached it).
func (b *resultBoard) await(i int) (checkResult, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for !b.done[i] && !b.canceled {
		b.cond.Wait()
	}
	if !b.done[i] {
		return checkResult{}, false
	}
	return b.res[i], b.have[i]
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
// shard sample the whole front sequence (neighbouring states of one front
// share Front bitsets and differ in few servers, keeping shard-local TSP
// tours short).
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

// visitOrder returns ids — indices into states — in the mode's visiting
// order: as given (generation order) for brute force and pruning, along the
// greedy TSP tour over servers-changed distance for the optimized mode. The
// distance basis is the reconstructor's per-server signature, so the tour
// minimises exactly the restores the walk will be charged.
func (s *session) visitOrder(states []CrashState, ids []int) []int {
	if s.opts.Mode != ModeOptimized {
		return ids
	}
	sigs := make([][]string, len(ids))
	for k, id := range ids {
		ks := s.recon.keptOf(states[id])
		sigs[k] = make([]string, len(ks))
		for pi := range ks {
			sigs[k][pi] = ks[pi].sig()
		}
	}
	tour := tsp.GreedyOrder(len(ids), func(i, j int) int {
		d := 0
		for pi := range sigs[i] {
			if sigs[i][pi] != sigs[j][pi] {
				d++
			}
		}
		return d
	})
	order := make([]int, len(ids))
	for k, t := range tour {
		order[k] = ids[t]
	}
	return order
}

// shardSession builds a worker's private session around a detached clone:
// shared read-only analysis state, private clients and caches. The
// worker's effort lands on worker/-prefixed counters so the primary
// session's counters keep reconciling 1:1 with Stats.
func (s *session) shardSession(fs pfs.FileSystem) *session {
	ws := &session{
		fs: fs, lib: s.lib, opts: s.opts, ctx: s.ctx,
		g: s.g, emu: s.emu, pfsOps: s.pfsOps, libOps: s.libOps,
		initial:        s.initial,
		clients:        map[string]pfs.Client{},
		pfsReplayCache: map[string]string{},
		legalPFSCache:  map[string]map[string]bool{},
		libReplayCache: map[string]string{},
		legalLibCache:  map[string]map[string]bool{},
		checkCache:     map[string]checkResult{},
		classes:        map[string]checkResult{},
		dedupKeys:      map[string]bool{},
		imageDigests:   map[string]string{},
		frontPFSStatus: map[string]string{},
		frontLibStatus: map[string]string{},
		memoScope:      s.memoScope,
		goldenPFS:      s.goldenPFS,
		goldenLib:      s.goldenLib,
		// The resumed map is shared read-only: workers skip journaled states
		// just like the merge does. The checkpoint itself stays with the
		// primary session (only the merge journals fresh verdicts).
		resumed: s.resumed,
	}
	ws.bindObs(s.obs, "worker/")
	// The clone gets its own reconstructor (private physical tracking and
	// prefix-root caches over the clone's stores, worker/-prefixed arithmetic
	// charges) seeded from the same shared initial snapshot — which prepare
	// already proved holds a store for every server.
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
	s.outcomeFor = func(key string) (checkResult, bool) {
		id, ok := byKey[key]
		if !ok {
			return checkResult{}, false
		}
		return board.await(id)
	}
	stopMerge := s.obs.Phase(obs.PhaseMerge)
	// The merge is the serial ordered walk verbatim: check resolves verdicts
	// through outcomeFor (the board) and the primary's reconstructor charges
	// the arithmetic walk, so no merge-specific accounting pass is needed.
	s.visitOrdered(states, skip, handle)
	stopMerge()
	s.outcomeFor = nil
	wg.Wait()
}

// exploreShard is the one worker loop — in-process shard workers and fleet
// RunShard alike: it judges the worker's states in visitOrder (a shard-local
// TSP tour in optimized mode, index order otherwise), publishing every
// verdict to the board. All per-state logic lives in ws.check — the worker's
// private reconstructor tracks the clone's physical state, caches prefix
// roots and charges the worker/-prefixed counters arithmetically.
func (ws *session) exploreShard(states []CrashState, ids []int, bugs *BugSet, board *resultBoard, pending *obs.Gauge) {
	// Prime the cluster with the full initial snapshot (an O(1) adoption per
	// server): the reconstructor only ever touches servers with universe ops,
	// so on a fresh clone servers the traced run never wrote would otherwise
	// keep their empty mkfs state instead of the initial content every crash
	// state shares.
	ws.fs.Restore(ws.initial)
	for _, id := range ws.visitOrder(states, ids) {
		if ws.ctx.Err() != nil {
			return
		}
		cs := states[id]
		if ws.opts.Mode != ModeBrute && bugs.KnownBad(cs) {
			board.skip(id)
			ws.ctrPruned.Inc()
			pending.Add(-1)
			continue
		}
		board.publish(id, ws.check(cs))
		if ws.dedupKeys[stateKey(cs)] {
			ws.ctrDeduped.Inc()
		} else {
			ws.ctrChecked.Inc()
		}
		pending.Add(-1)
	}
}
