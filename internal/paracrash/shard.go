// Shard-scoped exploration: the cross-process half of the fleet design.
// A coordinator partitions one run's crash-state space into Count shards by
// dealing the deterministic generation order round-robin (ShardSpec.indices,
// which also deals the in-process shards), hands each shard to a worker
// process, and merges the shard reports back into a report whose verdicts
// are byte-identical to the serial run's.
//
// RunShard is the worker side: it rebuilds the full analysis state (trace,
// causality graph, emulator universe, golden states — prepare is pure per
// configuration, so every process derives the identical generation order),
// judges only the states whose generation index falls in its shard, and
// returns their verdicts, each with the class key it was digested into, in
// a serializable ShardReport. Workers never prune
// speculatively — a worker process has no view of the merge's BugSet, so it
// judges every state it owns; the merge prunes, exactly as the in-process
// parallel engine's merge pass does for speculatively skipped states.
//
// MergeShards is the coordinator side: it validates that the shard reports
// cover the partition and were produced under the same verdict-relevant
// configuration and trace, then replays the full serial pipeline resolving
// checks and class lookups through the collected verdicts (the outcomeFor
// seam the in-process merge already uses), so no shipped state is digested
// twice, and computing locally only what no shard judged (classifier
// probes outside the generated set). The resulting report has RunContext's
// verdicts, state keys, state counts and bug set — which is what lets a
// fleet run stand in for a standalone one — and Stats whose effort is the
// merge's own plus every shard's.
package paracrash

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"paracrash/internal/obs"
	"paracrash/internal/pfs"
)

// ShardSpec selects one shard of a partitioned crash-state space: the
// states whose generation index i satisfies i % Count == Index.
type ShardSpec struct {
	// Index is this shard's position, 0 <= Index < Count.
	Index int `json:"index"`
	// Count is the total number of shards in the partition.
	Count int `json:"count"`
}

// String renders the spec as "index/count".
func (sp ShardSpec) String() string { return fmt.Sprintf("%d/%d", sp.Index, sp.Count) }

// Validate reports whether the spec denotes a real shard.
func (sp ShardSpec) Validate() error {
	if sp.Count < 1 {
		return fmt.Errorf("paracrash: shard count %d < 1", sp.Count)
	}
	if sp.Index < 0 || sp.Index >= sp.Count {
		return fmt.Errorf("paracrash: shard index %d outside [0,%d)", sp.Index, sp.Count)
	}
	return nil
}

// suffix is the shard's checkpoint-fingerprint extension: a shard journal
// resumes only into the same shard of the same partition.
func (sp ShardSpec) suffix() string { return fmt.Sprintf("|shard=%d/%d", sp.Index, sp.Count) }

// indices returns the generation indices this shard owns out of n states:
// the round-robin dealing, the one partition function of in-process and
// fleet sharding alike.
func (sp ShardSpec) indices(n int) []int {
	var ids []int
	for i := sp.Index; i < n; i += sp.Count {
		ids = append(ids, i)
	}
	return ids
}

// Verdict is a judged crash state in wire form: a checkpoint journal line
// and an entry of ShardReport.Verdicts alike.
type Verdict struct {
	// Key is the crash state's front|keep identity (the check-cache key) in
	// hex, since JSON would mangle the binary key's invalid UTF-8. Only
	// newVerdict encodes it and only stateKey decodes it.
	Key string `json:"key"`
	// Class is the class key the state was digested into ("" when it was
	// not), so a reader takes it instead of digesting the state again.
	Class       string `json:"class,omitempty"`
	Consistent  bool   `json:"consistent,omitempty"`
	Layer       string `json:"layer,omitempty"`
	Consequence string `json:"consequence,omitempty"`
	State       string `json:"state,omitempty"`
	// Skipped marks a quarantined state (every attempt faulted); Consequence
	// then holds the quarantine reason. Skipped verdicts ride along so the
	// merge reports the state under Report.Skipped instead of re-attempting
	// a reconstruction the worker already proved poisoned.
	Skipped bool `json:"skipped,omitempty"`
}

// newVerdict converts an engine verdict to wire form.
func newVerdict(key, class string, r checkResult) Verdict {
	return Verdict{
		Key:         hex.EncodeToString([]byte(key)),
		Class:       class,
		Consistent:  r.consistent,
		Layer:       r.layer,
		Consequence: r.consequence,
		State:       r.state,
		Skipped:     r.skipped,
	}
}

// stateKey decodes the binary state key; an empty or non-hex key is an
// error.
func (v Verdict) stateKey() (string, error) {
	key, err := hex.DecodeString(v.Key)
	if err == nil && len(key) == 0 {
		err = errors.New("empty verdict key")
	}
	return string(key), err
}

// result converts a wire verdict back to the engine's form.
func (v Verdict) result() checkResult {
	return checkResult{
		consistent:  v.Consistent,
		layer:       v.Layer,
		consequence: v.Consequence,
		state:       v.State,
		skipped:     v.Skipped,
	}
}

// ShardReport is RunShard's output: every verdict of one shard, plus the
// provenance MergeShards validates before trusting it.
type ShardReport struct {
	// Shard identifies the partition slice these verdicts cover.
	Shard ShardSpec `json:"shard"`
	// Config is the verdict-relevant configuration fingerprint of the run
	// that produced the verdicts (the checkpoint fingerprint). MergeShards
	// refuses reports whose fingerprint differs from its own trace's.
	Config string `json:"config"`
	// StatesGenerated is the size of the full generated crash-state space
	// the shard was dealt from; every shard of a partition must agree.
	StatesGenerated int `json:"states_generated"`
	// Stats is the shard's own measured run: StatesChecked counts the states
	// it judged (class members attribute without a verdict of their own),
	// and the effort fields are what MergeShards folds into the merged
	// report. The merge recounts the state counts itself.
	Stats Stats `json:"stats"`
	// Verdicts holds one entry per owned state, in generation order.
	Verdicts []Verdict `json:"verdicts"`
}

// RunShard executes the pipeline for exactly one shard of the crash-state
// space and returns the shard's verdicts. The preparation phases (preamble,
// traced run, causality analysis, golden replay) run in full — they are
// what make the generation order, and with it the shard partition, stable
// across processes. Options.Workers is ignored: a shard explores serially
// (fleet parallelism is between processes, not within a shard).
//
// With Options.Checkpoint set, the shard journals verdicts under a
// shard-scoped fingerprint and resumes from a compatible journal, so a
// worker that reclaims a dead worker's shard continues from the dead
// worker's frontier instead of starting over.
func RunShard(ctx context.Context, fs pfs.FileSystem, lib Library, w Workload, opts Options, shard ShardSpec) (*ShardReport, error) {
	if err := shard.Validate(); err != nil {
		return nil, err
	}
	s, err := prepare(ctx, fs, lib, w, opts)
	if err != nil {
		return nil, err
	}
	config := checkpointConfig(s.identity(), opts)
	if opts.Checkpoint != nil {
		if err := s.resumeCheckpoint(config + shard.suffix()); err != nil {
			return nil, err
		}
		defer s.flushCheckpoint()
	}

	// Generate the full state space — the dealing is positional, so a shard
	// must see the same list every process sees — then keep our slice.
	states := s.generate()
	ids := shard.indices(len(states))
	opts.Obs.Gauge("shard/states").Set(int64(len(ids)))

	// Judge the shard with the in-process worker loop: an empty BugSet (no
	// speculative pruning cross-process) and a board to collect verdicts.
	// The loop publishes a verdict for every owned id unless cancelled.
	board := newResultBoard(len(states))
	stopExplore := opts.Obs.Phase(obs.PhaseExplore)
	s.exploreShard(states, ids, NewBugSet(), board, opts.Obs.Gauge("shard/pending"))
	stopExplore()

	// Leave the cluster at the untouched post-run state, like RunContext.
	fs.Restore(s.initial)
	if err := s.ctx.Err(); err != nil {
		return nil, fmt.Errorf("paracrash: shard cancelled: %w", err)
	}

	s.stats.StateClasses = len(s.classes)
	s.stats.Duration = time.Since(s.start)
	rep := &ShardReport{Shard: shard, Config: config, StatesGenerated: s.stats.StatesGenerated, Stats: s.stats}
	for _, id := range ids {
		res, class, ok := board.await(id) // published: the loop covered every id
		if !ok {
			return nil, fmt.Errorf("paracrash: shard %s: no verdict for state %d", shard, id)
		}
		rep.Verdicts = append(rep.Verdicts, newVerdict(stateKey(states[id]), class, res))
	}
	return rep, nil
}

// MergeShards merges shard reports into the full report by replaying the
// serial pipeline with checks resolved through the collected verdicts. The
// result is byte-identical (ReportFingerprint) to RunContext with the same
// arguments: visiting order, pruning and representative attribution all
// replay exactly; only verdicts the shards never produced (classifier
// probes outside the generated space) are computed locally. The shards'
// measured effort is folded into the merged Stats.
//
// The reports must form a complete partition — one report per shard index
// of a single Count, all fingerprinting to this run's configuration and
// trace (so the merge prepares before it validates), agreeing on the
// generated-space size — otherwise MergeShards refuses rather than deliver
// a silently partial report.
func MergeShards(ctx context.Context, fs pfs.FileSystem, lib Library, w Workload, opts Options, shards []*ShardReport) (*Report, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("paracrash: merge: no shard reports")
	}
	s, err := prepare(ctx, fs, lib, w, opts)
	if err != nil {
		return nil, err
	}
	config := checkpointConfig(s.identity(), opts)
	count := shards[0].Shard.Count
	generated := shards[0].StatesGenerated
	seen := make(map[int]bool, len(shards))
	verdicts := make(map[string]Verdict)
	effort := make([]Stats, 0, len(shards))
	for _, sr := range shards {
		if err := sr.Shard.Validate(); err != nil {
			return nil, fmt.Errorf("paracrash: merge: %w", err)
		}
		if sr.Shard.Count != count {
			return nil, fmt.Errorf("paracrash: merge: shard %s is from a %d-way partition, expected %d-way", sr.Shard, sr.Shard.Count, count)
		}
		if sr.Config != config {
			return nil, fmt.Errorf("paracrash: merge: shard %s was judged under a different configuration", sr.Shard)
		}
		if sr.StatesGenerated != generated {
			return nil, fmt.Errorf("paracrash: merge: shard %s saw %d generated states, shard %s saw %d", sr.Shard, sr.StatesGenerated, shards[0].Shard, generated)
		}
		if seen[sr.Shard.Index] {
			return nil, fmt.Errorf("paracrash: merge: duplicate report for shard %s", sr.Shard)
		}
		seen[sr.Shard.Index] = true
		effort = append(effort, sr.Stats)
		for _, v := range sr.Verdicts {
			// Verdicts are deterministic per configuration, so a key judged
			// by two shards (it cannot happen in a clean partition, but a
			// reclaimed shard re-run is harmless) resolves identically.
			key, err := v.stateKey()
			if err != nil {
				return nil, fmt.Errorf("paracrash: merge: shard %s: %w", sr.Shard, err)
			}
			verdicts[key] = v
		}
	}
	for i := 0; i < count; i++ {
		if !seen[i] {
			return nil, fmt.Errorf("paracrash: merge: missing report for shard %d/%d", i, count)
		}
	}
	return s.explore(func(key string) (checkResult, string, bool) {
		v, ok := verdicts[key]
		return v.result(), v.Class, ok
	}, effort)
}
