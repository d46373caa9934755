// Sharded exploration, the fleet's: the generated crash-state list is cut
// into contiguous runs of generation order, one per shard
// (ShardSpec.bounds), shards judge their runs in separate processes, and
// one serial merge resolves every check through the shards' verdicts.
// Exploration within a process is serial; parallelism is the fleet's.
//
// RunShard is the worker side: it rebuilds the full analysis state (trace,
// causality graph, emulator universe, golden states — prepare is pure per
// configuration, so every process derives the identical generation order),
// judges only the states whose generation index falls in its shard, and
// returns their verdicts, each with the class key it was digested into, in
// a serializable ShardReport. MergeShards is the coordinator side: it
// validates that the shard reports cover the partition and were produced
// under the same verdict-relevant configuration and trace, then runs the
// merge.
//
// A shard judges every state it owns — it has no view of the merge's
// BugSet, so the merge prunes — and journals each fresh verdict into the
// run's Checkpoint. The merge is explore's serial walk verbatim (visiting
// order, pruning, representative attribution), resolving checks and class
// lookups through a verdictTable, so no shipped state is judged or digested
// twice, and computing locally only what no shard judged (classifier probes
// outside the shards' runs, and the states of a shard that panicked). Its
// report has the serial run's verdicts, state keys, state counts and bug
// set, and Stats whose effort is the merge's own plus every shard's.
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
// Index-th of Count contiguous runs of generation order.
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

// bounds returns the run [lo, hi) of generation indices this shard owns
// out of n states, the fleet's partition function. The Count runs tile [0, n) in order and differ in size by
// at most one. A run keeps neighbouring states — which share a crash front,
// its prefix roots and often a class — on one shard, so shards judge fewer
// class representatives twice than a round-robin dealing would.
func (sp ShardSpec) bounds(n int) (lo, hi int) {
	return sp.Index * n / sp.Count, (sp.Index + 1) * n / sp.Count
}

// Verdict is the judgement of one crash state: the engine's, and in wire
// form a checkpoint journal line and an entry of ShardReport.Verdicts alike.
type Verdict struct {
	// Key is the crash state's front|keep identity (the check-cache key) in
	// hex, since JSON would mangle the binary key's invalid UTF-8. It is set
	// only on a verdict written out (journal record, shard report), and only
	// stateKey decodes it.
	Key string `json:"key"`
	// Class is the class key the state was digested into ("" when it was
	// not), so a reader takes it instead of digesting the state again.
	Class      string `json:"class,omitempty"`
	Consistent bool   `json:"consistent,omitempty"`
	// Layer is the failing layer ("pfs" or the library name) and State the
	// canonical content of the recovered state there; both are empty when
	// consistent. The bug dedup keys on them.
	Layer       string `json:"layer,omitempty"`
	Consequence string `json:"consequence,omitempty"`
	State       string `json:"state,omitempty"`
	// Skipped marks a quarantined state: its judgement failed, so there is
	// no verdict, and Consequence holds the quarantine reason. Skipped states
	// are reported via Report.Skipped, never as inconsistencies; skipped
	// verdicts ride along in shard reports so the merge does not re-attempt
	// a reconstruction the shard already proved poisoned.
	Skipped bool `json:"skipped,omitempty"`
	// attributed marks a verdict a state took from its class representative
	// (a class memo hit); countVisit counts such a state as deduplicated.
	// Being unexported, it is never serialised.
	attributed bool
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
// across processes. A shard explores serially, as every run does.
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
	// must see the same list every process sees — then keep our run.
	all := s.generate()
	lo, hi := shard.bounds(len(all))
	states := all[lo:hi]
	opts.Obs.Gauge("shard/states").Set(int64(len(states)))

	table := make(verdictTable, len(states))
	s.checkCache = make(map[string]Verdict, len(states))
	stopExplore := opts.Obs.Phase(obs.PhaseExplore)
	s.exploreShard(states, table, opts.Obs.Gauge("shard/pending"))
	stopExplore()

	// Leave the cluster at the untouched post-run state, like RunContext.
	fs.Restore(s.initial)
	if err := s.ctx.Err(); err != nil {
		return nil, fmt.Errorf("paracrash: shard cancelled: %w", err)
	}

	s.stats.StateClasses = len(s.classes)
	s.stats.Duration = time.Since(s.start)
	rep := &ShardReport{Shard: shard, Config: config, StatesGenerated: s.stats.StatesGenerated, Stats: s.stats}
	for i, cs := range states {
		key := stateKey(cs)
		v, ok := table[key] // judged: the loop covers every state unless cancelled
		if !ok {
			return nil, fmt.Errorf("paracrash: shard %s: no verdict for state %d", shard, lo+i)
		}
		v.Key = hex.EncodeToString([]byte(key))
		rep.Verdicts = append(rep.Verdicts, v)
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
	verdicts := verdictTable{}
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
	return s.explore(verdicts, effort)
}

// verdictTable is what a merge resolves checks through: a raw crash-state
// key to the verdict a shard judged, with the class key the shard digested
// the state into. MergeShards fills it from the reports' wire verdicts.
type verdictTable map[string]Verdict

// walk is explore's one ordered walk: it prunes, checks and records every
// state into rep in generation order. In a fleet merge, checks resolve
// through the verdicts the shards shipped (s.shipped), and the walk judges
// itself only what no shard judged: classifier probes outside the
// generated list, and the states of a shard that panicked.
func (s *session) walk(states []CrashState, rep *Report) {
	bugs := NewBugSet()
	classifier := NewClassifier(s.emu, s.probe, s.status)
	seen := map[[2]string]bool{} // inconsistent states by layer and recovered content
	for _, cs := range states {
		if s.ctx.Err() != nil {
			break
		}
		if s.opts.Mode != ModeBrute && bugs.KnownBad(cs) {
			s.stats.StatesPruned++
			s.ctrPruned.Inc()
			continue
		}
		v := s.check(cs)
		s.countVisit(v)
		if v.Skipped {
			rep.Skipped = append(rep.Skipped, SkippedState{Victims: s.victimKeys(cs), Reason: v.Consequence})
			continue
		}
		if v.Consistent {
			continue
		}
		// Distinct persistence subsets recovering to the same content are
		// one inconsistent state (the paper's redundancy removal, §5.2).
		if k := [2]string{v.Layer, v.State}; !seen[k] {
			seen[k] = true
			rep.Inconsistent++
			s.ctrBad.Inc()
			if v.Layer != "pfs" {
				rep.LibOnly++
			}
			rep.States = append(rep.States, InconsistentState{
				Layer: v.Layer, Victims: s.victimKeys(cs), Consequence: v.Consequence,
				Key: StateDigest(v.Layer, v.State),
			})
		}
		lo := s.pfsOps
		if v.Layer != "pfs" && s.libOps != nil {
			lo = s.libOps
		}
		// The classify span holds the probes' reconstructions and
		// recoveries, which the pfs/* timers also count.
		stopClassify := s.obs.StartTimer("classify")
		for _, pr := range classifier.ClassifyState(cs, lo, v.State) {
			bugs.Add(pr, v.Layer, s.fs.Name(), s.program, v.Consequence)
		}
		stopClassify()
	}
	rep.Bugs = bugs.Bugs()
}

// victimKeys names a crash state's victim ops for the report.
func (s *session) victimKeys(cs CrashState) []string {
	var out []string
	for _, v := range cs.Victims {
		out = append(out, s.g.Ops[v].Key())
	}
	return out
}

// exploreShard is RunShard's loop: it judges a shard's run of states in
// generation order into out, and stops early when the run is cancelled. All
// per-state logic lives in check, which caches prefix roots, counts the
// work in the shard's Stats and journals every fresh verdict.
func (s *session) exploreShard(states []CrashState, out verdictTable, pending *obs.Gauge) {
	for _, cs := range states {
		if s.ctx.Err() != nil {
			return
		}
		v := s.check(cs)
		key := s.checked
		if key == "" {
			key = stateKey(cs)
		}
		out[key] = v
		s.countVisit(v)
		pending.Add(-1)
	}
}

// stateKey is the cache/dedup key of a crash state.
func stateKey(cs CrashState) string {
	return string(appendStateKey(nil, cs))
}

// appendStateKey appends cs's stateKey bytes to dst.
func appendStateKey(dst []byte, cs CrashState) []byte {
	return cs.Keep.AppendKey(append(cs.Front.AppendKey(dst), '|'))
}
