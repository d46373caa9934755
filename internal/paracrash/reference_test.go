package paracrash

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"paracrash/internal/causality"
	"paracrash/internal/pfs"
)

// ReferenceDiff is the reconstruction engine's reference, exported to the
// external differential suite (the workloads it runs import this package).
// It walks every generated crash state of w on a cluster newFS builds under
// mode and requires that the reconstructor's recoveredOutcome yield exactly
// what the slow obvious way yields: another fresh cluster from newFS,
// everything restored to the initial snapshot, every kept op replayed in universe order, then recover,
// mount, serialize. No classes, no memo, no prefix roots on the reference
// side. Each reconstruction's measured work must also stay within a full
// rebuild: at most one restore per server, one op apply per kept op. And
// every state sharing an image key must rebuild to a byte-identical
// reference outcome: the key may merge kept sets only when their images
// are the same.
func ReferenceDiff(newFS func() pfs.FileSystem, w Workload, mode Mode) (checked int, err error) {
	checked, _, err = ReferenceDiffAt(newFS, w, mode, DefaultOptions().Emulator.K)
	return checked, err
}

// ReferenceDiffAt is ReferenceDiff with k victims per crash state; it also
// returns the number of distinct image keys the checked states produced.
func ReferenceDiffAt(newFS func() pfs.FileSystem, w Workload, mode Mode, k int) (checked, images int, err error) {
	fs := newFS()
	opts := DefaultOptions()
	opts.Mode = mode
	opts.Emulator.K = k
	s, err := prepare(context.Background(), fs, nil, w, opts)
	if err != nil {
		return 0, 0, err
	}
	byImage := map[string]recoveredOutcome{}
	for idx, cs := range s.generate() {
		kept := 0
		ref := newFS()
		ref.Restore(s.initial)
		for _, i := range s.emu.Universe {
			if cs.Keep.Get(i) {
				kept++
				_ = ref.ApplyLowermost(s.g.Ops[i]) // a lost op is part of the crash state
			}
		}
		var want recoveredOutcome
		if rerr := ref.Recover(); rerr != nil {
			want.recoverErr = rerr.Error()
		} else if tree, merr := ref.Mount(); merr != nil {
			want.mountErr = merr.Error()
		} else {
			want.treeStr = tree.Serialize()
		}

		// Drop the outcome memo so every state is reconstructed, and its
		// outcome computed on the cluster bring actually produced.
		s.recon.outcomes = map[string]*recoveredOutcome{}
		before := s.stats
		got, err := s.recon.recoveredOutcome(cs)
		if err != nil {
			return checked, 0, fmt.Errorf("state %d: recover: %v", idx, err)
		}
		if d := s.stats.ServerRestores - before.ServerRestores; d > len(fs.Procs()) {
			return checked, 0, fmt.Errorf("state %d: reconstruction did %d restores on %d servers", idx, d, len(fs.Procs()))
		}
		if d := s.stats.OpsReplayed - before.OpsReplayed; d > kept {
			return checked, 0, fmt.Errorf("state %d: reconstruction applied %d ops for %d kept ops", idx, d, kept)
		}
		if got.recoverErr != want.recoverErr || got.mountErr != want.mountErr || got.treeStr != want.treeStr {
			return checked, 0, fmt.Errorf("state %d (keep %s) diverges from the full rebuild:\n--- engine ---\n%s%s%s\n--- reference ---\n%s%s%s",
				idx, cs.Keep.Key(), got.recoverErr, got.mountErr, got.treeStr, want.recoverErr, want.mountErr, want.treeStr)
		}
		image := string(s.recon.imageKey(cs.Keep))
		if prev, ok := byImage[image]; ok && prev != want {
			return checked, 0, fmt.Errorf("state %d (keep %s) shares its image key with a state whose full rebuild differs:\n--- this state ---\n%s%s%s\n--- earlier state ---\n%s%s%s",
				idx, cs.Keep.Key(), want.recoverErr, want.mountErr, want.treeStr, prev.recoverErr, prev.mountErr, prev.treeStr)
		}
		byImage[image] = want
		checked++
	}
	return checked, len(byImage), nil
}

// OrderEffort runs the serial exploration of (fs, lib, w) under opts, which
// must be brute force (pruning's skips depend on the visiting order), over
// the generated crash states in the order perm(n) gives — a permutation of
// 0..n-1 — and returns the run's Stats. Inconsistent states are classified,
// so classifier probes reconstruct as they do in a run. Each state is judged
// by the engine's check, or with perState by the per-state reference's.
func OrderEffort(fs pfs.FileSystem, lib Library, w Workload, opts Options, perm func(n int) []int, perState bool) (Stats, error) {
	if opts.Mode != ModeBrute {
		return Stats{}, fmt.Errorf("OrderEffort: mode %s, want brute force", opts.Mode)
	}
	s, err := prepare(context.Background(), fs, lib, w, opts)
	if err != nil {
		return Stats{}, err
	}
	check := s.check
	if perState {
		check = s.referenceJudge(map[string]Verdict{})
	}
	states := s.generate()
	classifier := NewClassifier(s.emu, func(cs CrashState) (bool, string) {
		r := check(cs)
		return r.Consistent || r.Skipped, r.State
	}, s.status)
	for _, i := range perm(len(states)) {
		r := check(states[i])
		if r.Consistent || r.Skipped {
			continue
		}
		lo := s.pfsOps
		if r.Layer != "pfs" && s.libOps != nil {
			lo = s.libOps
		}
		classifier.ClassifyState(states[i], lo, r.State)
	}
	return s.stats, nil
}

// Judged is one crash state's verdict as a run holds it at its end, for the
// external representative suite: the wire-form verdict without its class
// key (the reference digests nothing), whether the state was visited (not
// only probed by the classifier; reference runs only) and whether its
// verdict was attributed from its class (engine runs only).
type Judged struct {
	Verdict
	Visited    bool
	Attributed bool
}

// judgedAt is the Judged of the verdict v of state key.
func judgedAt(key string, v Verdict, visited bool) Judged {
	j := Judged{Verdict: v, Visited: visited, Attributed: v.attributed}
	j.Key, j.Class, j.attributed = hex.EncodeToString([]byte(key)), "", false
	return j
}

// referenceJudge is the per-state reference's check: every crash state is
// judged on its own by judge, quarantined when its judgement fails, and
// never looked up in the class memo. judged
// memoises verdicts per state (classifier probes revisit states) and
// receives every one; the checkpoint, when armed, journals every one.
func (s *session) referenceJudge(judged map[string]Verdict) func(CrashState) Verdict {
	return func(cs CrashState) Verdict {
		if !cs.Keep.ContainsAll(s.emu.PO.Required(cs.Front, nil)) {
			return Verdict{Consistent: true}
		}
		key := stateKey(cs)
		if r, ok := judged[key]; ok {
			return r
		}
		r := s.judge(cs, "", nil)
		judged[key] = r
		s.journal(key, r)
		return r
	}
}

// ReferenceRun is the per-state reference behind the representative suite,
// exported to it (the workloads it runs import this package). It explores
// (fs, lib, w) under opts serially in generation order with the report
// logic of the engine's walk, but judges every state with referenceJudge,
// so no class is ever consulted, and classifies through that same check. It
// returns the report and every state it judged, keyed by state key. With
// opts.Checkpoint set it journals a record per judged state (what a run
// that judged every state on its own wrote) and reads nothing back.
func ReferenceRun(fs pfs.FileSystem, lib Library, w Workload, opts Options) (*Report, map[string]Judged, error) {
	s, err := prepare(context.Background(), fs, lib, w, opts)
	if err != nil {
		return nil, nil, err
	}
	if opts.Checkpoint != nil {
		if err := s.resumeCheckpoint(checkpointConfig(s.identity(), opts)); err != nil {
			return nil, nil, err
		}
	}
	judgedRes := map[string]Verdict{}
	judge := s.referenceJudge(judgedRes)
	classifier := NewClassifier(s.emu, func(cs CrashState) (bool, string) {
		r := judge(cs)
		return r.Consistent || r.Skipped, r.State
	}, s.status)
	report := &Report{Program: w.Name(), FS: fs.Name(), Mode: opts.Mode}
	bugs := NewBugSet()
	seen := map[string]bool{}
	visited := map[string]bool{}
	for _, cs := range s.generate() {
		if opts.Mode != ModeBrute && bugs.KnownBad(cs) {
			s.stats.StatesPruned++
			continue
		}
		s.stats.StatesChecked++
		visited[stateKey(cs)] = true
		r := judge(cs)
		if r.Skipped {
			report.Skipped = append(report.Skipped, SkippedState{Victims: s.victimKeys(cs), Reason: r.Consequence})
			continue
		}
		if r.Consistent {
			continue
		}
		if k := r.Layer + "|" + r.State; !seen[k] {
			seen[k] = true
			report.Inconsistent++
			if r.Layer != "pfs" {
				report.LibOnly++
			}
			report.States = append(report.States, InconsistentState{
				Layer: r.Layer, Victims: s.victimKeys(cs), Consequence: r.Consequence,
				Key: StateDigest(r.Layer, r.State),
			})
		}
		lo := s.pfsOps
		if r.Layer != "pfs" && s.libOps != nil {
			lo = s.libOps
		}
		for _, pr := range classifier.ClassifyState(cs, lo, r.State) {
			bugs.Add(pr, r.Layer, fs.Name(), w.Name(), r.Consequence)
		}
	}
	fs.Restore(s.initial)
	if opts.Checkpoint != nil {
		if err := opts.Checkpoint.Flush(); err != nil {
			return nil, nil, err
		}
	}
	report.Bugs = bugs.Bugs()
	report.Stats = s.stats
	judged := make(map[string]Judged, len(judgedRes))
	for k, r := range judgedRes {
		judged[k] = judgedAt(k, r, visited[k])
	}
	return report, judged, nil
}

// EngineRun runs the engine exactly as RunContext does and also returns the
// verdict it holds at the end for every state it judged — visited or
// probed — keyed by state key, with
// Attributed set where the state took its class representative's verdict.
// A sync-infeasible state is judged consistent without being held.
func EngineRun(fs pfs.FileSystem, lib Library, w Workload, opts Options) (*Report, map[string]Judged, error) {
	s, err := prepare(context.Background(), fs, lib, w, opts)
	if err != nil {
		return nil, nil, err
	}
	rep, err := s.explore(nil, nil)
	if err != nil {
		return nil, nil, err
	}
	judged := make(map[string]Judged, len(s.checkCache))
	for k, r := range s.checkCache {
		judged[k] = judgedAt(k, r, false)
	}
	return rep, judged, nil
}

// EngineImages runs the engine as EngineRun does and counts, over every
// state it judged (visited or probed), the distinct kept sets and the
// distinct image keys they left.
func EngineImages(fs pfs.FileSystem, lib Library, w Workload, opts Options) (keeps, images int, err error) {
	s, err := prepare(context.Background(), fs, lib, w, opts)
	if err != nil {
		return 0, 0, err
	}
	if _, err := s.explore(nil, nil); err != nil {
		return 0, 0, err
	}
	keepSet, imageSet := map[string]bool{}, map[string]bool{}
	for key := range s.checkCache {
		// A state key is the front's words, "|", then the kept set's words;
		// both bitsets span the trace.
		words := (len(key) - 1) / 16
		keep := make(causality.Bitset, words)
		for i := range keep {
			keep[i] = binary.LittleEndian.Uint64([]byte(key[8*words+1+8*i:]))
		}
		keepSet[keep.Key()] = true
		imageSet[string(s.recon.imageKey(keep))] = true
	}
	return len(keepSet), len(imageSet), nil
}
