package paracrash

import (
	"context"
	"fmt"

	"paracrash/internal/pfs"
)

// ReferenceDiff is the reconstruction engine's reference, exported to the
// external differential suite (the workloads it runs import this package).
// It walks every generated crash state of (fs, w) under mode and requires
// that the reconstructor's recoveredOutcome yield exactly what the slow
// obvious way yields: a fresh detached clone, everything restored to the
// initial snapshot, every kept op replayed in universe order, then recover,
// mount, serialize. No classes, no memo, no prefix roots on the reference
// side. Each reconstruction's measured work must also stay within a full
// rebuild: at most one restore per server, one op apply per kept op.
func ReferenceDiff(fs pfs.FileSystem, w Workload, mode Mode) (checked int, err error) {
	opts := DefaultOptions()
	opts.Mode = mode
	s, err := prepare(context.Background(), fs, nil, w, opts)
	if err != nil {
		return 0, err
	}
	for idx, cs := range s.generate() {
		kept := 0
		ref := fs.(pfs.Cloner).CloneDetached()
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

		// Drop the per-Keep memo so every state is reconstructed, and its
		// outcome computed on the cluster bring actually produced.
		s.recon.outcomes = map[string]*recoveredOutcome{}
		before := s.stats
		got, err := s.recon.recoveredOutcome(cs)
		if err != nil {
			return checked, fmt.Errorf("state %d: recover: %v", idx, err)
		}
		if d := s.stats.ServerRestores - before.ServerRestores; d > len(fs.Procs()) {
			return checked, fmt.Errorf("state %d: reconstruction did %d restores on %d servers", idx, d, len(fs.Procs()))
		}
		if d := s.stats.OpsReplayed - before.OpsReplayed; d > kept {
			return checked, fmt.Errorf("state %d: reconstruction applied %d ops for %d kept ops", idx, d, kept)
		}
		if got.recoverErr != want.recoverErr || got.mountErr != want.mountErr || got.treeStr != want.treeStr {
			return checked, fmt.Errorf("state %d (keep %s) diverges from the full rebuild:\n--- engine ---\n%s%s%s\n--- reference ---\n%s%s%s",
				idx, cs.Keep.Key(), got.recoverErr, got.mountErr, got.treeStr, want.recoverErr, want.mountErr, want.treeStr)
		}
		checked++
	}
	return checked, nil
}

// OrderEffort runs the serial exploration of (fs, lib, w) under opts, which
// must be brute force (pruning's skips depend on the visiting order), over
// the generated crash states in the order perm(n) gives — a permutation of
// 0..n-1 — and returns the run's Stats. Inconsistent states are classified,
// so classifier probes reconstruct as they do in a run.
func OrderEffort(fs pfs.FileSystem, lib Library, w Workload, opts Options, perm func(n int) []int) (Stats, error) {
	if opts.Mode != ModeBrute {
		return Stats{}, fmt.Errorf("OrderEffort: mode %s, want brute force", opts.Mode)
	}
	s, err := prepare(context.Background(), fs, lib, w, opts)
	if err != nil {
		return Stats{}, err
	}
	states := s.generate()
	classifier := NewClassifier(s.emu, s.probe)
	for _, i := range perm(len(states)) {
		r, _ := s.check(states[i])
		if r.consistent || r.skipped {
			continue
		}
		lo := s.pfsOps
		if r.layer != "pfs" && s.libOps != nil {
			lo = s.libOps
		}
		classifier.ClassifyState(states[i], lo, r.state)
	}
	return s.stats, nil
}
