package paracrash

import (
	"context"
	"fmt"

	"paracrash/internal/pfs"
)

// ReferenceDiff is the reconstruction engine's reference, exported to the
// external differential suite (the workloads it runs import this package).
// It walks every generated crash state of (fs, w) in mode's visiting order —
// generation order, or the greedy TSP tour under ModeOptimized — and requires
// that the reconstructor's bring + recoveredOutcome yield exactly what the
// slow obvious way yields: a fresh detached clone, everything restored to
// the initial snapshot, every kept op replayed in universe order, then
// recover, mount, serialize. No classes, no memo, no prefix roots on the
// reference side. Each bring's measured work must also stay within a full
// rebuild: at most one restore per server, one op apply per kept op.
func ReferenceDiff(fs pfs.FileSystem, w Workload, mode Mode) (checked int, err error) {
	opts := DefaultOptions()
	opts.Mode = mode
	s, err := prepare(context.Background(), fs, nil, w, opts)
	if err != nil {
		return 0, err
	}
	fs.Restore(s.initial)
	var states []CrashState
	s.emu.Generate(opts.emulatorConfig(), func(cs CrashState) bool {
		states = append(states, cs)
		return true
	})
	for _, idx := range s.visitOrder(states, ShardSpec{Count: 1}.indices(len(states))) {
		cs := states[idx]
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

		// Drop the per-Keep memo so every state's outcome is computed on the
		// cluster bring actually produced.
		s.recon.outcomes = map[string]*recoveredOutcome{}
		before := s.stats
		if err := s.recon.bring(cs); err != nil {
			return checked, fmt.Errorf("state %d: bring: %v", idx, err)
		}
		if d := s.stats.ServerRestores - before.ServerRestores; d > len(fs.Procs()) {
			return checked, fmt.Errorf("state %d: bring did %d restores on %d servers", idx, d, len(fs.Procs()))
		}
		if d := s.stats.OpsReplayed - before.OpsReplayed; d > kept {
			return checked, fmt.Errorf("state %d: bring applied %d ops for %d kept ops", idx, d, kept)
		}
		got, err := s.recon.recoveredOutcome(cs)
		if err != nil {
			return checked, fmt.Errorf("state %d: recover: %v", idx, err)
		}
		if got.recoverErr != want.recoverErr || got.mountErr != want.mountErr || got.treeStr != want.treeStr {
			return checked, fmt.Errorf("state %d (keep %s) diverges from the full rebuild:\n--- engine ---\n%s%s%s\n--- reference ---\n%s%s%s",
				idx, cs.Keep.Key(), got.recoverErr, got.mountErr, got.treeStr, want.recoverErr, want.mountErr, want.treeStr)
		}
		checked++
	}
	return checked, nil
}
