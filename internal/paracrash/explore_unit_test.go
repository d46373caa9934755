package paracrash

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"paracrash/internal/pfs"
	"paracrash/internal/pfs/beegfs"
	"paracrash/internal/trace"
)

// TestShardStatesPartition checks the sharding invariants the merge relies
// on: ShardSpec.bounds cuts [0, n) into Count runs that tile it in shard
// order, run sizes differ by at most one, and no run is empty while Count
// is at most the state count.
func TestShardStatesPartition(t *testing.T) {
	for n := 0; n <= 17; n++ {
		for w := 1; w <= 6; w++ {
			next, minSz, maxSz := 0, n+1, 0
			for i := range w {
				lo, hi := ShardSpec{Index: i, Count: w}.bounds(n)
				if lo != next || hi < lo {
					t.Fatalf("n=%d w=%d: shard %d has run [%d,%d), want it to start at %d", n, w, i, lo, hi, next)
				}
				if hi == lo && w <= n {
					t.Errorf("n=%d w=%d: empty shard", n, w)
				}
				minSz, maxSz = min(minSz, hi-lo), max(maxSz, hi-lo)
				next = hi
			}
			if next != n {
				t.Errorf("n=%d w=%d: runs end at %d, want %d", n, w, next, n)
			}
			if maxSz-minSz > 1 {
				t.Errorf("n=%d w=%d: shard sizes unbalanced (%d..%d)", n, w, minSz, maxSz)
			}
		}
	}
}

// renameWorkload is a minimal in-package workload (the workloads package
// imports paracrash, so it cannot be used here): the classic
// write-then-rename pattern that trips BeeGFS reordering, on files files
// (one when zero).
type renameWorkload struct{ files int }

func (renameWorkload) Name() string { return "unit-rename" }

func (renameWorkload) Preamble(fs pfs.FileSystem) error {
	return fs.Client(0).Mkdir("/d")
}

func (w renameWorkload) Run(fs pfs.FileSystem) error {
	c := fs.Client(0)
	for i := range max(w.files, 1) {
		tmp, final := "/d/tmp", "/d/final"
		if i > 0 {
			tmp, final = tmp+strconv.Itoa(i), final+strconv.Itoa(i)
		}
		if err := c.Create(tmp); err != nil {
			return err
		}
		if err := c.Append(tmp, []byte("payload-0123456789")); err != nil {
			return err
		}
		if err := c.Close(tmp); err != nil {
			return err
		}
		if err := c.Rename(tmp, final); err != nil {
			return err
		}
	}
	return nil
}

// partialSnapshotFS is a file system whose Snapshot leaves out one server's
// store — an implementation keeping that server's state somewhere pfs.State
// does not carry.
type partialSnapshotFS struct {
	pfs.FileSystem
	omit string
}

func (p partialSnapshotFS) Snapshot() *pfs.State {
	st := p.FileSystem.Snapshot()
	delete(st.FS, p.omit)
	delete(st.Dev, p.omit)
	return st
}

// TestMissingServerStoreFailsLoudly: a snapshot without a store for some
// server cannot seed crash-state reconstruction, and the run must say so,
// naming the server, before exploring anything.
func TestMissingServerStoreFailsLoudly(t *testing.T) {
	for _, omit := range beegfs.New(pfs.DefaultConfig(), trace.NewRecorder()).Procs() {
		fs := partialSnapshotFS{FileSystem: beegfs.New(pfs.DefaultConfig(), trace.NewRecorder()), omit: omit}
		_, err := Run(fs, nil, renameWorkload{}, DefaultOptions())
		var mse *missingStoreError
		if !errors.As(err, &mse) {
			t.Errorf("run without a store for %s: got %v, want a missingStoreError", omit, err)
		} else if mse.proc != omit {
			t.Errorf("error names %q, want %q", mse.proc, omit)
		}
	}
}

// TestStatsReconcile: the state-count identity every uncancelled walk is
// held to — each generated state checked, deduplicated or pruned exactly
// once — accepts a balanced count and names the counts of an unbalanced
// one, whichever side is off.
func TestStatsReconcile(t *testing.T) {
	for _, st := range []Stats{
		{},
		{StatesGenerated: 10, StatesChecked: 4, StatesDeduped: 5, StatesPruned: 1},
		{StatesGenerated: 3, StatesChecked: 3, StatesResumed: 2, StateClasses: 7},
	} {
		if err := st.reconcile(); err != nil {
			t.Errorf("%+v: %v", st, err)
		}
	}
	for _, st := range []Stats{
		{StatesGenerated: 10, StatesChecked: 4, StatesDeduped: 5},                  // a state skipped
		{StatesGenerated: 10, StatesChecked: 5, StatesDeduped: 5, StatesPruned: 1}, // a state counted twice
		{StatesChecked: 1},
	} {
		err := st.reconcile()
		if err == nil {
			t.Errorf("%+v: reconciled", st)
			continue
		}
		want := fmt.Sprintf("%d crash states generated, but %d checked + %d deduplicated + %d pruned",
			st.StatesGenerated, st.StatesChecked, st.StatesDeduped, st.StatesPruned)
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%+v: error %q does not say %q", st, err, want)
		}
	}
}
