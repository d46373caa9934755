package pfs

import (
	"testing"

	"paracrash/internal/obs"
	"paracrash/internal/trace"
	"paracrash/internal/vfs"
)

func testCluster(t *testing.T) *Cluster {
	t.Helper()
	c := NewCluster(DefaultConfig(), trace.NewRecorder(), []string{"mds/0", "oss/0"})
	for _, s := range c.FSServers {
		if err := s.FS.Create("/seed"); err != nil {
			t.Fatal(err)
		}
		if err := s.FS.WriteAt("/seed", 0, []byte("seed-"+s.Proc)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func stateSerial(st *State, proc string) string { return st.FS[proc].Serialize() }

// TestStateRestoreAliasing proves whole-cluster and per-server restores
// adopt a State without aliasing: writes through the restored cluster must
// never reach the snapshot or a sibling cluster restored from it.
func TestStateRestoreAliasing(t *testing.T) {
	c := testCluster(t)
	st := c.Snapshot()
	want := stateSerial(st, "mds/0")

	sibling := NewCluster(DefaultConfig(), trace.NewRecorder(), []string{"mds/0", "oss/0"})
	sibling.Restore(st)

	c.Restore(st)
	if err := c.FSServer("mds/0").FS.WriteAt("/seed", 0, []byte("CLOBB")); err != nil {
		t.Fatal(err)
	}
	if got := stateSerial(st, "mds/0"); got != want {
		t.Fatalf("snapshot state mutated through restored cluster:\n%s", got)
	}
	if got := sibling.FSServer("mds/0").FS.Serialize(); got != want {
		t.Fatalf("sibling cluster mutated:\n%s", got)
	}

	// Per-server restore path.
	mds, _ := st.ServerSnap("mds/0")
	c.RestoreServerSnap("mds/0", mds)
	if err := c.FSServer("mds/0").FS.Append("/seed", []byte("tail")); err != nil {
		t.Fatal(err)
	}
	if got := stateSerial(st, "mds/0"); got != want {
		t.Fatalf("snapshot state mutated through RestoreServerSnap:\n%s", got)
	}
}

// TestCaptureServerSnapAliasing proves the incremental-reconstruction snaps
// are frozen: a captured prefix root must survive arbitrary later writes to
// the live store, and restoring it must not let new writes leak back in.
func TestCaptureServerSnapAliasing(t *testing.T) {
	c := testCluster(t)

	snap, ok := c.CaptureServer("oss/0")
	if !ok {
		t.Fatal("CaptureServer failed for oss/0")
	}
	want := c.FSServer("oss/0").FS.Serialize()

	if err := c.FSServer("oss/0").FS.WriteAt("/seed", 0, []byte("XXXXX")); err != nil {
		t.Fatal(err)
	}
	if !c.RestoreServerSnap("oss/0", snap) {
		t.Fatal("RestoreServerSnap failed for oss/0")
	}
	if got := c.FSServer("oss/0").FS.Serialize(); got != want {
		t.Fatalf("restore from captured snap diverged:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if err := c.FSServer("oss/0").FS.Append("/seed", []byte("after")); err != nil {
		t.Fatal(err)
	}
	// Re-restoring the same snap must still give the captured content.
	if !c.RestoreServerSnap("oss/0", snap) {
		t.Fatal("second RestoreServerSnap failed")
	}
	if got := c.FSServer("oss/0").FS.Serialize(); got != want {
		t.Fatalf("captured snap mutated by post-restore write:\nwant:\n%s\ngot:\n%s", want, got)
	}

	if _, ok := c.CaptureServer("nope"); ok {
		t.Fatal("CaptureServer accepted unknown proc")
	}
	if c.RestoreServerSnap("nope", snap) {
		t.Fatal("RestoreServerSnap accepted unknown proc")
	}
	var zero ServerSnap
	if zero.Valid() {
		t.Fatal("zero ServerSnap claims validity")
	}
}

// TestStateServerSnap checks State.ServerSnap hands out the stored snapshot
// for both store kinds and rejects unknown procs.
func TestStateServerSnap(t *testing.T) {
	c := testCluster(t)
	st := c.Snapshot()
	snap, ok := st.ServerSnap("mds/0")
	if !ok || !snap.Valid() {
		t.Fatal("ServerSnap failed for fs store")
	}
	if snap.fs != st.FS["mds/0"] {
		t.Fatal("ServerSnap returned a different fs snapshot")
	}
	if _, ok := st.ServerSnap("absent"); ok {
		t.Fatal("ServerSnap accepted unknown proc")
	}

	bc := NewBlockCluster(DefaultConfig(), trace.NewRecorder(), []string{"nsd/0"})
	bc.Block("nsd/0").Dev.Write(7, []byte("blk"))
	bst := bc.Snapshot()
	bsnap, ok := bst.ServerSnap("nsd/0")
	if !ok || bsnap.dev == nil {
		t.Fatal("ServerSnap failed for block store")
	}
	if _, ok := bc.CaptureServer("nsd/0"); !ok {
		t.Fatal("CaptureServer failed for block store")
	}
	var fsOnly ServerSnap
	fsOnly.fs = vfs.New()
	if bc.RestoreServerSnap("nsd/0", fsOnly) {
		t.Fatal("RestoreServerSnap accepted fs snap for block server")
	}
}

// TestRestoreServerSnapTimedAllocationFree: with a run attached, a
// per-server restore is one "pfs/restore-server" span, recorded without a
// lock-guarded lookup or a closure, so the restore allocates nothing.
func TestRestoreServerSnapTimedAllocationFree(t *testing.T) {
	c := testCluster(t)
	run := obs.NewRun()
	c.SetObs(run)
	snap, ok := c.CaptureServer("oss/0")
	if !ok {
		t.Fatal("CaptureServer failed for oss/0")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if !c.RestoreServerSnap("oss/0", snap) {
			t.Fatal("RestoreServerSnap failed for oss/0")
		}
	})
	if allocs != 0 {
		t.Errorf("a timed RestoreServerSnap allocated %.1f times, want 0", allocs)
	}
	// AllocsPerRun calls the function once more than it averages over.
	var spans int64
	for _, ts := range run.Summary().Timers {
		if ts.Name == "pfs/restore-server" {
			spans = ts.Count
		}
	}
	if spans != 101 {
		t.Errorf("pfs/restore-server counted %d spans, want 101", spans)
	}
}
