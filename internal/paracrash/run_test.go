package paracrash_test

import (
	"strings"
	"testing"

	"paracrash/internal/paracrash"
	"paracrash/internal/pfs"
	"paracrash/internal/pfs/beegfs"
	"paracrash/internal/pfs/extfs"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

func runOn(t *testing.T, fs pfs.FileSystem, w paracrash.Workload, opts paracrash.Options) *paracrash.Report {
	t.Helper()
	rep, err := paracrash.Run(fs, nil, w, opts)
	if err != nil {
		t.Fatalf("Run(%s on %s): %v", w.Name(), fs.Name(), err)
	}
	return rep
}

// TestARVRExt4Clean is Figure 8's control: ext4 with data journaling leaves
// no POSIX program in an inconsistent state.
func TestARVRExt4Clean(t *testing.T) {
	for _, w := range []paracrash.Workload{workloads.ARVR(), workloads.CR(), workloads.RC(), workloads.WAL()} {
		fs := extfs.New(pfs.DefaultConfig(), trace.NewRecorder())
		rep := runOn(t, fs, w, paracrash.DefaultOptions())
		if rep.Inconsistent != 0 {
			t.Errorf("%s on ext4: %d inconsistent states, want 0\nfirst: %+v",
				w.Name(), rep.Inconsistent, rep.States[0])
		}
		if len(rep.Bugs) != 0 {
			t.Errorf("%s on ext4: unexpected bugs: %v", w.Name(), rep.Bugs[0])
		}
	}
}

// TestARVRBeeGFSBugs checks the paper's Figure 2 / Table 3 bugs #1 and #2:
// ARVR on BeeGFS loses data when the storage-server append and the
// metadata-server rename persist out of order.
func TestARVRBeeGFSBugs(t *testing.T) {
	fs := beegfs.New(pfs.DefaultConfig(), trace.NewRecorder())
	rep := runOn(t, fs, workloads.ARVR(), paracrash.DefaultOptions())
	if rep.Inconsistent == 0 {
		t.Fatalf("ARVR on BeeGFS: no inconsistent states found")
	}
	var sawAppendRename, sawRenameUnlink bool
	for _, b := range rep.Bugs {
		t.Logf("bug: %s %s -> %s (%s)", b.Kind, b.OpA, b.OpB, b.Consequence)
		if b.Kind == paracrash.BugReordering {
			if strings.Contains(b.OpA, "append(chunk)@storage") && strings.Contains(b.OpB, "rename(dentry)@meta") {
				sawAppendRename = true
			}
			if strings.Contains(b.OpA, "rename(dentry)@meta") && strings.Contains(b.OpB, "unlink(chunk)@storage") {
				sawRenameUnlink = true
			}
		}
	}
	if !sawAppendRename {
		t.Errorf("missing bug #1: append(chunk)@storage -> rename(dentry)@meta")
	}
	if !sawRenameUnlink {
		t.Errorf("missing bug #2: rename(dentry)@meta -> unlink(chunk)@storage")
	}
}
