package exps

import (
	"strings"
	"testing"

	"paracrash/internal/paracrash"
	"paracrash/internal/workloads"
)

// runCell runs one matrix cell with default options.
func runCell(t *testing.T, fsName, progName string) *paracrash.Report {
	t.Helper()
	prog, err := ProgramByName(progName)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunOne(fsName, prog, paracrash.DefaultOptions(), workloads.DefaultH5Params(), ConfigFor(fsName))
	if err != nil {
		t.Fatalf("%s on %s: %v", progName, fsName, err)
	}
	return rep
}

// hasBug reports whether the report contains a bug whose fields contain the
// given fragments (kind, layer, opA, opB; empty fragments match anything).
func hasBug(rep *paracrash.Report, kind paracrash.BugKind, layer, opA, opB string) bool {
	for _, b := range rep.Bugs {
		if b.Kind != kind {
			continue
		}
		if layer != "" && b.Layer != layer {
			continue
		}
		if opA != "" && !strings.Contains(b.OpA, opA) {
			continue
		}
		if opB != "" && !strings.Contains(b.OpB, opB) {
			continue
		}
		return true
	}
	return false
}

// --- Table 3, bugs 1-2: ARVR on BeeGFS -------------------------------------

func TestPaperBug1And2ARVRBeeGFS(t *testing.T) {
	rep := runCell(t, "beegfs", "ARVR")
	if !hasBug(rep, paracrash.BugReordering, "pfs", "append(chunk)@storage", "rename(dentry)@meta") {
		t.Errorf("bug #1 (append -> rename) missing; bugs: %v", bugStrings(rep))
	}
	if !hasBug(rep, paracrash.BugReordering, "pfs", "rename(dentry)@meta", "unlink(chunk)@storage") {
		t.Errorf("bug #2 (rename -> unlink) missing; bugs: %v", bugStrings(rep))
	}
}

// --- Table 3, bug 1 on OrangeFS; bug 2 absent (Figure 9b) ------------------

func TestPaperBug1OrangeFSAndBug2Absent(t *testing.T) {
	rep := runCell(t, "orangefs", "ARVR")
	if !hasBug(rep, paracrash.BugReordering, "pfs", "append(bstream)@storage", "pwrite(keyval.db)@meta") {
		t.Errorf("bug #1 analog missing on OrangeFS; bugs: %v", bugStrings(rep))
	}
	// The stranded-bstream protocol plus per-update fdatasync closes bug #2.
	if hasBug(rep, paracrash.BugReordering, "pfs", "pwrite(keyval.db)@meta", "unlink") {
		t.Errorf("bug #2 should not occur on OrangeFS; bugs: %v", bugStrings(rep))
	}
}

// --- Table 3, bug 3: GPFS ARVR atomic group --------------------------------

func TestPaperBug3GPFSARVR(t *testing.T) {
	rep := runCell(t, "gpfs", "ARVR")
	if rep.Inconsistent == 0 {
		t.Fatal("GPFS ARVR should reach inconsistent states")
	}
	// Data loss from the unjournaled data write reordering against the
	// rename transaction's metadata writes.
	found := false
	for _, b := range rep.Bugs {
		if strings.Contains(b.OpA, "scsi_write(data)") || strings.Contains(b.OpB, "scsi_write(data)") ||
			strings.Contains(b.OpA, "scsi_write(dir_entries)") {
			found = true
		}
	}
	if !found {
		t.Errorf("bug #3 family missing on GPFS; bugs: %v", bugStrings(rep))
	}
}

// --- Table 3, bug 4: CR file in both directories ---------------------------

func TestPaperBug4CR(t *testing.T) {
	for _, fsName := range []string{"beegfs", "orangefs", "gpfs"} {
		rep := runCell(t, fsName, "CR")
		if rep.Inconsistent == 0 {
			t.Errorf("CR on %s should reach inconsistent states", fsName)
			continue
		}
		hasAtomicity := false
		for _, b := range rep.Bugs {
			if b.Kind == paracrash.BugAtomicity {
				hasAtomicity = true
			}
		}
		if !hasAtomicity {
			t.Errorf("bug #4 (cross-server rename atomicity) missing on %s; bugs: %v", fsName, bugStrings(rep))
		}
	}
}

// --- Table 3, bug 5: RC file created in the wrong directory ----------------

func TestPaperBug5RC(t *testing.T) {
	for _, fsName := range []string{"beegfs", "gpfs"} {
		rep := runCell(t, fsName, "RC")
		if !hasBug(rep, paracrash.BugReordering, "pfs", "rename", "") &&
			!hasBug(rep, paracrash.BugReordering, "pfs", "scsi_write(dir_entries)", "") {
			t.Errorf("bug #5 (dir rename -> create reordering) missing on %s; bugs: %v", fsName, bugStrings(rep))
		}
	}
}

// --- Table 3, bugs 6-8: WAL ------------------------------------------------

func TestPaperBugs6To8WAL(t *testing.T) {
	// Bug 6: cross-storage append(log) -> overwrite(foo) on BeeGFS,
	// GlusterFS, OrangeFS.
	for _, fsName := range []string{"beegfs", "glusterfs", "orangefs"} {
		rep := runCell(t, fsName, "WAL")
		if rep.Inconsistent == 0 {
			t.Errorf("WAL on %s found nothing", fsName)
			continue
		}
		crossStorage := false
		for _, b := range rep.Bugs {
			aStorage := strings.Contains(b.OpA, "@storage") || strings.Contains(b.OpA, "@brick")
			bMeta := strings.Contains(b.OpB, "@meta") || strings.Contains(b.OpB, "@brick") || strings.Contains(b.OpB, "@storage")
			if aStorage && bMeta {
				crossStorage = true
			}
		}
		if !crossStorage {
			t.Errorf("WAL reordering family missing on %s; bugs: %v", fsName, bugStrings(rep))
		}
	}
	// Bug 7 (log dentry -> overwrite) and bug 8 (overwrite -> unlink log)
	// on BeeGFS specifically.
	rep := runCell(t, "beegfs", "WAL")
	if !hasBug(rep, paracrash.BugReordering, "pfs", "link(dentry)@meta", "(chunk)@storage") {
		t.Errorf("bug #7 missing on BeeGFS; bugs: %v", bugStrings(rep))
	}
	if !hasBug(rep, paracrash.BugReordering, "pfs", "(chunk)@storage", "unlink(dentry)@meta") {
		t.Errorf("bug #8 missing on BeeGFS; bugs: %v", bugStrings(rep))
	}
}

// --- Lustre: clean on POSIX (paper §6.3.1) ---------------------------------

func TestPaperLustreCleanOnPOSIX(t *testing.T) {
	for _, progName := range []string{"ARVR", "CR", "RC", "WAL"} {
		rep := runCell(t, "lustre", progName)
		if rep.Inconsistent != 0 || len(rep.Bugs) != 0 {
			t.Errorf("Lustre %s: %d inconsistent, %d bugs; want clean",
				progName, rep.Inconsistent, len(rep.Bugs))
		}
	}
}

// --- ext4 with data journaling: clean on POSIX (Figure 8 control) ----------

func TestPaperExt4CleanOnPOSIX(t *testing.T) {
	for _, progName := range []string{"ARVR", "CR", "RC", "WAL"} {
		rep := runCell(t, "ext4", progName)
		if rep.Inconsistent != 0 {
			t.Errorf("ext4 %s: %d inconsistent states; want 0", progName, rep.Inconsistent)
		}
	}
}

// --- Table 3, bugs 10-15: the library-level bugs ---------------------------

func TestPaperBug10H5CreateEveryPFS(t *testing.T) {
	// H5-create leaves unmodified datasets unreachable on every PFS: the
	// new dataset's symbol-table entry can persist without its heap name
	// or object header.
	for _, fsName := range FSNames() {
		rep := runCell(t, fsName, "H5-create")
		if rep.Inconsistent == 0 {
			t.Errorf("H5-create on %s found nothing", fsName)
		}
	}
}

func TestPaperBug11H5Delete(t *testing.T) {
	// Symbol table node must persist before the heap clear; the bug is
	// HDF5's own (visible even on ordered file systems).
	for _, fsName := range []string{"beegfs", "lustre", "ext4"} {
		rep := runCell(t, fsName, "H5-delete")
		if !hasBug(rep, paracrash.BugAtomicity, "hdf5", "h5:snod:/g1", "h5:heap:/g1") &&
			!hasBug(rep, paracrash.BugReordering, "hdf5", "h5:snod:/g1", "h5:heap:/g1") {
			t.Errorf("bug #11 (snod -> heap) missing on %s; bugs: %v", fsName, bugStrings(rep))
		}
	}
}

func TestPaperBug12H5Rename(t *testing.T) {
	// The rename's source and destination group updates must be atomic.
	for _, fsName := range []string{"beegfs", "lustre"} {
		rep := runCell(t, fsName, "H5-rename")
		found := false
		for _, b := range rep.Bugs {
			if b.Layer == "hdf5" &&
				(strings.Contains(b.OpA, "/g1") || strings.Contains(b.OpB, "/g1")) &&
				(strings.Contains(b.OpA, "/g2") || strings.Contains(b.OpB, "/g2")) {
				found = true
			}
		}
		if !found {
			t.Errorf("bug #12 (cross-group rename) missing on %s; bugs: %v", fsName, bugStrings(rep))
		}
	}
}

func TestPaperBug13H5Resize(t *testing.T) {
	// The resize bug is rooted in the PFS (Table 3's parenthetical): the
	// chunk B-tree / object header persists without the rest.
	for _, fsName := range []string{"beegfs", "lustre", "gpfs"} {
		rep := runCell(t, fsName, "H5-resize")
		if rep.Inconsistent == 0 {
			t.Errorf("H5-resize on %s found nothing", fsName)
		}
	}
}

func TestPaperBug14H5ResizeDimsSensitivity(t *testing.T) {
	// Growing to 10x10 splits the chunk B-tree; the child node must
	// persist before the parent — visible as an HDF5-layer bug with the
	// "wrong B-tree signature" consequence (Table 3's sensitivity on
	// dataset dimensions).
	prog, _ := ProgramByName("H5-resize")
	p := workloads.DefaultH5Params()
	p.ResizeRows, p.ResizeCols = 10, 10
	rep, err := RunOne("lustre", prog, paracrash.DefaultOptions(), p, ConfigFor("lustre"))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range rep.Bugs {
		if b.Layer == "hdf5" && strings.Contains(b.Consequence, "wrong B-tree signature") {
			found = true
		}
	}
	if !found {
		t.Errorf("bug #14 (B-tree split signature) missing; bugs: %v", bugStrings(rep))
	}
}

func TestPaperBug15CDFCreate(t *testing.T) {
	// NetCDF's eager open turns any corrupt object into "cannot open the
	// file (HDF5 error -101)".
	for _, fsName := range []string{"beegfs", "lustre"} {
		rep := runCell(t, fsName, "CDF-create")
		found := false
		for _, st := range rep.States {
			if strings.Contains(st.Consequence, "Errno -101") {
				found = true
			}
		}
		if !found {
			t.Errorf("bug #15 (-101 unopenable) missing on %s", fsName)
		}
	}
}

func TestPaperBug9H5ParallelCreate(t *testing.T) {
	// Multiple clients creating datasets split the symbol table node; the
	// group B-tree update and heap must persist in the right order.
	rep := runCell(t, "beegfs", "H5-parallel-create")
	if rep.Inconsistent == 0 || rep.LibOnly == 0 {
		t.Fatalf("H5-parallel-create: %d inconsistent (%d lib)", rep.Inconsistent, rep.LibOnly)
	}
	found := false
	for _, b := range rep.Bugs {
		if strings.Contains(b.OpA+b.OpB, "h5:btree:/g1") || strings.Contains(b.OpA+b.OpB, "h5:snod:/g1") {
			found = true
		}
	}
	if !found {
		t.Errorf("bug #9 family missing; bugs: %v", bugStrings(rep))
	}
}

// --- Cross-layer attribution (paper §6.3.3) --------------------------------

func TestPaperAttributionSplit(t *testing.T) {
	// H5-delete's bug belongs to HDF5; its PFS states remain causal-legal
	// on Lustre (every inconsistent state is library-only there).
	rep := runCell(t, "lustre", "H5-delete")
	if rep.Inconsistent == 0 || rep.Inconsistent != rep.LibOnly {
		t.Errorf("H5-delete on lustre: %d inconsistent, %d lib-only; want all lib-only",
			rep.Inconsistent, rep.LibOnly)
	}
	// On ext4 every library inconsistency is library-rooted too.
	rep = runCell(t, "ext4", "H5-create")
	if rep.Inconsistent != rep.LibOnly {
		t.Errorf("H5-create on ext4: %d inconsistent, %d lib-only", rep.Inconsistent, rep.LibOnly)
	}
}

// --- Exploration strategies find the same bugs (paper §6.4) ----------------

func TestModesFindSameBugs(t *testing.T) {
	// POSIX programs: both strategies report identical bug sets. The
	// library programs may drop redundant manifestations under pruning
	// (the paper's rule skips scenarios already explained by a known
	// pair), so there the pruned set must be a non-empty subset.
	for _, tc := range []struct {
		prog  string
		exact bool
	}{{"ARVR", true}, {"WAL", true}, {"H5-delete", false}} {
		prog, _ := ProgramByName(tc.prog)
		sets := map[paracrash.Mode]map[string]bool{}
		for _, mode := range []paracrash.Mode{paracrash.ModeBrute, paracrash.ModePruning} {
			opts := paracrash.DefaultOptions()
			opts.Mode = mode
			rep, err := RunOne("beegfs", prog, opts, workloads.DefaultH5Params(), ConfigFor("beegfs"))
			if err != nil {
				t.Fatal(err)
			}
			set := map[string]bool{}
			for _, b := range rep.Bugs {
				// Server indices are placement artifacts; the cause is the
				// class pair.
				set[b.Kind.String()+"|"+stripServerIndex(b.OpA)+"|"+stripServerIndex(b.OpB)] = true
			}
			sets[mode] = set
		}
		brute, got := sets[paracrash.ModeBrute], sets[paracrash.ModePruning]
		if len(got) == 0 {
			t.Errorf("%s: pruning found no bugs", tc.prog)
			continue
		}
		for sig := range got {
			if !brute[sig] {
				t.Errorf("%s: pruning found %q that brute-force missed", tc.prog, sig)
			}
		}
		if tc.exact && len(got) != len(brute) {
			t.Errorf("%s: pruning found %d bugs, brute %d", tc.prog, len(got), len(brute))
		}
	}
}

// TestPruningReducesWork: the pruning strategy checks strictly fewer states
// and restores strictly fewer servers (paper §6.4).
func TestPruningReducesWork(t *testing.T) {
	res, err := Speedups("beegfs", "ARVR", workloads.DefaultH5Params())
	if err != nil {
		t.Fatal(err)
	}
	if res.PrunedStates >= res.BruteStates {
		t.Errorf("pruning checked %d states, brute %d", res.PrunedStates, res.BruteStates)
	}
	if res.PrunedRestores >= res.BruteRestores {
		t.Errorf("pruning restored %d servers, brute %d", res.PrunedRestores, res.BruteRestores)
	}
	if res.BruteBugs != res.PrunedBugs {
		t.Errorf("strategies found different bug counts: %d/%d", res.BruteBugs, res.PrunedBugs)
	}
}

func bugStrings(rep *paracrash.Report) []string {
	var out []string
	for _, b := range rep.Bugs {
		out = append(out, b.Kind.String()+": "+b.OpA+" -> "+b.OpB+" ["+b.Layer+"]")
	}
	return out
}
