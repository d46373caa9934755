package exps

import (
	"errors"
	"strings"
	"testing"

	"paracrash/internal/paracrash"
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

// TestFig8Shape asserts the headline shape of the Figure 8 matrix.
func TestFig8Shape(t *testing.T) {
	res := Fig8(paracrash.DefaultOptions(), workloads.DefaultH5Params())
	posix := []string{"ARVR", "CR", "RC", "WAL"}
	libProgs := []string{"H5-create", "H5-delete", "H5-rename", "CDF-create"}

	for _, prog := range posix {
		// ext4 and Lustre are clean on every POSIX program.
		for _, fsName := range []string{"ext4", "lustre"} {
			if c := res.Cells[prog][fsName]; c.Err != "" || c.Inconsistent != 0 {
				t.Errorf("%s on %s: %+v, want clean", prog, fsName, c)
			}
		}
	}
	// BeeGFS breaks on every POSIX program.
	for _, prog := range posix {
		if c := res.Cells[prog]["beegfs"]; c.Inconsistent == 0 {
			t.Errorf("%s on beegfs found nothing", prog)
		}
	}
	// Every file system shows library-level inconsistencies (the Figure 8
	// line plots) on the library programs.
	for _, prog := range libProgs {
		for _, fsName := range res.FS {
			if c := res.Cells[prog][fsName]; c.Err != "" || c.LibOnly == 0 {
				t.Errorf("%s on %s: no library-only inconsistencies (%+v)", prog, fsName, c)
			}
		}
	}
	// The rendered table mentions every program.
	out := res.Format()
	for _, prog := range res.Programs {
		if !strings.Contains(out, prog) {
			t.Errorf("Format missing %q", prog)
		}
	}
}

// TestFig10Shape asserts the strategy ordering the paper reports: pruning
// never checks more states or restores more servers than brute force, and
// never loses every bug brute force finds.
func TestFig10Shape(t *testing.T) {
	rows := Fig10(workloads.DefaultH5Params())
	if len(rows) == 0 {
		t.Fatal("no measurements")
	}
	type key struct{ prog, fs string }
	byMode := map[key]map[paracrash.Mode]Fig10Row{}
	for _, r := range rows {
		k := key{r.Program, r.FS}
		if byMode[k] == nil {
			byMode[k] = map[paracrash.Mode]Fig10Row{}
		}
		byMode[k][r.Mode] = r
	}
	for k, m := range byMode {
		brute, okB := m[paracrash.ModeBrute]
		prune, okP := m[paracrash.ModePruning]
		if !okB || !okP {
			continue
		}
		if prune.Stats.StatesChecked > brute.Stats.StatesChecked {
			t.Errorf("%v: pruning checked more states than brute (%d > %d)",
				k, prune.Stats.StatesChecked, brute.Stats.StatesChecked)
		}
		if prune.Stats.ServerRestores > brute.Stats.ServerRestores {
			t.Errorf("%v: pruning restored more servers than brute (%d > %d)",
				k, prune.Stats.ServerRestores, brute.Stats.ServerRestores)
		}
		if brute.Bugs > 0 && prune.Bugs == 0 {
			t.Errorf("%v: pruning lost all bugs", k)
		}
	}
	if out := FormatFig10(rows); !strings.Contains(out, "brute-force") {
		t.Error("FormatFig10 output malformed")
	}
}

// TestFig11Shape asserts the scalability trend: checked states grow with
// the server count but stay far from combinatorial, and the bug families
// do not change with scale (paper §6.4).
func TestFig11Shape(t *testing.T) {
	rows := Fig11([]int{4, 8, 16}, workloads.DefaultH5Params())
	if len(rows) == 0 {
		t.Fatal("no measurements")
	}
	type key struct{ prog, fs string }
	series := map[key][]Fig11Row{}
	for _, r := range rows {
		k := key{r.Program, r.FS}
		series[k] = append(series[k], r)
	}
	for k, s := range series {
		if len(s) != 3 {
			t.Errorf("%v: %d points", k, len(s))
			continue
		}
		if s[2].States < s[0].States {
			t.Errorf("%v: states shrank with servers: %d -> %d", k, s[0].States, s[2].States)
		}
		// Linear-ish, not combinatorial: 4x servers may grow the states by
		// at most ~8x here.
		if s[0].States > 0 && s[2].States > 8*s[0].States {
			t.Errorf("%v: superlinear state growth %d -> %d", k, s[0].States, s[2].States)
		}
		if s[0].Bugs != s[2].Bugs {
			t.Errorf("%v: bug count changed with scale: %d -> %d (paper found no new bugs)",
				k, s[0].Bugs, s[2].Bugs)
		}
	}
}

// brokenRecoveryFS wraps a file system with a Recover that fails once —
// the unrecoverable-file-system path of the checking workflow (Figure 6's
// "recoverable?" branch).
type brokenRecoveryFS struct {
	pfs.FileSystem
	failures int
}

func (b *brokenRecoveryFS) Recover() error {
	if b.failures > 0 {
		b.failures--
		return errors.New("injected: fsck cannot repair the volume")
	}
	return b.FileSystem.Recover()
}

func TestUnrecoverableFileSystemIsReported(t *testing.T) {
	inner, err := NewFS("beegfs", ConfigFor("beegfs"), trace.NewRecorder())
	if err != nil {
		t.Fatal(err)
	}
	fs := &brokenRecoveryFS{FileSystem: inner, failures: 1 << 30}
	rep, err := paracrash.Run(fs, nil, workloads.ARVR(), paracrash.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Inconsistent == 0 {
		t.Fatal("unrecoverable states not reported")
	}
	found := false
	for _, st := range rep.States {
		if strings.Contains(st.Consequence, "unrecoverable") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no unrecoverable consequence in %+v", rep.States)
	}
}

// TestPassThroughWrapperChangesNothing: wrapping a backend in an
// interface-embedding struct must not change what the engine does — the
// per-server capture/restore the reconstructor needs is part of
// pfs.FileSystem, not a capability a wrapper silently hides. The whole
// report, effort stats included, equals the bare backend's.
func TestPassThroughWrapperChangesNothing(t *testing.T) {
	run := func(wrap bool) string {
		fs, err := NewFS("beegfs", ConfigFor("beegfs"), trace.NewRecorder())
		if err != nil {
			t.Fatal(err)
		}
		if wrap {
			fs = &brokenRecoveryFS{FileSystem: fs}
		}
		rep, err := paracrash.Run(fs, nil, workloads.ARVR(), paracrash.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return ReportFingerprint(rep)
	}
	if bare, wrapped := run(false), run(true); bare != wrapped {
		t.Errorf("wrapped backend reports differently:\n--- bare ---\n%s--- wrapped ---\n%s", bare, wrapped)
	}
}

// TestTraceDumpAndJSON exercises the Figure 2/9 trace tooling.
func TestTraceDumpAndJSON(t *testing.T) {
	prog, _ := ProgramByName("ARVR")
	dump, err := traceDump("beegfs", prog, workloads.DefaultH5Params())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"meta/0:", "storage/", "rename", "creat"} {
		if !strings.Contains(dump, want) {
			t.Errorf("trace dump missing %q", want)
		}
	}
	raw, err := Spec{FS: "beegfs", Program: prog, H5: workloads.DefaultH5Params(), Config: ConfigFor("beegfs")}.TraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	ops, err := trace.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) < 10 {
		t.Fatalf("decoded %d ops", len(ops))
	}
	// The serialised trace drives the same causality analysis.
	replayable := 0
	for _, o := range ops {
		if o.Payload != nil {
			replayable++
		}
	}
	if replayable == 0 {
		t.Fatal("serialised trace lost the replayable payloads")
	}
}

// TestFig9Output checks the cross-file-system trace comparison renders the
// per-PFS sections.
func TestFig9Output(t *testing.T) {
	out := Fig9(workloads.DefaultH5Params())
	for _, want := range []string{"beegfs", "orangefs", "glusterfs", "gpfs",
		"keyval.db", "scsi_write", "link", "stranded"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig9 output missing %q", want)
		}
	}
}
