package workloads

import (
	"strings"
	"testing"

	"paracrash/internal/pfs"
	"paracrash/internal/pfs/extfs"
	"paracrash/internal/stack"
	"paracrash/internal/trace"
)

func newExt4(t *testing.T) pfs.FileSystem {
	t.Helper()
	conf := pfs.DefaultConfig()
	conf.MetaServers = 0
	conf.StorageServers = 1
	return extfs.New(conf, trace.NewRecorder())
}

// runWorkload drives preamble + body and returns the mounted tree.
func runWorkload(t *testing.T, w interface {
	Preamble(pfs.FileSystem) error
	Run(pfs.FileSystem) error
}) (*pfs.Tree, pfs.FileSystem) {
	t.Helper()
	fs := newExt4(t)
	if err := w.Preamble(fs); err != nil {
		t.Fatal(err)
	}
	if err := w.Run(fs); err != nil {
		t.Fatal(err)
	}
	tree, err := fs.Mount()
	if err != nil {
		t.Fatal(err)
	}
	return tree, fs
}

func TestARVREndState(t *testing.T) {
	tree, _ := runWorkload(t, ARVR())
	e, ok := tree.Entries["/foo"]
	if !ok || !strings.HasPrefix(string(e.Data), "new") {
		t.Fatalf("ARVR end state wrong:\n%s", tree.Serialize())
	}
	if _, ok := tree.Entries["/tmp"]; ok {
		t.Fatal("tmp should be renamed away")
	}
}

func TestCREndState(t *testing.T) {
	tree, _ := runWorkload(t, CR())
	if _, ok := tree.Entries["/B/foo"]; !ok {
		t.Fatalf("CR end state wrong:\n%s", tree.Serialize())
	}
	if _, ok := tree.Entries["/A/foo"]; ok {
		t.Fatal("foo should have moved out of /A")
	}
}

func TestRCEndState(t *testing.T) {
	tree, _ := runWorkload(t, RC())
	if _, ok := tree.Entries["/B/foo"]; !ok {
		t.Fatalf("RC end state wrong:\n%s", tree.Serialize())
	}
	if _, ok := tree.Entries["/A"]; ok {
		t.Fatal("/A should have been renamed to /B")
	}
}

func TestWALEndState(t *testing.T) {
	tree, _ := runWorkload(t, WAL())
	if _, ok := tree.Entries["/log"]; ok {
		t.Fatal("the log should be unlinked at the end")
	}
	e, ok := tree.Entries["/foo"]
	if !ok || len(e.Data) != 128 || e.Data[0] != 'n' || e.Data[64] != 'N' {
		t.Fatalf("WAL end state wrong:\n%s", tree.Serialize())
	}
}

func TestH5WorkloadsEndStates(t *testing.T) {
	p := DefaultH5Params()
	cases := []struct {
		w        *H5Workload
		contains []string
		absent   []string
	}{
		{H5Create(p), []string{"dataset /g1/dnew 4x4"}, nil},
		{H5Delete(p), []string{"group /g1"}, []string{"/g1/d1"}},
		{H5Rename(p), []string{"dataset /g2/dren"}, []string{"/g1/d1"}},
		{H5Resize(p), []string{"dataset /g1/d1 8x8"}, nil},
		{CDFCreate(p), []string{"dataset /v1"}, nil},
		{CDFRename(p), []string{"/g1/vren"}, []string{"/g1/d1 "}},
	}
	for _, tc := range cases {
		t.Run(tc.w.Name(), func(t *testing.T) {
			fs := newExt4(t)
			if err := tc.w.Preamble(fs); err != nil {
				t.Fatal(err)
			}
			lib := tc.w.Library()
			tree, err := fs.Mount()
			if err != nil {
				t.Fatal(err)
			}
			if err := lib.Seed(tree); err != nil {
				t.Fatal(err)
			}
			if err := tc.w.Run(fs); err != nil {
				t.Fatal(err)
			}
			tree, err = fs.Mount()
			if err != nil {
				t.Fatal(err)
			}
			state, err := lib.StateFromTree(tree)
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range tc.contains {
				if !strings.Contains(state, want) {
					t.Errorf("state missing %q:\n%s", want, state)
				}
			}
			for _, bad := range tc.absent {
				if strings.Contains(state, bad) {
					t.Errorf("state still contains %q:\n%s", bad, state)
				}
			}
			if strings.Contains(state, "corrupt") || strings.Contains(state, "UNOPENABLE") {
				t.Errorf("clean run left corruption:\n%s", state)
			}
		})
	}
}

func TestParallelWorkloadsEndStates(t *testing.T) {
	p := DefaultH5Params()
	for _, w := range ParallelPrograms(p) {
		t.Run(w.Name(), func(t *testing.T) {
			fs := newExt4(t)
			if err := w.Preamble(fs); err != nil {
				t.Fatal(err)
			}
			if err := w.Run(fs); err != nil {
				t.Fatal(err)
			}
			tree, err := fs.Mount()
			if err != nil {
				t.Fatal(err)
			}
			lib := stack.NewLibrary(stack.DialectHDF5, FilePath)
			state, err := lib.StateFromTree(tree)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(state, "corrupt") {
				t.Fatalf("clean parallel run left corruption:\n%s", state)
			}
			if w.Name() == "H5-parallel-create" && !strings.Contains(state, "/g1/p1") {
				t.Fatalf("rank 1's dataset missing:\n%s", state)
			}
			if w.Name() == "H5-parallel-resize" && !strings.Contains(state, "8x8") {
				t.Fatalf("resize not visible:\n%s", state)
			}
		})
	}
}

func TestFig5ProgramRuns(t *testing.T) {
	w := Fig5Program()
	if w.Name() != "Fig5" {
		t.Fatal("name")
	}
	tree, _ := runWorkload(t, w.(interface {
		Preamble(pfs.FileSystem) error
		Run(pfs.FileSystem) error
	}))
	for _, f := range []string{"/f1", "/f2", "/f3"} {
		e, ok := tree.Entries[f]
		if !ok || len(e.Data) != 1 {
			t.Fatalf("file %s wrong:\n%s", f, tree.Serialize())
		}
	}
}

// ParallelPrograms returns the parallel library programs.
func ParallelPrograms(p H5Params) []*H5Workload {
	return []*H5Workload{H5ParallelCreate(p), H5ParallelResize(p)}
}

// TestH5ParamsValidate holds Validate to its bounds: Clients in [1, 16] and
// no negative dimension, each tested at the edge.
func TestH5ParamsValidate(t *testing.T) {
	for _, tc := range []struct {
		edit func(*H5Params)
		err  string // "" = valid
	}{
		{func(p *H5Params) {}, ""},
		{func(p *H5Params) { p.Clients = 1 }, ""},
		{func(p *H5Params) { p.Clients = maxClients }, ""},
		{func(p *H5Params) { p.Clients = maxClients + 1 }, "clients must be <= 16, got 17"},
		{func(p *H5Params) { p.Clients = 0 }, "clients must be >= 1, got 0"},
		{func(p *H5Params) { p.Rows, p.Cols, p.ResizeRows, p.ResizeCols = 0, 0, 0, 0 }, ""},
		{func(p *H5Params) { p.Rows = -1 }, "rows must be >= 0, got -1"},
		{func(p *H5Params) { p.Cols = -1 }, "cols must be >= 0, got -1"},
		{func(p *H5Params) { p.ResizeRows = -3 }, "resize-rows must be >= 0, got -3"},
		{func(p *H5Params) { p.ResizeCols = -2 }, "resize-cols must be >= 0, got -2"},
	} {
		p := DefaultH5Params()
		tc.edit(&p)
		err := p.Validate()
		if tc.err == "" && err != nil || tc.err != "" && (err == nil || err.Error() != tc.err) {
			t.Errorf("Validate(%+v) = %v, want %q", p, err, tc.err)
		}
	}
}
