package stack_test

import (
	"bytes"
	"testing"

	"paracrash/internal/exps"
	"paracrash/internal/stack"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

// tracedLibOps runs prog on ext4 and returns its seeded library adapter and
// the library ops it recorded, in recording order.
func tracedLibOps(t *testing.T, prog exps.Program) (*stack.Library, []*trace.Op) {
	t.Helper()
	fs, err := exps.NewFS("ext4", exps.ConfigFor("ext4"), trace.NewRecorder())
	if err != nil {
		t.Fatal(err)
	}
	w, l := prog.Make(workloads.DefaultH5Params())
	lib := l.(*stack.Library)
	rec := fs.Recorder()
	rec.SetEnabled(false)
	if err := w.Preamble(fs); err != nil {
		t.Fatal(err)
	}
	tree, err := fs.Mount()
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.Seed(tree); err != nil {
		t.Fatal(err)
	}
	rec.Reset()
	rec.SetEnabled(true)
	if err := w.Run(fs); err != nil {
		t.Fatal(err)
	}
	var ops []*trace.Op
	for _, o := range rec.Ops() {
		if o.Layer == trace.LayerIOLib && lib.IsLibOp(o) {
			ops = append(ops, o)
		}
	}
	if len(ops) < 3 {
		t.Fatalf("%s: %d library ops traced", prog.Name, len(ops))
	}
	return lib, ops
}

func legalState(t *testing.T, lib *stack.Library, st any) string {
	t.Helper()
	s, err := lib.LegalState(st)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestReplayIsFoldOfApply: for every prefix of every paper program's library
// ops, Replay equals Apply folded over the prefix from Start, and each Apply
// leaves the state it was given — digest and legal state — as it was.
func TestReplayIsFoldOfApply(t *testing.T) {
	for _, prog := range exps.Programs() {
		if prog.POSIX {
			continue
		}
		lib, ops := tracedLibOps(t, prog)
		st := lib.Start()
		for i := 0; i <= len(ops); i++ {
			want, err := lib.Replay(ops[:i])
			if err != nil {
				t.Fatal(err)
			}
			if got := legalState(t, lib, st); got != want {
				t.Fatalf("%s: prefix of %d ops: fold gives\n%s\nReplay gives\n%s", prog.Name, i, got, want)
			}
			if i == len(ops) {
				break
			}
			digest := lib.Digest(st)
			next := lib.Apply(st, ops[i])
			if lib.Digest(st) != digest || legalState(t, lib, st) != want {
				t.Fatalf("%s: applying op %d (%s) changed the state it was applied to", prog.Name, i, ops[i].Name)
			}
			st = next
		}
	}
}

// TestDigestIdentifiesState: op paths that reach the same file state get
// the same digest; states that differ only in what is still dirty get
// different ones, although they persist to the same legal state.
func TestDigestIdentifiesState(t *testing.T) {
	prog, err := exps.ProgramByName("H5-create")
	if err != nil {
		t.Fatal(err)
	}
	lib, ops := tracedLibOps(t, prog)
	open, closeOp := ops[0], ops[len(ops)-1]
	apply := func(path ...*trace.Op) any {
		st := lib.Start()
		for _, op := range path {
			st = lib.Apply(st, op)
		}
		return st
	}
	// A write to a dataset the state lacks is lost, and ops before the
	// open have no file to act on.
	lost := &trace.Op{Name: "H5Dwrite", Path: "/g1/missing", Data: []byte("x")}
	flush := &trace.Op{Name: "H5Fflush"}
	for _, tc := range []struct {
		name string
		a, b []*trace.Op
	}{
		{"lost write", []*trace.Op{open}, []*trace.Op{open, lost}},
		{"op before open", []*trace.Op{open}, []*trace.Op{closeOp, open}},
		{"second flush", []*trace.Op{open, flush}, []*trace.Op{open, flush, flush}},
	} {
		if lib.Digest(apply(tc.a...)) != lib.Digest(apply(tc.b...)) {
			t.Errorf("%s: equal states, different digests", tc.name)
		}
	}

	// Rewriting /g1/d1 with the bytes the preamble stored changes no byte
	// of the image, only the dirty set.
	fill := bytes.Repeat([]byte("1b"), 8)
	same := &trace.Op{Name: "H5Dwrite", Path: "/g1/d1", Data: fill}
	clean, dirty := apply(open, flush), apply(open, flush, same)
	if legalState(t, lib, clean) != legalState(t, lib, dirty) {
		t.Fatal("fixture: rewriting the stored bytes changed the legal state")
	}
	if lib.Digest(clean) == lib.Digest(dirty) {
		t.Error("states that differ only in the dirty set share a digest")
	}
}
