package trace

import (
	"strings"
	"testing"
)

func TestRecorderAssignsIDsFromOne(t *testing.T) {
	r := NewRecorder()
	a := r.Record(Op{Proc: "p", Name: "a"})
	b := r.Record(Op{Proc: "p", Name: "b"})
	if a.ID != 1 || b.ID != 2 {
		t.Fatalf("ids = %d, %d; want 1, 2", a.ID, b.ID)
	}
	if a.Parent != -1 {
		t.Fatalf("top-level op parent = %d, want -1", a.Parent)
	}
}

func TestPushPopCallerEdges(t *testing.T) {
	r := NewRecorder()
	outer := r.Push(Op{Proc: "p", Name: "outer"})
	inner := r.Record(Op{Proc: "p", Name: "inner"})
	if inner.Parent != outer.ID {
		t.Fatalf("inner.Parent = %d, want %d", inner.Parent, outer.ID)
	}
	nested := r.Push(Op{Proc: "p", Name: "nested"})
	deepest := r.Record(Op{Proc: "p", Name: "deepest"})
	if deepest.Parent != nested.ID {
		t.Fatalf("deepest.Parent = %d, want %d", deepest.Parent, nested.ID)
	}
	r.Pop("p")
	after := r.Record(Op{Proc: "p", Name: "after"})
	if after.Parent != outer.ID {
		t.Fatalf("after.Parent = %d, want %d", after.Parent, outer.ID)
	}
	r.Pop("p")
	top := r.Record(Op{Proc: "p", Name: "top"})
	if top.Parent != -1 {
		t.Fatalf("top.Parent = %d, want -1", top.Parent)
	}
}

func TestCallStacksArePerProc(t *testing.T) {
	r := NewRecorder()
	r.Push(Op{Proc: "p", Name: "p-outer"})
	q := r.Record(Op{Proc: "q", Name: "q-op"})
	if q.Parent != -1 {
		t.Fatalf("q's op picked up p's caller: parent=%d", q.Parent)
	}
}

func TestDisabledRecorder(t *testing.T) {
	r := NewRecorder()
	r.SetEnabled(false)
	op := r.Record(Op{Proc: "p", Name: "x"})
	if op == nil || op.ID != -1 {
		t.Fatalf("disabled Record should return sentinel op, got %+v", op)
	}
	if r.Len() != 0 {
		t.Fatal("disabled recorder stored an op")
	}
	// Push/Pop must stay balanced while disabled.
	r.Push(Op{Proc: "p", Name: "y"})
	r.Pop("p")
	r.SetEnabled(true)
	live := r.Record(Op{Proc: "p", Name: "z"})
	if live.Parent != -1 {
		t.Fatalf("stale caller leaked: parent=%d", live.Parent)
	}
}

// TestDisabledRecorderAllocatesNothing: while recording is off, Record and
// Push store nothing, copy no payload and allocate nothing — the preamble,
// the golden replay and every legal-state replay run with it off.
func TestDisabledRecorderAllocatesNothing(t *testing.T) {
	r := NewRecorder()
	r.SetEnabled(false)
	data := []byte("payload")
	var sink *Op
	if n := testing.AllocsPerRun(100, func() {
		sink = r.Record(Op{Proc: "p", Name: "pwrite", Data: data, Size: int64(len(data))})
	}); n != 0 {
		t.Fatalf("disabled Record: %.1f allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sink = r.Push(Op{Proc: "p", Name: "H5Dwrite", Data: data, Size: int64(len(data))})
		r.Pop("p")
	}); n != 0 {
		t.Fatalf("disabled Push/Pop: %.1f allocations, want 0", n)
	}
	if sink.ID != -1 || sink.Parent != -1 || sink.Data != nil || r.Len() != 0 {
		t.Fatalf("disabled recorder returned %+v and stored %d ops", sink, r.Len())
	}
}

// TestRecordOwnsData: a recorded op keeps its bytes when the caller reuses
// its buffer.
func TestRecordOwnsData(t *testing.T) {
	r := NewRecorder()
	data := []byte("abc")
	op := r.Record(Op{Proc: "p", Name: "pwrite", Data: data})
	pushed := r.Push(Op{Proc: "p", Name: "H5Dwrite", Data: data})
	copy(data, "xyz")
	if string(op.Data) != "abc" || string(pushed.Data) != "abc" {
		t.Fatalf("recorded data follows the caller's buffer: %q, %q", op.Data, pushed.Data)
	}
}

func TestMsgIDsArePositive(t *testing.T) {
	r := NewRecorder()
	if id := r.NewMsgID(); id <= 0 {
		t.Fatalf("NewMsgID = %d", id)
	}
	op := r.Record(Op{Proc: "p", Name: "x"})
	if op.IsComm() {
		t.Fatal("plain op must not be a communication")
	}
	send := r.Record(Op{Proc: "p", Name: "send", MsgID: r.NewMsgID(), IsSend: true})
	if !send.IsComm() {
		t.Fatal("send must be a communication")
	}
}

func TestResetKeepsIDsMonotonic(t *testing.T) {
	r := NewRecorder()
	a := r.Record(Op{Proc: "p", Name: "a"})
	r.Reset()
	b := r.Record(Op{Proc: "p", Name: "b"})
	if b.ID <= a.ID {
		t.Fatalf("IDs must stay monotonic across Reset: %d then %d", a.ID, b.ID)
	}
	if r.Len() != 1 {
		t.Fatalf("Reset did not clear ops: %d", r.Len())
	}
}

func TestFiltersAndProcs(t *testing.T) {
	r := NewRecorder()
	r.Record(Op{Proc: "b", Name: "x", Layer: LayerPFS})
	r.Record(Op{Proc: "a", Name: "y", Layer: LayerLocalFS})
	ops := r.Ops()
	pfsOps := Filter(ops, func(o *Op) bool { return o.Layer == LayerPFS })
	if len(pfsOps) != 1 || len(Filter(ops, (*Op).IsLowermost)) != 1 {
		t.Fatal("layer filters wrong")
	}
	procs := Procs(ops)
	if len(procs) != 2 || procs[0] != "a" {
		t.Fatalf("Procs = %v", procs)
	}
}

func TestKeyAndFormat(t *testing.T) {
	op := &Op{ID: 7, Proc: "storage/1", Name: "pwrite", Path: "/chunks/f1",
		Offset: 128, Size: 64, Tag: "chunk", Layer: LayerLocalFS}
	key := op.Key()
	for _, want := range []string{"pwrite", "/chunks/f1", "off=128", "@storage/1", "[chunk]"} {
		if !strings.Contains(key, want) {
			t.Errorf("Key %q missing %q", key, want)
		}
	}
	out := Format([]*Op{op})
	if !strings.Contains(out, "storage/1:") || !strings.Contains(out, "#7") {
		t.Errorf("Format output wrong:\n%s", out)
	}
}

func TestLayerString(t *testing.T) {
	for l, want := range map[Layer]string{
		LayerApp: "app", LayerIOLib: "iolib", LayerMPI: "mpi-io",
		LayerPFS: "pfs", LayerLocalFS: "localfs", LayerBlock: "block",
	} {
		if l.String() != want {
			t.Errorf("%d.String() = %q", int(l), l.String())
		}
	}
}
