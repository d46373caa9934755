package hdf5

import (
	"strings"
	"testing"
)

func newTestFile(t *testing.T) (*File, *MemBackend) {
	t.Helper()
	be := &MemBackend{}
	f, err := Format(be)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	return f, be
}

func TestFormatAndParse(t *testing.T) {
	f, be := newTestFile(t)
	if err := f.CreateGroup("/g1"); err != nil {
		t.Fatal(err)
	}
	if err := f.CreateDataset("/g1/d1", 4, 4); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteDataset("/g1/d1", []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st := Parse(be.Buf, false)
	if !st.Readable() {
		t.Fatalf("not readable: %s", st.Serialize())
	}
	s := st.Serialize()
	if !strings.Contains(s, "group /g1") || !strings.Contains(s, "dataset /g1/d1 4x4") {
		t.Fatalf("unexpected state:\n%s", s)
	}
	data, err := f.ReadDataset("/g1/d1")
	if err != nil || string(data) != "0123456789abcdef" {
		t.Fatalf("read back: %q %v", data, err)
	}
}

func TestResizeSplitsChunkTree(t *testing.T) {
	f, be := newTestFile(t)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(f.CreateGroup("/g1"))
	must(f.CreateDataset("/g1/d1", 4, 4))
	must(f.Resize("/g1/d1", 10, 10)) // 100 bytes -> 7 chunks -> split
	must(f.Close())
	st := Parse(be.Buf, false)
	if !st.Readable() {
		t.Fatalf("not readable after resize: %s", st.Serialize())
	}
	if !strings.Contains(st.Serialize(), "dataset /g1/d1 10x10") {
		t.Fatalf("resize not visible: %s", st.Serialize())
	}
}

func TestDeleteAndMove(t *testing.T) {
	f, be := newTestFile(t)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(f.CreateGroup("/g1"))
	must(f.CreateGroup("/g2"))
	must(f.CreateDataset("/g1/d1", 4, 4))
	must(f.CreateDataset("/g2/d2", 4, 4))
	must(f.Move("/g1/d1", "/g2/dmoved"))
	must(f.Delete("/g2/d2"))
	must(f.Close())
	st := Parse(be.Buf, false)
	s := st.Serialize()
	if !st.Readable() {
		t.Fatalf("not readable: %s", s)
	}
	if strings.Contains(s, "/g1/d1") || strings.Contains(s, "/g2/d2") || !strings.Contains(s, "/g2/dmoved") {
		t.Fatalf("unexpected state:\n%s", s)
	}
}

func TestClearStatus(t *testing.T) {
	f, be := newTestFile(t)
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	// Reopen marks status, flush persists it.
	f2, err := Open(be)
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.Flush(); err != nil {
		t.Fatal(err)
	}
	if st, _ := Status(be.Buf); st == 0 {
		t.Fatal("status flag should be set while open")
	}
	img, changed := Clear(be.Buf, false)
	if !changed {
		t.Fatal("Clear should report a change")
	}
	if st, _ := Status(img); st != 0 {
		t.Fatal("status flag should be cleared")
	}
}

func TestSnodSplit(t *testing.T) {
	f, be := newTestFile(t)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(f.CreateGroup("/g1"))
	for i := 0; i < SnodCap+2; i++ {
		must(f.CreateDataset("/g1/d"+string(rune('a'+i)), 4, 4))
	}
	must(f.Close())
	st := Parse(be.Buf, false)
	if !st.Readable() {
		t.Fatalf("not readable after snod split: %s", st.Serialize())
	}
	if got := len(st.Objects); got != 2+SnodCap+2 { // root, g1, datasets
		t.Fatalf("object count = %d, state:\n%s", got, st.Serialize())
	}
}

func TestInspect(t *testing.T) {
	f, be := newTestFile(t)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(f.CreateGroup("/g1"))
	must(f.CreateDataset("/g1/d1", 4, 4))
	must(f.Close())
	m, err := Inspect(be.Buf)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, e := range m {
		kinds[e.Kind]++
	}
	for _, k := range []string{"superblock", "ohdr", "btree", "heap", "snod", "chunk"} {
		if kinds[k] == 0 {
			t.Errorf("object map missing kind %q: %+v", k, kinds)
		}
	}
}

// TestLookupCarriesParentGroupFields pins how object headers decode today.
// decodeObject merges into the value it is given (json.Unmarshal keeps the
// fields a payload omits), and lookup decodes every header along the path
// into one objectHeader. So a dataset's header comes back carrying its
// parent group's Btree and Heap, and Resize writes that merged header back
// to the file. File images, and with them verdicts, depend on this: a
// decode memo, or any decoder that replaces instead of merging, changes it,
// and must do so on purpose, in a change that regenerates the goldens.
func TestLookupCarriesParentGroupFields(t *testing.T) {
	f, _ := newTestFile(t)
	if err := f.CreateGroup("/g1"); err != nil {
		t.Fatal(err)
	}
	if err := f.CreateDataset("/g1/d1", 4, 4); err != nil {
		t.Fatal(err)
	}
	_, group, err := f.lookup("/g1")
	if err != nil || group.Btree == 0 || group.Heap == 0 {
		t.Fatalf("group header %+v, %v", group, err)
	}
	addr, oh, err := f.lookup("/g1/d1")
	if err != nil {
		t.Fatal(err)
	}
	var own objectHeader
	if err := decodeObject(f.img, addr, SigOhdr, OhdrSize, &own); err != nil {
		t.Fatal(err)
	}
	if own.Btree != 0 || own.Heap != 0 {
		t.Fatalf("the dataset's own header has group fields: %+v", own)
	}
	if oh.Group || oh.Btree != group.Btree || oh.Heap != group.Heap || oh.Rows != 4 || oh.Cols != 4 {
		t.Fatalf("lookup returned %+v, want the dataset's fields merged over the group's Btree %d and Heap %d",
			oh, group.Btree, group.Heap)
	}
	if err := f.Resize("/g1/d1", 10, 10); err != nil {
		t.Fatal(err)
	}
	var written objectHeader
	if err := decodeObject(f.img, addr, SigOhdr, OhdrSize, &written); err != nil {
		t.Fatal(err)
	}
	if written.Btree != group.Btree || written.Heap != group.Heap || written.Rows != 10 || written.Cols != 10 {
		t.Fatalf("Resize wrote %+v, want the merged header with 10x10", written)
	}
}
