package hdf5

import (
	"bytes"
	"encoding/binary"
	"maps"
	"slices"
	"testing"
)

func stateBytes(f *File) []byte {
	var b bytes.Buffer
	f.WriteState(&b)
	return b.Bytes()
}

// appendState is the one-shot form WriteState replaced, kept as its
// reference: replay digests hash these bytes.
func appendState(f *File, b []byte) []byte {
	addrs := make([]int64, 0, len(f.dirty))
	for a := range f.dirty {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(f.img)))
	b = append(b, f.img...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(addrs)))
	for _, a := range addrs {
		d := f.dirty[a]
		b = binary.LittleEndian.AppendUint64(b, uint64(a))
		b = binary.LittleEndian.AppendUint64(b, uint64(d.size))
		b = binary.LittleEndian.AppendUint64(b, uint64(len(d.tag)))
		b = append(b, d.tag...)
	}
	for _, v := range []int64{f.sup.Root, f.sup.EOF, int64(f.sup.Status)} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// TestWriteStateMatchesAppendState: WriteState writes exactly the bytes the
// one-shot form appended, with and without dirty extents.
func TestWriteStateMatchesAppendState(t *testing.T) {
	f, _ := newTestFile(t)
	steps := []func() error{
		func() error { return nil },
		func() error { return f.CreateGroup("/g1") },
		func() error { return f.CreateDataset("/g1/d1", 4, 4) },
		f.Flush,
		func() error { return f.WriteDataset("/g1/d1", []byte("0123456789abcdef")) },
		f.Close,
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatal(err)
		}
		if got, want := stateBytes(f), appendState(f, nil); !bytes.Equal(got, want) {
			t.Fatalf("step %d (%d dirty extents): WriteState wrote %d bytes, the one-shot form %d", i, len(f.dirty), len(got), len(want))
		}
	}
}

// TestCloneIsolation: writes and flushes through a clone never reach the
// original's image, dirty set, state bytes or backend, and the reverse.
func TestCloneIsolation(t *testing.T) {
	f, be := newTestFile(t)
	if err := f.CreateGroup("/g1"); err != nil {
		t.Fatal(err)
	}
	img, dirty, state, buf := f.Image(), maps.Clone(f.dirty), stateBytes(f), bytes.Clone(be.Buf)

	cbe := &MemBackend{Buf: bytes.Clone(be.Buf)}
	c := f.Clone(cbe)
	if !bytes.Equal(stateBytes(c), state) {
		t.Fatal("a fresh clone's state differs from the original's")
	}
	if err := c.CreateDataset("/g1/d1", 4, 4); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteDataset("/g1/d1", []byte("0123456789abcdef")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Image(), img) || !maps.Equal(f.dirty, dirty) || !bytes.Equal(stateBytes(f), state) || !bytes.Equal(be.Buf, buf) {
		t.Fatal("mutating the clone changed the original")
	}
	if bytes.Equal(stateBytes(c), state) {
		t.Fatal("the clone's state bytes did not move with its writes")
	}

	cimg := c.Image()
	if err := f.CreateGroup("/g2"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.Image(), cimg) {
		t.Fatal("mutating the original changed the clone")
	}
}

// TestWriteStateSeesDirtySet: two files with equal images and superblocks
// but different dirty sets write different state bytes; flushing both
// makes them equal again.
func TestWriteStateSeesDirtySet(t *testing.T) {
	f, _ := newTestFile(t)
	if err := f.CreateDataset("/d", 4, 4); err != nil {
		t.Fatal(err)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	a := f.Clone(&MemBackend{})
	b := f.Clone(&MemBackend{})
	// Writing the fill value changes no byte of the image, only the dirty set.
	if err := b.WriteDataset("/d", make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Image(), b.Image()) {
		t.Fatal("fixture: writing zeros over a fresh dataset changed the image")
	}
	if bytes.Equal(stateBytes(a), stateBytes(b)) {
		t.Fatal("states differing only in the dirty set write the same bytes")
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stateBytes(a), stateBytes(b)) {
		t.Fatal("flushed files with equal images write different state bytes")
	}
}
