package hdf5

import (
	"bytes"
	"maps"
	"testing"
)

func stateBytes(f *File) []byte { return f.AppendState(nil) }

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

// TestAppendStateSeesDirtySet: two files with equal images and superblocks
// but different dirty sets append different state bytes; flushing both
// makes them equal again.
func TestAppendStateSeesDirtySet(t *testing.T) {
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
		t.Fatal("states differing only in the dirty set append the same bytes")
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stateBytes(a), stateBytes(b)) {
		t.Fatal("flushed files with equal images append different state bytes")
	}
}
