package paracrash

import (
	"bytes"
	"slices"
	"testing"

	"paracrash/internal/blockdev"
	"paracrash/internal/causality"
	"paracrash/internal/trace"
	"paracrash/internal/vfs"
)

// imageFixture is one server's ops and its image-key part, built the way
// newReconstructor builds every server's.
type imageFixture struct {
	t   *testing.T
	ops []*trace.Op
	sv  imageServer
}

func newImageFixture(t *testing.T, initial *blockdev.Dev, payloads ...any) *imageFixture {
	t.Helper()
	f := &imageFixture{t: t}
	idx := make([]int, len(payloads))
	for i, p := range payloads {
		f.ops = append(f.ops, &trace.Op{ID: i, Proc: "server", Payload: p})
		idx[i] = i
	}
	f.sv = newImageServer(f.ops, idx, initial)
	return f
}

// image returns the server's image key and canonical kept sequence for the
// kept ops.
func (f *imageFixture) image(kept ...int) (string, []int) {
	keep := causality.NewBitset(len(f.ops))
	for _, i := range kept {
		keep.Set(i)
	}
	key := make([]byte, f.sv.n)
	f.sv.put(key, keep)
	return string(key), f.sv.sequence(key, nil)
}

// sameImage requires kept sets a and b to share an image key and to bring
// the canonical sequence want.
func (f *imageFixture) sameImage(a, b []int, want []int) {
	f.t.Helper()
	ka, sa := f.image(a...)
	kb, sb := f.image(b...)
	if ka != kb {
		f.t.Errorf("kept sets %v and %v leave the same image but key %x and %x", a, b, ka, kb)
	}
	if !slices.Equal(sa, want) || !slices.Equal(sb, want) {
		f.t.Errorf("kept sets %v and %v bring %v and %v, want %v", a, b, sa, sb, want)
	}
}

// otherImage requires kept sets a and b to have different image keys.
func (f *imageFixture) otherImage(a, b []int) {
	f.t.Helper()
	ka, _ := f.image(a...)
	kb, _ := f.image(b...)
	if ka == kb {
		f.t.Errorf("kept sets %v and %v leave different images but share key %x", a, b, ka)
	}
}

func write(lba int64, data string) blockdev.Op {
	return blockdev.Op{Kind: blockdev.OpWrite, LBA: lba, Data: []byte(data)}
}

// TestImageKeyShadowedWrite: a kept write shadowed by a later kept write to
// the same LBA leaves no trace in the image, so it neither changes the key
// nor is replayed; a write whose payload another write to the slot already
// carries is replayed as that class's first write.
func TestImageKeyShadowedWrite(t *testing.T) {
	f := newImageFixture(t, nil, write(5, "a"), write(5, "b"), write(5, "a"), write(9, "c"))
	f.sameImage([]int{0, 1}, []int{1}, []int{1})
	f.sameImage([]int{1, 2}, []int{0}, []int{0})
	f.sameImage([]int{2}, []int{0}, []int{0})
	f.sameImage([]int{1, 3}, []int{0, 1, 3}, []int{1, 3})
	f.otherImage([]int{0}, []int{1})
	f.otherImage([]int{0, 1}, []int{1, 0, 2})
	f.otherImage(nil, []int{3})
}

// TestImageKeyInitialBlock: a write whose bytes equal the initial block at
// its LBA leaves the initial image, also when it shadows an earlier write,
// so it keys as no write and is never replayed; a write to an LBA the initial device lacks changes the image
// even when its payload is empty.
func TestImageKeyInitialBlock(t *testing.T) {
	initial := blockdev.New()
	initial.Write(5, []byte("x"))
	f := newImageFixture(t, initial, write(5, "x"), write(5, "y"), write(5, "x"), write(7, ""))
	f.sameImage([]int{0}, nil, nil)
	f.sameImage([]int{1, 2}, nil, nil)
	f.sameImage([]int{0, 1}, []int{1}, []int{1})
	f.otherImage(nil, []int{3})
}

// TestImageKeySyncs: scsi_sync and vfs fsync change no store, so keeping
// them changes no key and they are never replayed.
func TestImageKeySyncs(t *testing.T) {
	block := newImageFixture(t, nil, write(1, "a"), blockdev.Op{Kind: blockdev.OpSync}, write(2, "b"))
	block.sameImage([]int{0, 1}, []int{0}, []int{0})
	block.sameImage([]int{0, 1, 2}, []int{0, 2}, []int{0, 2})

	fs := newImageFixture(t, nil,
		vfs.Op{Kind: vfs.OpCreate, Path: "/f"},
		vfs.Op{Kind: vfs.OpSync, Path: "/f"},
		vfs.Op{Kind: vfs.OpAppend, Path: "/f", Data: []byte("d")},
		vfs.Op{Kind: vfs.OpSync, Path: "/f"})
	fs.sameImage([]int{0, 1, 2, 3}, []int{0, 2}, []int{0, 2})
	fs.sameImage([]int{1, 3}, nil, nil)
	fs.otherImage([]int{0}, []int{2})
}

// TestImageKeyWideVFS: a vfs server's part is a bitset over its non-sync
// ops, so a server with more than 64 of them keys every one: kept sets that
// differ in any single op differ in key, and the canonical sequence is the
// kept non-sync ops in trace order.
func TestImageKeyWideVFS(t *testing.T) {
	var payloads []any
	for i := range 150 {
		if i%10 == 9 {
			payloads = append(payloads, vfs.Op{Kind: vfs.OpSync, Path: "/d"})
			continue
		}
		payloads = append(payloads, vfs.Op{Kind: vfs.OpMkdir, Path: "/d" + string(rune('a'+i%26))})
	}
	f := newImageFixture(t, nil, payloads...)
	if f.sv.n*8 < 135 {
		t.Fatalf("part holds %d bits for 135 non-sync ops", f.sv.n*8)
	}
	var all, nonSync []int
	for i := range payloads {
		all = append(all, i)
		if i%10 != 9 {
			nonSync = append(nonSync, i)
		}
	}
	f.sameImage(all, nonSync, nonSync)
	base, _ := f.image(all...)
	for _, drop := range nonSync {
		kept := slices.DeleteFunc(slices.Clone(all), func(i int) bool { return i == drop })
		key, seq := f.image(kept...)
		if key == base {
			t.Fatalf("dropping op %d leaves the key unchanged", drop)
		}
		if slices.Contains(seq, drop) || len(seq) != len(nonSync)-1 {
			t.Fatalf("dropping op %d brings %d ops (contains it: %t)", drop, len(seq), slices.Contains(seq, drop))
		}
	}
	if empty, _ := f.image(); !bytes.Equal([]byte(empty), make([]byte, f.sv.n)) {
		t.Fatal("the empty kept set does not key as the initial image")
	}
}
