package vfs

import (
	"strings"
	"testing"
)

// TestSerializeDanglingNameMarker is the regression test for the silent-skip
// bug: a name whose inode is missing must not serialize identically to a
// state without the name, or representative classes merge distinct states.
func TestSerializeDanglingNameMarker(t *testing.T) {
	fs := New()
	if err := fs.Create("/a"); err != nil {
		t.Fatal(err)
	}
	healthy := fs.Serialize()
	healthyHash := fs.Hash()

	// Corrupt the state below the public API: keep the name, drop the inode.
	ino, _ := fs.names.Get("/a")
	fs.inodes = fs.inodes.Delete(ino)

	corrupt := fs.Serialize()
	if corrupt == healthy {
		t.Fatal("corrupt state serializes identically to healthy state")
	}
	if !strings.Contains(corrupt, "! /a DANGLING-NAME") {
		t.Fatalf("missing corruption marker in:\n%s", corrupt)
	}
	if fs.Hash() == healthyHash {
		t.Fatal("corrupt state hashes identically to healthy state")
	}

	// And it must differ from the state where the name never existed.
	empty := New()
	if corrupt == empty.Serialize() {
		t.Fatal("corrupt state serializes identically to name-free state")
	}
}

// TestRestoreAliasing proves Restore is a safe O(1) adoption: writes after
// a restore must never leak into the source snapshot or into sibling file
// systems restored from the same snapshot.
func TestRestoreAliasing(t *testing.T) {
	fs := New()
	if err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteAt("/f", 0, []byte("original")); err != nil {
		t.Fatal(err)
	}
	if err := fs.SetXattr("/f", "user.tag", []byte("one")); err != nil {
		t.Fatal(err)
	}
	snap := fs.Snapshot()
	want := snap.Serialize()

	// Two siblings adopt the same snapshot.
	a, b := New(), New()
	a.Restore(snap)
	b.Restore(snap)

	// Mutate a through every in-place path: data write, append, truncate,
	// xattr set/remove, create-truncate, link, unlink.
	if err := a.WriteAt("/f", 0, []byte("CLOBBER!")); err != nil {
		t.Fatal(err)
	}
	if err := a.Append("/f", []byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := a.SetXattr("/f", "user.tag", []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := a.Create("/g"); err != nil {
		t.Fatal(err)
	}
	if err := a.Link("/f", "/hard"); err != nil {
		t.Fatal(err)
	}
	if err := a.Truncate("/f", 2); err != nil {
		t.Fatal(err)
	}
	if err := a.RemoveXattr("/f", "user.tag"); err != nil {
		t.Fatal(err)
	}
	if got := snap.Serialize(); got != want {
		t.Fatalf("snapshot mutated through restored FS:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if got := b.Serialize(); got != want {
		t.Fatalf("sibling mutated through restored FS:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if data, err := b.Read("/f"); err != nil || string(data) != "original" {
		t.Fatalf("sibling content changed: %q, %v", data, err)
	}

	// The mutated side must see its own writes.
	if data, _ := a.Read("/f"); string(data) != "CL" {
		t.Fatalf("mutated side lost its writes: %q", data)
	}
}

// TestSnapshotChainAliasing walks a chain of snapshot → mutate → snapshot
// and verifies every captured generation stays frozen.
func TestSnapshotChainAliasing(t *testing.T) {
	fs := New()
	if err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	var snaps []*FS
	var wants []string
	for gen := 0; gen < 8; gen++ {
		if err := fs.Append("/f", []byte{byte('a' + gen)}); err != nil {
			t.Fatal(err)
		}
		s := fs.Snapshot()
		snaps = append(snaps, s)
		wants = append(wants, s.Serialize())
	}
	// Mutate live heavily, then restore an old generation and mutate again.
	for i := 0; i < 20; i++ {
		if err := fs.WriteAt("/f", int64(i), []byte("zz")); err != nil {
			t.Fatal(err)
		}
	}
	fs.Restore(snaps[2])
	if err := fs.Append("/f", []byte("XX")); err != nil {
		t.Fatal(err)
	}
	for i, s := range snaps {
		if got := s.Serialize(); got != wants[i] {
			t.Fatalf("generation %d mutated:\nwant:\n%s\ngot:\n%s", i, wants[i], got)
		}
	}
}

// TestSnapshotAllocsO1 is the CI guard that Snapshot stays O(1): it must
// not scale with file count or file size. One allocation for the FS header
// is expected; a small constant headroom keeps the guard robust.
func TestSnapshotAllocsO1(t *testing.T) {
	fs := New()
	for i := 0; i < 500; i++ {
		p := "/f" + string(rune('a'+i%26)) + "/" + itoa(i)
		dir, _ := Split(p)
		if err := fs.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := fs.Create(p); err != nil {
			t.Fatal(err)
		}
		if err := fs.WriteAt(p, 0, make([]byte, 256)); err != nil {
			t.Fatal(err)
		}
	}
	var sink *FS
	allocs := testing.AllocsPerRun(100, func() {
		sink = fs.Snapshot()
	})
	_ = sink
	if allocs > 2 {
		t.Fatalf("Snapshot allocates %.1f objects on a 500-file FS; want O(1)", allocs)
	}
	snap := fs.Snapshot()
	allocs = testing.AllocsPerRun(100, func() {
		fs.Restore(snap)
	})
	if allocs > 1 {
		t.Fatalf("Restore allocates %.1f objects; want O(1)", allocs)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}
