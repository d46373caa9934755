package beegfs

import (
	"strings"
	"testing"

	"paracrash/internal/pfs"
	"paracrash/internal/trace"
)

func newFS(t *testing.T) *FS {
	t.Helper()
	return New(pfs.DefaultConfig(), trace.NewRecorder())
}

func TestMetadataLayout(t *testing.T) {
	f := newFS(t)
	c := f.Client(0)
	if err := c.Create("/foo"); err != nil {
		t.Fatal(err)
	}
	// The dentry is a hard link to the idfile on the owning meta server
	// (Figure 2's link(idfile, dentries/...)).
	m := f.Meta(0).FS
	dentry := "/dentries/root/foo"
	if !m.Exists(dentry) {
		t.Fatal("dentry missing on meta/0")
	}
	tv, _ := m.GetXattr(dentry, "t")
	if string(tv) != "f" {
		t.Fatalf("dentry type = %q", tv)
	}
	fid, _ := m.GetXattr(dentry, "id")
	if !m.Exists("/inodes/" + string(fid)) {
		t.Fatal("idfile missing")
	}
	// Writing through either name is visible through the other (hard link).
	if err := m.SetXattr(dentry, "probe", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if v, ok := m.GetXattr("/inodes/"+string(fid), "probe"); !ok || string(v) != "x" {
		t.Fatal("dentry is not a hard link to the idfile")
	}
}

func TestStripingAcrossStorageServers(t *testing.T) {
	conf := pfs.DefaultConfig()
	conf.FilePlacement = map[string]int{"/big": 0}
	f := New(conf, trace.NewRecorder())
	c := f.Client(0)
	if err := c.Create("/big"); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 300) // 3 stripes of 128
	for i := range data {
		data[i] = byte(i)
	}
	if err := c.WriteAt("/big", 0, data); err != nil {
		t.Fatal(err)
	}
	// Chunks exist on both storage servers.
	fr, err := f.resolveFile("/big")
	if err != nil {
		t.Fatal(err)
	}
	// Stripes 0 (128B) and 2 (44B) land on server 0; stripe 1 on server 1.
	s0, _ := f.Storage(0).FS.Size("/chunks/" + fr.fid)
	s1, _ := f.Storage(1).FS.Size("/chunks/" + fr.fid)
	if s0 != 172 || s1 != 128 {
		t.Fatalf("chunk sizes = %d, %d; want 172, 128", s0, s1)
	}
	got, err := c.Read("/big")
	if err != nil || string(got) != string(data) {
		t.Fatalf("striped read back mismatch (%d bytes)", len(got))
	}
}

func TestFsckDropsCorruptDentries(t *testing.T) {
	f := newFS(t)
	c := f.Client(0)
	if err := c.Create("/ok"); err != nil {
		t.Fatal(err)
	}
	// Inject a dentry with no parseable metadata (as a crash state could
	// leave behind).
	m := f.Meta(0).FS
	if err := m.Create("/dentries/root/corrupt"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Mount(); err == nil {
		t.Fatal("mount should fail on a corrupt dentry")
	}
	if err := f.Recover(); err != nil {
		t.Fatal(err)
	}
	tree, err := f.Mount()
	if err != nil {
		t.Fatalf("mount after fsck: %v", err)
	}
	if _, ok := tree.Entries["/corrupt"]; ok {
		t.Fatal("fsck kept the corrupt dentry")
	}
	if _, ok := tree.Entries["/ok"]; !ok {
		t.Fatal("fsck dropped a healthy file")
	}
}

func TestFsckMaterialisesMissingDirContainers(t *testing.T) {
	f := newFS(t)
	c := f.Client(0)
	if err := c.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash that persisted the dentry but not the container.
	dr, err := f.resolveDir("/d")
	if err != nil {
		t.Fatal(err)
	}
	ofs := f.Meta(dr.owner).FS
	if err := ofs.Rmdir("/dentries/" + dr.id); err != nil {
		t.Fatal(err)
	}
	if err := f.Recover(); err != nil {
		t.Fatal(err)
	}
	if !ofs.IsDir("/dentries/" + dr.id) {
		t.Fatal("fsck did not re-create the dentries container")
	}
	if _, err := f.Mount(); err != nil {
		t.Fatalf("mount after fsck: %v", err)
	}
}

func TestRenameReplaceRemovesOldChunks(t *testing.T) {
	f := newFS(t)
	c := f.Client(0)
	for _, p := range []string{"/a", "/b"} {
		if err := c.Create(p); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteAt(p, 0, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	oldB, _ := f.resolveFile("/b")
	if err := c.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < f.Conf.StorageServers; i++ {
		if f.Storage(i).FS.Exists("/chunks/" + oldB.fid) {
			t.Fatal("replaced file's chunk not removed")
		}
	}
	got, _ := c.Read("/b")
	if string(got) != "/a" {
		t.Fatalf("rename content: %q", got)
	}
}

func TestTraceMatchesFigure2Shape(t *testing.T) {
	// The ARVR rename path must issue the Figure 2 operations: a dentry
	// rename and idfile update on the metadata server, then the chunk
	// unlink on storage.
	f := newFS(t)
	rec := f.Recorder()
	c := f.Client(0)
	rec.SetEnabled(false)
	if err := c.Create("/foo"); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteAt("/foo", 0, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := c.Create("/tmp"); err != nil {
		t.Fatal(err)
	}
	rec.SetEnabled(true)
	if err := c.Rename("/tmp", "/foo"); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, o := range rec.Ops() {
		if o.Payload != nil {
			names = append(names, o.Name+"("+o.Tag+")@"+o.Proc)
		}
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"rename(dentry)@meta", "unlink(idfile)@meta", "unlink(chunk)@storage"} {
		if !strings.Contains(joined, want) {
			t.Errorf("rename trace missing %q: %v", want, names)
		}
	}
}

func TestDirPlacementOverride(t *testing.T) {
	conf := pfs.DefaultConfig()
	conf.DirPlacement = map[string]int{"/pinned": 1}
	f := New(conf, trace.NewRecorder())
	c := f.Client(0)
	if err := c.Mkdir("/pinned"); err != nil {
		t.Fatal(err)
	}
	dr, err := f.resolveDir("/pinned")
	if err != nil {
		t.Fatal(err)
	}
	if dr.owner != 1 {
		t.Fatalf("pinned dir owner = %d, want 1", dr.owner)
	}
}

// TestCorruptBaseSurfacesAsInconsistency pins the parse-error fix: a base
// xattr that does not parse to a valid storage index must surface through
// resolveFile and Mount instead of silently reading as server 0, and fsck
// must drop the unrepairable dentry.
func TestCorruptBaseSurfacesAsInconsistency(t *testing.T) {
	for _, corrupt := range []string{"garbage", "-1", "7", ""} {
		t.Run("base="+corrupt, func(t *testing.T) {
			f := newFS(t)
			c := f.Client(0)
			if err := c.Create("/ok"); err != nil {
				t.Fatal(err)
			}
			if err := c.Create("/victim"); err != nil {
				t.Fatal(err)
			}
			m := f.Meta(0).FS
			if err := m.SetXattr("/dentries/root/victim", "base", []byte(corrupt)); err != nil {
				t.Fatal(err)
			}
			if _, err := f.resolveFile("/victim"); err == nil {
				t.Fatal("resolveFile must reject a corrupt base target")
			}
			if _, err := f.Mount(); err == nil {
				t.Fatal("mount must fail on a corrupt base target")
			}
			if err := f.Recover(); err != nil {
				t.Fatal(err)
			}
			tree, err := f.Mount()
			if err != nil {
				t.Fatalf("mount after fsck: %v", err)
			}
			if _, ok := tree.Entries["/victim"]; ok {
				t.Fatal("fsck kept the dentry with the corrupt base")
			}
			if _, ok := tree.Entries["/ok"]; !ok {
				t.Fatal("fsck dropped a healthy file")
			}
		})
	}
}

// TestFsckDropsNegativeOwner extends the owner-range check: a negative
// owner index must be treated as corruption, not an index into the servers.
func TestFsckDropsNegativeOwner(t *testing.T) {
	f := newFS(t)
	c := f.Client(0)
	if err := c.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	m := f.Meta(0).FS
	if err := m.SetXattr("/dentries/root/d", "owner", []byte("-2")); err != nil {
		t.Fatal(err)
	}
	if err := f.Recover(); err != nil {
		t.Fatal(err)
	}
	tree, err := f.Mount()
	if err != nil {
		t.Fatalf("mount after fsck: %v", err)
	}
	if _, ok := tree.Entries["/d"]; ok {
		t.Fatal("fsck kept the dentry with the negative owner")
	}
}

func TestCrossOwnerRenameReplacesExistingTarget(t *testing.T) {
	// POSIX rename overwrites an existing destination; the cross-owner path
	// used to fail with "link: exists" because it linked the new dentry in
	// without removing the replaced file (found by the fuzz campaign's
	// generator conformance matrix).
	f := newFS(t)
	c := f.Client(0)
	for _, d := range []string{"/d0", "/d1"} {
		if err := c.Mkdir(d); err != nil {
			t.Fatal(err)
		}
	}
	src, err := f.resolveDir("/d0")
	if err != nil {
		t.Fatal(err)
	}
	dst, err := f.resolveDir("/d1")
	if err != nil {
		t.Fatal(err)
	}
	if src.owner == dst.owner {
		t.Fatalf("fixture: both directories owned by meta %d, need a cross-owner pair", src.owner)
	}
	for p, data := range map[string]string{"/d0/src": "source-bytes", "/d1/dst": "old-target"} {
		if err := c.Create(p); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteAt(p, 0, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	oldDst, err := f.resolveFile("/d1/dst")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Rename("/d0/src", "/d1/dst"); err != nil {
		t.Fatalf("cross-owner rename over existing target: %v", err)
	}
	got, err := c.Read("/d1/dst")
	if err != nil || string(got) != "source-bytes" {
		t.Fatalf("destination after rename: %q, %v", got, err)
	}
	if _, err := f.resolveFile("/d0/src"); err == nil {
		t.Fatal("source still resolvable after rename")
	}
	for i := 0; i < f.Conf.StorageServers; i++ {
		if f.Storage(i).FS.Exists("/chunks/" + oldDst.fid) {
			t.Fatal("replaced file's chunks not removed")
		}
	}
}
