package shareddisk

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"paracrash/internal/pfs"
	"paracrash/internal/trace"
)

func newGPFS(t *testing.T) *FS {
	t.Helper()
	conf := pfs.DefaultConfig()
	conf.MetaServers = 0
	conf.StorageServers = 2
	return New(conf, Policy{FSName: "gpfs"}, trace.NewRecorder())
}

func newLustre(t *testing.T) *FS {
	t.Helper()
	conf := pfs.DefaultConfig()
	return New(conf, Policy{FSName: "lustre", Barriers: true, ReplayLog: true}, trace.NewRecorder())
}

func TestTransactionWritesLogFirst(t *testing.T) {
	f := newGPFS(t)
	c := f.Client(0)
	if err := c.Create("/foo"); err != nil {
		t.Fatal(err)
	}
	var tags []string
	for _, o := range f.Recorder().Ops() {
		if o.Name == "scsi_write" {
			tags = append(tags, o.Tag)
		}
	}
	if len(tags) == 0 || tags[0] != "log" {
		t.Fatalf("first block write should be the log record, got %v", tags)
	}
	joined := strings.Join(tags, " ")
	for _, want := range []string{"inode", "dir_entries", "alloc_map"} {
		if !strings.Contains(joined, want) {
			t.Errorf("create transaction missing a %s write: %v", want, tags)
		}
	}
}

func TestLustreEmitsBarriers(t *testing.T) {
	f := newLustre(t)
	c := f.Client(0)
	if err := c.Create("/foo"); err != nil {
		t.Fatal(err)
	}
	syncs := 0
	for _, o := range f.Recorder().Ops() {
		if o.Name == "scsi_sync" {
			syncs++
		}
	}
	if syncs == 0 {
		t.Fatal("Lustre must issue SCSI barriers")
	}
	// GPFS must not.
	g := newGPFS(t)
	if err := g.Client(0).Create("/foo"); err != nil {
		t.Fatal(err)
	}
	for _, o := range g.Recorder().Ops() {
		if o.Name == "scsi_sync" {
			t.Fatal("GPFS must not issue barriers")
		}
	}
}

func TestJournalReplayRestoresLostInPlaceWrites(t *testing.T) {
	// Drop an in-place metadata write, keep the log: Lustre's journal
	// replay reconstructs it.
	f := newLustre(t)
	c := f.Client(0)
	if err := c.Create("/foo"); err != nil {
		t.Fatal(err)
	}
	// Erase the parent's entries block (as if the in-place write was lost).
	root := f.owner(1)
	f.server(root).Dev.Erase(entriesLBA(1))
	if err := f.Recover(); err != nil {
		t.Fatal(err)
	}
	tree, err := f.Mount()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tree.Entries["/foo"]; !ok {
		t.Fatalf("journal replay lost /foo:\n%s", tree.Serialize())
	}
}

// TestJournalReplayInstallsOnlyChangedBlocks: redo replay over an image
// whose in-place writes all persisted writes nothing — every block is the
// one it was, not merely equal bytes — and over an image that lost them it
// re-installs exactly the logged images.
func TestJournalReplayInstallsOnlyChangedBlocks(t *testing.T) {
	f := newLustre(t)
	c := f.Client(0)
	for _, op := range []func() error{
		func() error { return c.Mkdir("/d") },
		func() error { return c.Create("/d/a") },
		func() error { return c.Create("/b") },
		func() error { return c.Rename("/b", "/d/b") },
	} {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	}
	type block struct {
		srv int
		lba int64
	}
	images := map[block][]byte{}
	for i := 0; i < f.servers(); i++ {
		f.server(i).Dev.Range(func(lba int64, data []byte) bool {
			images[block{i, lba}] = data
			return true
		})
	}
	var logged []block
	for b := range images {
		if b.lba < lbaLog {
			continue
		}
		rec, ok := readBlock[logRecord](f, b.srv, b.lba)
		if !ok {
			t.Fatalf("log block %v unreadable", b)
		}
		for _, w := range rec.Writes {
			logged = append(logged, block{w.Srv, w.LBA})
		}
	}
	if len(logged) == 0 {
		t.Fatal("no logged write")
	}
	snap := f.Snapshot()

	if err := f.Recover(); err != nil {
		t.Fatal(err)
	}
	for b, want := range images {
		got, ok := f.server(b.srv).Dev.View(b.lba)
		if !ok || &got[0] != &want[0] {
			t.Fatalf("replay over a fully persisted image rewrote block %v", b)
		}
	}

	f.Restore(snap)
	for _, b := range logged {
		f.server(b.srv).Dev.Erase(b.lba)
	}
	if err := f.Recover(); err != nil {
		t.Fatal(err)
	}
	for _, b := range logged {
		got, ok := f.server(b.srv).Dev.View(b.lba)
		if !ok || !bytes.Equal(got, images[b]) {
			t.Fatalf("replay did not re-install block %v: %q, want %q", b, got, images[b])
		}
	}
}

func TestMmfsckDropsDanglingEntries(t *testing.T) {
	// GPFS's salvager removes entries whose inode block is gone — the
	// metadata-loss consequence of bug #3.
	f := newGPFS(t)
	c := f.Client(0)
	if err := c.Create("/foo"); err != nil {
		t.Fatal(err)
	}
	ino, err := f.resolve("/foo")
	if err != nil {
		t.Fatal(err)
	}
	f.server(f.owner(ino)).Dev.Erase(inodeLBA(ino))
	if _, err := f.Mount(); err == nil {
		t.Fatal("mount should fail on a dangling entry")
	}
	if err := f.Recover(); err != nil {
		t.Fatal(err)
	}
	tree, err := f.Mount()
	if err != nil {
		t.Fatalf("mount after mmfsck: %v", err)
	}
	if _, ok := tree.Entries["/foo"]; ok {
		t.Fatal("mmfsck kept the dangling entry")
	}
}

func TestMmfsckDropsUnallocatedInodes(t *testing.T) {
	// An entry whose inode is not in the allocation map is removed (the
	// "accept all fixes" policy).
	f := newGPFS(t)
	c := f.Client(0)
	if err := c.Create("/foo"); err != nil {
		t.Fatal(err)
	}
	ino, _ := f.resolve("/foo")
	owner := f.owner(ino)
	f.server(owner).Dev.Write(lbaAlloc, mustJSON(allocBlock{Used: []int{}}))
	if err := f.Recover(); err != nil {
		t.Fatal(err)
	}
	tree, _ := f.Mount()
	if _, ok := tree.Entries["/foo"]; ok {
		t.Fatal("unallocated inode's entry survived mmfsck")
	}
}

func TestDataStripingAndReadback(t *testing.T) {
	for _, mk := range []func(*testing.T) *FS{newGPFS, newLustre} {
		f := mk(t)
		c := f.Client(0)
		if err := c.Create("/big"); err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte("0123456789abcdef"), 20) // 320 bytes
		if err := c.WriteAt("/big", 0, data); err != nil {
			t.Fatal(err)
		}
		got, err := c.Read("/big")
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: striped read mismatch (%d bytes, err %v)", f.Name(), len(got), err)
		}
		// Data blocks must exist on both devices (striping).
		for i := 0; i < f.servers(); i++ {
			found := false
			for _, lba := range f.server(i).Dev.LBAs() {
				if lba >= lbaData && lba < lbaLog {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s: no data blocks on server %d", f.Name(), i)
			}
		}
	}
}

func TestRenameReplaceFreesInode(t *testing.T) {
	f := newGPFS(t)
	c := f.Client(0)
	for _, p := range []string{"/a", "/b"} {
		if err := c.Create(p); err != nil {
			t.Fatal(err)
		}
	}
	oldIno, _ := f.resolve("/b")
	if err := c.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	ab, ok := readBlock[allocBlock](f, f.owner(oldIno), lbaAlloc)
	if !ok {
		t.Fatal("alloc block unreadable")
	}
	for _, ino := range ab.Used {
		if ino == oldIno {
			t.Fatal("replaced inode still allocated")
		}
	}
	if fs := len(mustTree(t, f).Entries); fs != 1 {
		t.Fatalf("tree has %d entries, want 1", fs)
	}
}

func mustTree(t *testing.T, f *FS) *pfs.Tree {
	t.Helper()
	tree, err := f.Mount()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestRecoverLeavesMemoisedEntriesIntact(t *testing.T) {
	// mmfsck drops /foo from the root's entries block, whose decode is
	// memoised: the drop must not reach the memo, so the old bytes still
	// decode to a block listing /foo.
	f := newGPFS(t)
	if err := f.Client(0).Create("/foo"); err != nil {
		t.Fatal(err)
	}
	ino, err := f.resolve("/foo")
	if err != nil {
		t.Fatal(err)
	}
	root := f.owner(1)
	old, _ := f.server(root).Dev.Read(entriesLBA(1))
	f.server(f.owner(ino)).Dev.Erase(inodeLBA(ino))
	if err := f.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, ok := mustTree(t, f).Entries["/foo"]; ok {
		t.Fatal("mmfsck kept the dangling entry")
	}
	f.server(root).Dev.Write(entriesLBA(1), old)
	if ent, ok := readBlock[entriesBlock](f, root, entriesLBA(1)); !ok || ent.Entries["foo"] != ino {
		t.Fatalf("Recover changed the memoised decode of the old entries block: %v", ent.Entries)
	}
}

func TestUndecodableBlockStaysUnreadableOnMemoHit(t *testing.T) {
	f := newGPFS(t)
	const bad = `{"ino":"x"}` // not an inode block, but a valid superblock
	f.server(0).Dev.Write(inodeLBA(2), []byte(bad))
	for i := 0; i < 2; i++ {
		if _, ok := readBlock[inodeBlock](f, 0, inodeLBA(2)); ok {
			t.Fatalf("read %d: an undecodable inode block read as ok", i)
		}
	}
	if d, hit := f.memo[memoKey{reflect.TypeFor[inodeBlock](), bad}]; !hit || d.ok {
		t.Fatalf("failed decode memoised as %+v (hit %v), want a recorded failure", d, hit)
	}
	// The same bytes decoded as another type are a separate memo entry.
	if _, ok := readBlock[superBlock](f, 0, inodeLBA(2)); !ok {
		t.Fatal("the inode-block failure leaked to a superblock read of the same bytes")
	}
}

func TestDecodeMemoCap(t *testing.T) {
	for _, n := range []int{maxDecoded - 1, maxDecoded, maxDecoded + 1} {
		f := newGPFS(t)
		for i := 0; i < n; i++ {
			f.server(0).Dev.Write(inodeLBA(2), mustJSON(inodeBlock{Ino: 2, Size: int64(i)}))
			if in, ok := readBlock[inodeBlock](f, 0, inodeLBA(2)); !ok || in.Size != int64(i) {
				t.Fatalf("n=%d: decode %d read %+v, %v", n, i, in, ok)
			}
		}
		want := n
		if n > maxDecoded {
			want = n - maxDecoded // cleared on overflow, then the last decode
		}
		if len(f.memo) != want {
			t.Errorf("n=%d: memo holds %d decodes, want %d", n, len(f.memo), want)
		}
	}
}
