package orangefs

import (
	"fmt"
	"strings"
	"testing"

	"paracrash/internal/pfs"
	"paracrash/internal/trace"
)

func newFS(t *testing.T) *FS {
	t.Helper()
	return New(pfs.DefaultConfig(), trace.NewRecorder())
}

func TestEveryDBWriteIsSynced(t *testing.T) {
	// Figure 9b: each database page write is followed by an fdatasync.
	f := newFS(t)
	c := f.Client(0)
	if err := c.Create("/foo"); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	ops := f.Recorder().Ops()
	for i, o := range ops {
		if o.Name != "pwrite" || !strings.HasPrefix(o.Path, "/db/") {
			continue
		}
		if i+1 >= len(ops) || ops[i+1].Name != "fdatasync" || ops[i+1].Path != o.Path {
			t.Fatalf("DB write #%d not followed by fdatasync: next=%v", o.ID, ops[i+1])
		}
	}
}

func TestDBScanNewestWinsAndSkipsTornPages(t *testing.T) {
	f := newFS(t)
	c := f.Client(0)
	if err := c.Create("/a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	// The dentry for /a was rewritten (tombstone has a higher seq).
	if _, ok := f.dbGet(0, "keyval.db", "d:root:a"); ok {
		t.Fatal("tombstoned key still visible")
	}
	if _, ok := f.dbGet(0, "keyval.db", "d:root:b"); !ok {
		t.Fatal("renamed key missing")
	}
	// Failure injection: tear a page (overwrite half with garbage) — the
	// scan must skip it without failing.
	m := f.meta(0).FS
	if err := m.WriteAt("/db/keyval.db", 0, []byte("garbage-not-json")); err != nil {
		t.Fatal(err)
	}
	recs := f.dbScan(0, "keyval.db")
	for k := range recs {
		if !strings.HasPrefix(k, "d:") {
			t.Fatalf("torn page leaked record %q", k)
		}
	}
}

func TestStrandedBstreamRecovery(t *testing.T) {
	// pvfs2-fsck renames a stranded bstream back when the database still
	// references its file ID (the crash before the metadata commit).
	f := newFS(t)
	c := f.Client(0)
	if err := c.Create("/foo"); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteAt("/foo", 0, []byte("precious")); err != nil {
		t.Fatal(err)
	}
	fr, err := f.resolveFile("/foo")
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the stranding step persisting without the commit.
	for i := 0; i < f.conf.StorageServers; i++ {
		s := f.storage(i).FS
		if s.Exists("/bstreams/" + fr.fid + ".bstream") {
			if err := s.Rename("/bstreams/"+fr.fid+".bstream", "/bstreams/stranded-"+fr.fid); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := f.Recover(); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read("/foo")
	if err != nil || string(got) != "precious" {
		t.Fatalf("stranded bstream not recovered: %q, %v", got, err)
	}
}

func TestStrandedOrphanRemoved(t *testing.T) {
	// A stranded bstream whose file ID is no longer referenced is deleted.
	f := newFS(t)
	s := f.storage(0).FS
	if err := s.Create("/bstreams/stranded-f99"); err != nil {
		t.Fatal(err)
	}
	if err := f.Recover(); err != nil {
		t.Fatal(err)
	}
	if s.Exists("/bstreams/stranded-f99") {
		t.Fatal("orphaned stranded bstream not removed")
	}
}

func TestSameDirRenameIsOneTransaction(t *testing.T) {
	// A rename within one directory commits both dentry records in a
	// single page write (Berkeley DB transaction).
	f := newFS(t)
	c := f.Client(0)
	if err := c.Create("/a"); err != nil {
		t.Fatal(err)
	}
	rec := f.Recorder()
	before := len(rec.Ops())
	if err := c.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	keyvalWrites := 0
	for _, o := range rec.Ops()[before:] {
		if o.Name == "pwrite" && o.Path == "/db/keyval.db" {
			keyvalWrites++
		}
	}
	if keyvalWrites != 1 {
		t.Fatalf("same-dir rename used %d keyval writes, want 1 (transactional)", keyvalWrites)
	}
}

func TestMountWalksNestedDirs(t *testing.T) {
	f := newFS(t)
	c := f.Client(0)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.Mkdir("/d1"))
	must(c.Mkdir("/d1/d2"))
	must(c.Create("/d1/d2/f"))
	must(c.WriteAt("/d1/d2/f", 0, []byte("deep")))
	tree, err := f.Mount()
	must(err)
	e, ok := tree.Entries["/d1/d2/f"]
	if !ok || string(e.Data) != "deep" {
		t.Fatalf("nested mount wrong:\n%s", tree.Serialize())
	}
}

func TestUndecodablePageStaysSkippedOnMemoHit(t *testing.T) {
	// A page whose second record fails to decode: the whole page is lost,
	// including the first record, on the first scan and on memo hits.
	f := newFS(t)
	const bad = `[{"k":"d:root:ghost","v":"{}","seq":99},{"k":"x","seq":"bad"}]`
	m := f.meta(0).FS
	size, err := m.Size("/db/keyval.db")
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, PageSize)
	copy(page, bad)
	if err := m.WriteAt("/db/keyval.db", size, page); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, ok := f.dbScan(0, "keyval.db")["d:root:ghost"]; ok {
			t.Fatalf("scan %d: a record of an undecodable page is visible", i)
		}
	}
	if recs, hit := f.pages[bad]; !hit || recs != nil {
		t.Fatalf("undecodable page memoised as %v (hit %v), want nil", recs, hit)
	}
}

func TestPageMemoCap(t *testing.T) {
	for _, n := range []int{maxPages - 1, maxPages, maxPages + 1} {
		f := newFS(t)
		for i := 0; i < n; i++ {
			recs := f.decodePage([]byte(fmt.Sprintf(`[{"k":"k%d","seq":1}]`, i)))
			if len(recs) != 1 || recs[0].K != fmt.Sprintf("k%d", i) {
				t.Fatalf("n=%d: page %d decoded to %v", n, i, recs)
			}
		}
		want := n
		if n > maxPages {
			want = n - maxPages // cleared on overflow, then the last page
		}
		if len(f.pages) != want {
			t.Errorf("n=%d: memo holds %d pages, want %d", n, len(f.pages), want)
		}
	}
}
