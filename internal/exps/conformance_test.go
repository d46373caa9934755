package exps

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"paracrash/internal/blockdev"
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
)

// TestClientConformance drives the same operation sequence through every
// file system's client and checks the mounted logical namespace, exercising
// striping, rename/replace, unlink, directories and fsync on each
// implementation.
func TestClientConformance(t *testing.T) {
	for _, fsName := range FSNames() {
		t.Run(fsName, func(t *testing.T) {
			fs, err := NewFS(fsName, ConfigFor(fsName), trace.NewRecorder())
			if err != nil {
				t.Fatal(err)
			}
			c := fs.Client(0)
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			must(c.Mkdir("/dir"))
			must(c.Create("/dir/a"))
			// Multi-stripe content (larger than the 128-byte stripe).
			content := bytes.Repeat([]byte("0123456789abcdef"), 20) // 320 bytes
			must(c.WriteAt("/dir/a", 0, content))
			must(c.Fsync("/dir/a"))
			must(c.Close("/dir/a"))
			must(c.Create("/dir/b"))
			must(c.WriteAt("/dir/b", 0, []byte("bee")))
			must(c.Close("/dir/b"))
			// Replace b with a.
			must(c.Rename("/dir/a", "/dir/b"))
			must(c.Create("/gone"))
			must(c.Close("/gone"))
			must(c.Unlink("/gone"))

			// Read-back through the client.
			got, err := c.Read("/dir/b")
			must(err)
			if !bytes.Equal(got, content) {
				t.Fatalf("read after rename: %d bytes, want %d", len(got), len(content))
			}

			// Mounted namespace.
			if err := fs.Recover(); err != nil {
				t.Fatalf("Recover on a clean state: %v", err)
			}
			tree, err := fs.Mount()
			must(err)
			want := pfs.NewTree()
			want.AddDir("/dir")
			want.AddFile("/dir/b", content)
			if d := tree.Diff(want); d != "" {
				t.Fatalf("mounted tree differs:\n%s\ngot:\n%s", d, tree.Serialize())
			}

			// Overwrite part of a stripe and append via Append.
			must(c.WriteAt("/dir/b", 130, []byte("ZZ")))
			must(c.Append("/dir/b", []byte("tail")))
			got, err = c.Read("/dir/b")
			must(err)
			if len(got) != len(content)+4 || got[130] != 'Z' || string(got[len(got)-4:]) != "tail" {
				t.Fatalf("overwrite/append wrong: len=%d byte130=%q tail=%q",
					len(got), got[130], got[len(got)-4:])
			}

			// Errors: operating on missing files.
			if err := c.WriteAt("/nope", 0, []byte("x")); err == nil {
				t.Error("write to missing file should fail")
			}
			if err := c.Unlink("/nope"); err == nil {
				t.Error("unlink of missing file should fail")
			}
			if _, err := c.Read("/nope"); err == nil {
				t.Error("read of missing file should fail")
			}
		})
	}
}

// TestSnapshotRestoreRoundTrip verifies every file system's state
// restoration: after arbitrary operations, Restore returns the mounted
// tree to the snapshot exactly.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	for _, fsName := range FSNames() {
		t.Run(fsName, func(t *testing.T) {
			fs, err := NewFS(fsName, ConfigFor(fsName), trace.NewRecorder())
			if err != nil {
				t.Fatal(err)
			}
			c := fs.Client(0)
			if err := c.Create("/base"); err != nil {
				t.Fatal(err)
			}
			if err := c.WriteAt("/base", 0, []byte("before")); err != nil {
				t.Fatal(err)
			}
			snap := fs.Snapshot()
			treeBefore, err := fs.Mount()
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Create("/extra"); err != nil {
				t.Fatal(err)
			}
			if err := c.WriteAt("/base", 0, []byte("after!")); err != nil {
				t.Fatal(err)
			}
			fs.Restore(snap)
			treeAfter, err := fs.Mount()
			if err != nil {
				t.Fatal(err)
			}
			if treeBefore.Serialize() != treeAfter.Serialize() {
				t.Fatalf("restore mismatch:\n%s\nvs\n%s", treeBefore.Serialize(), treeAfter.Serialize())
			}
		})
	}
}

// TestDirectoriesAcrossServers exercises nested directories, which the
// metadata-server implementations distribute round-robin.
func TestDirectoriesAcrossServers(t *testing.T) {
	for _, fsName := range FSNames() {
		t.Run(fsName, func(t *testing.T) {
			fs, err := NewFS(fsName, ConfigFor(fsName), trace.NewRecorder())
			if err != nil {
				t.Fatal(err)
			}
			c := fs.Client(0)
			for i := 0; i < 4; i++ {
				d := fmt.Sprintf("/d%d", i)
				if err := c.Mkdir(d); err != nil {
					t.Fatal(err)
				}
				if err := c.Create(d + "/f"); err != nil {
					t.Fatal(err)
				}
				if err := c.WriteAt(d+"/f", 0, []byte{byte('0' + i)}); err != nil {
					t.Fatal(err)
				}
			}
			tree, err := fs.Mount()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				e, ok := tree.Entries[fmt.Sprintf("/d%d/f", i)]
				if !ok || string(e.Data) != string(byte('0'+i)) {
					t.Fatalf("missing or wrong /d%d/f in:\n%s", i, tree.Serialize())
				}
			}
		})
	}
}

// TestMountedTreeOwnsData: a mounted tree owns its file contents, so client
// ops applied after the mount (overwrites in place, appends, new files)
// leave it as it was; a second mount sees them.
func TestMountedTreeOwnsData(t *testing.T) {
	for _, fsName := range FSNames() {
		t.Run(fsName, func(t *testing.T) {
			fs, err := NewFS(fsName, ConfigFor(fsName), trace.NewRecorder())
			if err != nil {
				t.Fatal(err)
			}
			c := fs.Client(0)
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			must(c.Create("/f"))
			must(c.WriteAt("/f", 0, bytes.Repeat([]byte("0123456789abcdef"), 20)))
			must(c.Fsync("/f"))
			must(c.Close("/f"))
			first, err := fs.Mount()
			must(err)
			before := first.Serialize()

			must(c.WriteAt("/f", 0, bytes.Repeat([]byte("Z"), 200)))
			must(c.Append("/f", []byte("tail")))
			must(c.Create("/g"))
			must(c.WriteAt("/g", 0, []byte("gee")))
			must(c.Close("/g"))
			second, err := fs.Mount()
			must(err)

			if got := first.Serialize(); got != before {
				t.Fatalf("client ops after the mount changed the mounted tree:\n%s\nwas:\n%s", got, before)
			}
			if second.Serialize() == before {
				t.Fatal("the second mount does not see the client ops")
			}
		})
	}
}

// TestBlockWritesShareOneCopy: a block write is copied once, and the device
// and the trace's scsi_write payload share that copy; replaying the trace
// installs the payloads themselves. Neither side may change the other: a
// device reconstructed from the trace and then written on (recovery, more
// client ops) leaves every payload and every earlier snapshot
// byte-identical, and the caller's buffer is free to reuse.
func TestBlockWritesShareOneCopy(t *testing.T) {
	for _, fsName := range []string{"gpfs", "lustre"} {
		t.Run(fsName, func(t *testing.T) {
			fs, err := NewFS(fsName, ConfigFor(fsName), trace.NewRecorder())
			if err != nil {
				t.Fatal(err)
			}
			c := fs.Client(0)
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			initial := fs.Snapshot()
			buf := bytes.Repeat([]byte("0123456789abcdef"), 20)
			must(c.Create("/f"))
			must(c.WriteAt("/f", 0, buf))
			must(c.Fsync("/f"))
			must(c.Close("/f"))
			// A block the file system never reads, written straight through
			// the server from a buffer the caller goes on to reuse.
			srv := fs.(interface{ Block(string) *pfs.BlockServer }).Block(fs.Procs()[0])
			srv.Write(fs.Recorder(), 900000, buf, "data")
			traced := fs.Snapshot()
			want := serializeDevs(traced)
			for i := range buf {
				buf[i] = 'X'
			}

			var writes []*trace.Op
			var payloads [][]byte
			for _, op := range fs.Recorder().Ops() {
				if p, ok := op.Payload.(blockdev.Op); ok && p.Kind == blockdev.OpWrite {
					writes = append(writes, op)
					payloads = append(payloads, bytes.Clone(p.Data))
				}
			}
			if len(writes) == 0 {
				t.Fatal("no scsi_write traced")
			}

			// Reconstruct from the trace, snapshot, then write on.
			fs.Restore(initial)
			for _, op := range writes {
				must(fs.ApplyLowermost(op))
			}
			if got := serializeDevs(fs.Snapshot()); got != want {
				t.Fatalf("replayed trace differs from the traced devices:\n%s\nwant:\n%s", got, want)
			}
			replayed := fs.Snapshot()
			must(fs.Recover())
			must(c.WriteAt("/f", 0, bytes.Repeat([]byte("Z"), 200)))
			must(c.Append("/f", []byte("tail")))
			must(c.Create("/g"))
			must(c.WriteAt("/g", 0, []byte("gee")))
			must(c.Close("/g"))

			for i, op := range writes {
				if got := op.Payload.(blockdev.Op).Data; !bytes.Equal(got, payloads[i]) {
					t.Fatalf("payload of %s changed by later writes", op)
				}
			}
			for name, st := range map[string]*pfs.State{"traced": traced, "replayed": replayed} {
				if got := serializeDevs(st); got != want {
					t.Fatalf("%s snapshot changed by later writes:\n%s\nwant:\n%s", name, got, want)
				}
			}
		})
	}
}

// serializeDevs renders every block device of st with its blocks' bytes.
func serializeDevs(st *pfs.State) string {
	procs := make([]string, 0, len(st.Dev))
	for proc := range st.Dev {
		procs = append(procs, proc)
	}
	sort.Strings(procs)
	var b strings.Builder
	for _, proc := range procs {
		d := st.Dev[proc]
		for _, lba := range d.LBAs() {
			blk, _ := d.View(lba)
			fmt.Fprintf(&b, "%s %d %q\n", proc, lba, blk)
		}
	}
	return b.String()
}
