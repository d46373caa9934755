package paracrash_test

import (
	"fmt"
	"hash/fnv"

	"paracrash"
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
	"paracrash/internal/vfs"
)

// safeARVR is ARVR with an fsync barrier between the write and the rename:
// the fix application developers deploy against the paper's bug #1.
type safeARVR struct{}

func (safeARVR) Name() string { return "ARVR+fsync" }

func (safeARVR) Preamble(fs paracrash.FileSystem) error {
	c := fs.Client(0)
	if err := c.Create("/foo"); err != nil {
		return err
	}
	if err := c.WriteAt("/foo", 0, []byte("old-old-old-old-old!")); err != nil {
		return err
	}
	return c.Close("/foo")
}

func (safeARVR) Run(fs paracrash.FileSystem) error {
	c := fs.Client(0)
	if err := c.Create("/tmp"); err != nil {
		return err
	}
	if err := c.WriteAt("/tmp", 0, []byte("new-new-new-new-new!")); err != nil {
		return err
	}
	// The defensive barrier: persist the data before exposing it.
	if err := c.Fsync("/tmp"); err != nil {
		return err
	}
	if err := c.Close("/tmp"); err != nil {
		return err
	}
	return c.Rename("/tmp", "/foo")
}

// Example_customWorkload brings its own test program. A Workload is a
// preamble (initial state) plus a traced body driving the POSIX-like client
// API. The fsync pins the appended data before the rename can persist,
// closing bug #1. Bug #2 lives inside the file system and survives, and
// the checker notes that BeeGFS's remote fsync covers only the chunk data,
// not the metadata entry, so the synced file can still vanish wholesale
// (the link -> append reordering).
func Example_customWorkload() {
	for _, w := range []paracrash.Workload{paracrash.ARVR(), safeARVR{}} {
		rec := paracrash.NewRecorder()
		fs, err := paracrash.NewFileSystem("beegfs", paracrash.DefaultConfig(), rec)
		if err != nil {
			panic(err)
		}
		rep, err := paracrash.Run(fs, nil, w, paracrash.DefaultOptions())
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s on BeeGFS: %d inconsistent states, %d bugs\n", w.Name(), rep.Inconsistent, len(rep.Bugs))
		for _, b := range rep.Bugs {
			fmt.Printf("  %s: %s -> %s\n", b.Kind, b.OpA, b.OpB)
		}
	}
	// Output:
	// ARVR on BeeGFS: 2 inconsistent states, 2 bugs
	//   reordering: append(chunk)@storage#1 -> rename(dentry)@meta#0
	//   reordering: rename(dentry)@meta#0 -> unlink(chunk)@storage#0
	// ARVR+fsync on BeeGFS: 2 inconsistent states, 2 bugs
	//   reordering: link(dentry)@meta#0 -> append(chunk)@storage#1
	//   reordering: rename(dentry)@meta#0 -> unlink(chunk)@storage#0
}

// mirrorFS is a deliberately naive two-replica file system: every client
// operation is applied to both replicas with no synchronisation protocol,
// reads load-balance across the replicas by path hash, and there is no
// fsck. It keeps all state in the embedded Cluster's server stores, so
// snapshot/restore-based crash reconstruction is automatically faithful;
// the Cluster also supplies the rest of pfs.FileSystem, so a backend
// writes only Name, Client, Recover and Mount.
type mirrorFS struct {
	*pfs.Cluster
}

func newMirrorFS(conf pfs.Config, rec *trace.Recorder) *mirrorFS {
	return &mirrorFS{Cluster: pfs.NewCluster(conf, rec, pfs.ProcNames("replica", 2))}
}

func (f *mirrorFS) Name() string { return "mirrorfs" }

func (f *mirrorFS) Client(id int) pfs.Client {
	return &mirrorClient{fs: f, proc: pfs.ClientProc(id)}
}

// Recover does nothing: mirrorfs ships no fsck — the design flaw under
// test.
func (f *mirrorFS) Recover() error { return nil }

// replicaFor load-balances reads across the replicas by path hash.
func (f *mirrorFS) replicaFor(p string) *vfs.FS {
	h := fnv.New32a()
	h.Write([]byte(p))
	return f.FSServers[int(h.Sum32())%2].FS
}

// Mount reads each path from its read replica: the union namespace serves
// whatever that replica persisted.
func (f *mirrorFS) Mount() (*pfs.Tree, error) {
	t := pfs.NewTree()
	seen := map[string]bool{}
	for i := 0; i < 2; i++ {
		for _, p := range f.FSServers[i].FS.Walk() {
			if p == "/" || seen[p] {
				continue
			}
			seen[p] = true
			src := f.replicaFor(p)
			if !src.Exists(p) {
				continue // the read replica never persisted this path
			}
			if src.IsDir(p) {
				t.AddDir(p)
				continue
			}
			data, err := src.Read(p)
			if err != nil {
				return nil, err
			}
			t.AddFile(p, data)
		}
	}
	return t, nil
}

// mirrorClient applies every operation to both replicas, primary first.
type mirrorClient struct {
	fs   *mirrorFS
	proc string
}

func (c *mirrorClient) Proc() string { return c.proc }

// both runs op against each replica inside its own RPC, so the two local
// writes are separate persistence events — the flaw under test.
func (c *mirrorClient) both(name, path, path2 string, off int64, data []byte, op vfs.Op, tag string) error {
	f := c.fs
	f.RecordClientOp(c.proc, name, path, path2, off, data)
	defer f.PopClient(c.proc)
	var err error
	for _, srv := range f.FSServers {
		f.RPC(c.proc, srv.Proc, func() { err = pfs.FirstErr(err, srv.Do(f.Rec, op, path, tag)) })
	}
	return err
}

func (c *mirrorClient) Create(path string) error {
	return c.both("creat", path, "", 0, nil, vfs.Op{Kind: vfs.OpCreate, Path: path}, "file")
}
func (c *mirrorClient) Mkdir(path string) error {
	return c.both("mkdir", path, "", 0, nil, vfs.Op{Kind: vfs.OpMkdir, Path: path}, "dir")
}
func (c *mirrorClient) WriteAt(path string, off int64, data []byte) error {
	return c.both("pwrite", path, "", off, data,
		vfs.Op{Kind: vfs.OpWrite, Path: path, Offset: off, Data: data}, "data")
}
func (c *mirrorClient) Append(path string, data []byte) error {
	return c.both("append", path, "", 0, data, vfs.Op{Kind: vfs.OpAppend, Path: path, Data: data}, "data")
}
func (c *mirrorClient) Read(path string) ([]byte, error) {
	return c.fs.replicaFor(path).Read(path)
}
func (c *mirrorClient) Rename(from, to string) error {
	return c.both("rename", from, to, 0, nil, vfs.Op{Kind: vfs.OpRename, Path: from, Path2: to}, "dentry")
}
func (c *mirrorClient) Unlink(path string) error {
	return c.both("unlink", path, "", 0, nil, vfs.Op{Kind: vfs.OpUnlink, Path: path}, "dentry")
}
func (c *mirrorClient) Fsync(path string) error {
	f := c.fs
	f.RecordClientOp(c.proc, "fsync", path, "", 0, nil)
	defer f.PopClient(c.proc)
	for _, srv := range f.FSServers {
		f.RPC(c.proc, srv.Proc, func() { _ = srv.DoSync(f.Rec, path, path, false) })
	}
	return nil
}
func (c *mirrorClient) Close(path string) error {
	c.fs.RecordClientOp(c.proc, "close", path, "", 0, nil)
	c.fs.PopClient(c.proc)
	return nil
}

// Example_customFileSystem plugs mirrorFS into ParaCrash, which pinpoints
// its design flaw: the replicas' updates persist independently, so a crash
// between the two applications diverges the replicas, and hash-routed
// reads then serve a mix of old and new.
func Example_customFileSystem() {
	fs := newMirrorFS(paracrash.DefaultConfig(), paracrash.NewRecorder())
	report, err := paracrash.Run(fs, nil, paracrash.ARVR(), paracrash.DefaultOptions())
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d inconsistent states\n", report.Inconsistent)
	for _, b := range report.Bugs {
		fmt.Printf("[%s] %s: %s , %s\n", b.Layer, b.Kind, b.OpA, b.OpB)
	}
	// Output:
	// 2 inconsistent states
	// [pfs] atomicity: rename(dentry)@replica#1 , rename(dentry)@replica#0
}
