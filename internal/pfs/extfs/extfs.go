// Package extfs is the paper's "ext4" baseline: the test program runs
// against a single local file system with data journaling, no distribution.
// Every client op maps 1:1 onto a local op on one server, so the persist
// order under data journaling equals the causality order and no POSIX test
// program can reach an inconsistent state — the control experiment of
// Figure 8.
package extfs

import (
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
	"paracrash/internal/vfs"
)

// FS is a single-node local file system exposed through the pfs interface.
type FS struct {
	*pfs.Cluster
}

// New creates the baseline deployment (exactly one server, "local/0").
func New(conf pfs.Config, rec *trace.Recorder) *FS {
	return &FS{Cluster: pfs.NewCluster(conf, rec, []string{"local/0"})}
}

// Name implements pfs.FileSystem.
func (f *FS) Name() string { return "ext4" }

func (f *FS) local() *pfs.ServerFS { return f.FSServers[0] }

// Client implements pfs.FileSystem.
func (f *FS) Client(id int) pfs.Client {
	return &client{fs: f, proc: pfs.ClientProc(id)}
}

type client struct {
	fs   *FS
	proc string
}

func (c *client) Proc() string { return c.proc }

// do records the client-layer op and performs the matching local op.
func (c *client) do(name, path, path2 string, off int64, data []byte, op vfs.Op, tag string) error {
	f := c.fs
	f.RecordClientOp(c.proc, name, path, path2, off, data)
	defer f.PopClient(c.proc)
	var err error
	f.RPC(c.proc, "local/0", func() {
		err = f.local().Do(f.Rec, op, vfs.Clean(path), tag)
	})
	return err
}

func (c *client) Create(path string) error {
	return c.do("creat", path, "", 0, nil, vfs.Op{Kind: vfs.OpCreate, Path: path}, "file")
}

func (c *client) Mkdir(path string) error {
	return c.do("mkdir", path, "", 0, nil, vfs.Op{Kind: vfs.OpMkdir, Path: path}, "dir")
}

func (c *client) WriteAt(path string, off int64, data []byte) error {
	return c.do("pwrite", path, "", off, data, vfs.Op{Kind: vfs.OpWrite, Path: path, Offset: off, Data: data}, c.fs.DataTag("data"))
}

func (c *client) Append(path string, data []byte) error {
	return c.do("append", path, "", 0, data, vfs.Op{Kind: vfs.OpAppend, Path: path, Data: data}, c.fs.DataTag("data"))
}

func (c *client) Read(path string) ([]byte, error) {
	return c.fs.local().FS.Read(path)
}

func (c *client) Rename(from, to string) error {
	return c.do("rename", from, to, 0, nil, vfs.Op{Kind: vfs.OpRename, Path: from, Path2: to}, "dentry")
}

func (c *client) Unlink(path string) error {
	return c.do("unlink", path, "", 0, nil, vfs.Op{Kind: vfs.OpUnlink, Path: path}, "dentry")
}

func (c *client) Fsync(path string) error {
	f := c.fs
	f.RecordClientOp(c.proc, "fsync", vfs.Clean(path), "", 0, nil)
	defer f.PopClient(c.proc)
	var err error
	f.RPC(c.proc, "local/0", func() {
		err = f.local().DoSync(f.Rec, vfs.Clean(path), vfs.Clean(path), false)
	})
	return err
}

func (c *client) Close(path string) error {
	f := c.fs
	f.RecordClientOp(c.proc, "close", vfs.Clean(path), "", 0, nil)
	f.PopClient(c.proc)
	return nil
}

// Recover implements pfs.FileSystem; ext4's journal recovery is modelled by
// the persist-order semantics themselves, so there is nothing to do.
func (f *FS) Recover() error { return nil }

// Mount returns the logical namespace, which is simply the local FS view.
func (f *FS) Mount() (*pfs.Tree, error) {
	defer f.TimeOp("pfs/mount")()
	t := pfs.NewTree()
	fs := f.local().FS
	for _, p := range fs.Walk() {
		if p == "/" {
			continue
		}
		if fs.IsDir(p) {
			t.AddDir(p)
		} else {
			b, err := fs.Read(p)
			if err != nil {
				return nil, err
			}
			t.AddFile(p, b)
		}
	}
	return t, nil
}
