// Package glusterfs simulates GlusterFS with a striped volume (paper
// Table 2, Figure 9c): no dedicated metadata servers — every brick carries
// the directory tree, file metadata lives in xattrs next to the data, and
// file contents are striped across the bricks starting at brick 0.
//
// Because a small file's metadata and data land on one brick (one local
// file system, ordered by data journaling), the ARVR reorderings of BeeGFS
// cannot happen (paper §6.3.1). Updates that span bricks — two different
// files placed apart, or stripes of a file larger than the stripe size —
// can still be persisted out of order, which exposes the WAL bug (#6, #8)
// and the HDF5 bugs on large files.
package glusterfs

import (
	"fmt"
	"strconv"
	"strings"

	"paracrash/internal/pfs"
	"paracrash/internal/trace"
	"paracrash/internal/vfs"
)

// FS is a simulated GlusterFS striped volume.
type FS struct {
	*pfs.Cluster

	nextGfid int
}

// New creates a GlusterFS deployment with conf.StorageServers bricks.
func New(conf pfs.Config, rec *trace.Recorder) *FS {
	f := &FS{Cluster: pfs.NewCluster(conf, rec, pfs.ProcNames("brick", conf.StorageServers)), nextGfid: 1}
	for _, b := range f.FSServers {
		pfs.Must(b.FS.Mkdir("/vol"))
	}
	return f
}

// Name implements pfs.FileSystem.
func (f *FS) Name() string { return "glusterfs" }

func (f *FS) brick(i int) *pfs.ServerFS { return f.FSServers[i] }

// Client implements pfs.FileSystem.
func (f *FS) Client(id int) pfs.Client {
	return &client{fs: f, proc: pfs.ClientProc(id)}
}

// local returns the brick-local path of a volume path.
func local(path string) string { return "/vol" + vfs.Clean(path) }

type client struct {
	fs   *FS
	proc string
}

func (c *client) Proc() string { return c.proc }

// Create creates the file on its base brick with the volume xattrs.
func (c *client) Create(path string) error {
	f := c.fs
	// Brick 0 for a pure striped volume, unless pinned by FilePlacement
	// (the distribution sensitivity studies).
	base := f.Conf.FileBase(path, f.Conf.StorageServers, false)
	gfid := fmt.Sprintf("g%d", f.nextGfid)
	f.nextGfid++

	f.RecordClientOp(c.proc, "creat", vfs.Clean(path), "", 0, nil)
	defer f.PopClient(c.proc)

	var err error
	f.RPC(c.proc, f.brick(base).Proc, func() {
		b := f.brick(base)
		err = b.Do(f.Rec, vfs.Op{Kind: vfs.OpCreate, Path: local(path)}, gfid, "file")
		if err == nil {
			err = b.Do(f.Rec, vfs.Op{Kind: vfs.OpSetXattr, Path: local(path), Name: "gfid", Value: []byte(gfid)}, gfid, "xattr")
		}
		if err == nil {
			err = b.Do(f.Rec, vfs.Op{Kind: vfs.OpSetXattr, Path: local(path), Name: "base", Value: []byte(fmt.Sprint(base))}, gfid, "xattr")
		}
	})
	return err
}

// Mkdir mirrors the directory onto every brick (GlusterFS keeps the
// directory tree on all bricks).
func (c *client) Mkdir(path string) error {
	f := c.fs
	f.RecordClientOp(c.proc, "mkdir", vfs.Clean(path), "", 0, nil)
	defer f.PopClient(c.proc)

	var err error
	for i := 0; i < f.Conf.StorageServers; i++ {
		srv := i
		f.RPC(c.proc, f.brick(srv).Proc, func() {
			b := f.brick(srv)
			err = pfs.FirstErr(err, b.Do(f.Rec, vfs.Op{Kind: vfs.OpMkdir, Path: local(path)}, vfs.Clean(path), "dir"))
		})
	}
	return err
}

// gfidOf reads the file's gfid from its base brick copy. A missing base
// xattr defaults to brick 0 (the gfid persists before the base under data
// journaling, so a crash can legitimately drop just the base xattr on a
// brick-0 file); a base that is present but does not parse to a valid
// brick index is corruption and surfaces as an error.
func (f *FS) gfidOf(path string) (string, int, error) {
	for i := 0; i < f.Conf.StorageServers; i++ {
		if g, ok := f.brick(i).FS.GetXattr(local(path), "gfid"); ok {
			base := 0
			if b, ok := f.brick(i).FS.GetXattr(local(path), "base"); ok {
				bi, err := strconv.Atoi(string(b))
				if err != nil || bi < 0 || bi >= f.Conf.StorageServers {
					return "", 0, fmt.Errorf("glusterfs: %q: corrupt base xattr %q", path, b)
				}
				base = bi
			}
			return string(g), base, nil
		}
	}
	return "", 0, fmt.Errorf("glusterfs: %q: no such file", path)
}

// WriteAt stripes data across the bricks; stripe k of a file based at b
// lands on brick (b+k) mod N, in the brick-local file at the same path.
func (c *client) WriteAt(path string, off int64, data []byte) error {
	f := c.fs
	gfid, base, err := f.gfidOf(path)
	if err != nil {
		return err
	}
	f.RecordClientOp(c.proc, "pwrite", vfs.Clean(path), "", off, data)
	defer f.PopClient(c.proc)

	var err2 error
	for _, st := range pfs.StripeRange(off, data, f.Conf.StorageServers, f.Conf.StripeSize, base) {
		st := st
		f.RPC(c.proc, f.brick(st.Server).Proc, func() {
			b := f.brick(st.Server)
			lp := local(path)
			if !b.FS.Exists(lp) {
				err2 = pfs.FirstErr(err2, b.Do(f.Rec, vfs.Op{Kind: vfs.OpCreate, Path: lp}, gfid, "stripe"))
			}
			sz, _ := b.FS.Size(lp)
			op := vfs.Op{Kind: vfs.OpWrite, Path: lp, Offset: st.LocalOffset, Data: st.Data}
			if st.LocalOffset == sz {
				op = vfs.Op{Kind: vfs.OpAppend, Path: lp, Data: st.Data}
			}
			err2 = pfs.FirstErr(err2, b.Do(f.Rec, op, gfid, f.DataTag("stripe")))
		})
	}
	return err2
}

// Append appends at end of file.
func (c *client) Append(path string, data []byte) error {
	f := c.fs
	_, base, err := f.gfidOf(path)
	if err != nil {
		return err
	}
	lens := make([]int64, f.Conf.StorageServers)
	for i := range lens {
		if sz, err := f.brick(i).FS.Size(local(path)); err == nil {
			lens[i] = sz
		}
	}
	return c.WriteAt(path, pfs.UnstripeSize(lens, f.Conf.StorageServers, f.Conf.StripeSize, base), data)
}

// Read reassembles the file from its stripes.
func (c *client) Read(path string) ([]byte, error) {
	f := c.fs
	_, base, err := f.gfidOf(path)
	if err != nil {
		return nil, err
	}
	return f.readFile(path, base), nil
}

func (f *FS) readFile(path string, base int) []byte {
	return pfs.ReassembleFile(f.Conf.StorageServers, f.Conf.StripeSize, base, func(srv int) []byte {
		b, err := f.brick(srv).FS.Read(local(path))
		if err != nil {
			return nil
		}
		return b
	})
}

// exists reports whether any brick holds the path.
func (f *FS) exists(path string) bool {
	for i := 0; i < f.Conf.StorageServers; i++ {
		if f.brick(i).FS.Exists(local(path)) {
			return true
		}
	}
	return false
}

// Rename renames the path on every brick holding it (base brick first) and
// removes any replaced target copies.
func (c *client) Rename(from, to string) error {
	f := c.fs
	if !f.exists(from) {
		return fmt.Errorf("glusterfs: rename %q: no such file", from)
	}
	f.RecordClientOp(c.proc, "rename", vfs.Clean(from), vfs.Clean(to), 0, nil)
	defer f.PopClient(c.proc)

	var err error
	for i := 0; i < f.Conf.StorageServers; i++ {
		srv := i
		bfs := f.brick(srv).FS
		hasSrc := bfs.Exists(local(from))
		hasDst := bfs.Exists(local(to))
		if !hasSrc && !hasDst {
			continue
		}
		f.RPC(c.proc, f.brick(srv).Proc, func() {
			b := f.brick(srv)
			if hasSrc {
				err = pfs.FirstErr(err, b.Do(f.Rec, vfs.Op{Kind: vfs.OpRename, Path: local(from), Path2: local(to)}, vfs.Clean(from), "dentry"))
			} else {
				// Replaced target stripe with no source counterpart.
				err = pfs.FirstErr(err, b.Do(f.Rec, vfs.Op{Kind: vfs.OpUnlink, Path: local(to)}, vfs.Clean(to), "stripe"))
			}
		})
	}
	return err
}

// Unlink removes the path from every brick holding it.
func (c *client) Unlink(path string) error {
	f := c.fs
	if !f.exists(path) {
		return fmt.Errorf("glusterfs: unlink %q: no such file", path)
	}
	f.RecordClientOp(c.proc, "unlink", vfs.Clean(path), "", 0, nil)
	defer f.PopClient(c.proc)

	var err error
	for i := 0; i < f.Conf.StorageServers; i++ {
		srv := i
		if !f.brick(srv).FS.Exists(local(path)) {
			continue
		}
		f.RPC(c.proc, f.brick(srv).Proc, func() {
			b := f.brick(srv)
			err = pfs.FirstErr(err, b.Do(f.Rec, vfs.Op{Kind: vfs.OpUnlink, Path: local(path)}, vfs.Clean(path), "dentry"))
		})
	}
	return err
}

// Fsync flushes the file on every brick holding a stripe.
func (c *client) Fsync(path string) error {
	f := c.fs
	f.RecordClientOp(c.proc, "fsync", vfs.Clean(path), "", 0, nil)
	defer f.PopClient(c.proc)

	for i := 0; i < f.Conf.StorageServers; i++ {
		srv := i
		if !f.brick(srv).FS.Exists(local(path)) {
			continue
		}
		f.RPC(c.proc, f.brick(srv).Proc, func() {
			_ = f.brick(srv).DoSync(f.Rec, local(path), vfs.Clean(path), false)
		})
	}
	return nil
}

// Close records the client-level close.
func (c *client) Close(path string) error {
	f := c.fs
	f.RecordClientOp(c.proc, "close", vfs.Clean(path), "", 0, nil)
	f.PopClient(c.proc)
	return nil
}

// Recover implements GlusterFS self-heal: directories are mirrored back
// onto every brick and stripe files whose base copy (the one carrying the
// gfid xattr) is gone are removed as orphans.
func (f *FS) Recover() error {
	defer f.TimeOp("pfs/recover")()
	// Heal directories: the first brick is authoritative; mirror its tree
	// onto the other bricks.
	dirs := map[string]bool{}
	for _, p := range f.brick(0).FS.Walk() {
		if strings.HasPrefix(p, "/vol") && f.brick(0).FS.IsDir(p) {
			dirs[p] = true
		}
	}
	for i := 1; i < f.Conf.StorageServers; i++ {
		bfs := f.brick(i).FS
		for p := range dirs {
			if !bfs.IsDir(p) && !bfs.Exists(p) {
				_ = bfs.MkdirAll(p)
			}
		}
	}
	// Remove orphaned stripe files (no base copy anywhere).
	for i := 0; i < f.Conf.StorageServers; i++ {
		bfs := f.brick(i).FS
		for _, p := range bfs.Walk() {
			if !strings.HasPrefix(p, "/vol") || bfs.IsDir(p) {
				continue
			}
			if _, ok := bfs.GetXattr(p, "gfid"); ok {
				continue
			}
			orphan := true
			for j := 0; j < f.Conf.StorageServers; j++ {
				if _, ok := f.brick(j).FS.GetXattr(p, "gfid"); ok {
					orphan = false
					break
				}
			}
			if orphan {
				_ = bfs.Unlink(p)
			}
		}
	}
	return nil
}

// Mount materialises the logical namespace: the first brick is
// authoritative for the directory tree (as the first subvolume of a
// striped volume is in GlusterFS); a file exists if some brick holds its
// base copy (the gfid xattr), with contents reassembled from all bricks.
func (f *FS) Mount() (*pfs.Tree, error) {
	defer f.TimeOp("pfs/mount")()
	t := pfs.NewTree()
	seen := map[string]bool{}
	for i := 0; i < f.Conf.StorageServers; i++ {
		bfs := f.brick(i).FS
		for _, p := range bfs.Walk() {
			if !strings.HasPrefix(p, "/vol") || p == "/vol" || seen[p] {
				continue
			}
			vpath := strings.TrimPrefix(p, "/vol")
			if bfs.IsDir(p) {
				if i == 0 {
					seen[p] = true
					t.AddDir(vpath)
				}
				continue
			}
			if _, ok := bfs.GetXattr(p, "gfid"); !ok {
				continue // stripe copy; the base copy decides existence
			}
			base := 0
			if b, ok := bfs.GetXattr(p, "base"); ok {
				bi, err := strconv.Atoi(string(b))
				if err != nil || bi < 0 || bi >= f.Conf.StorageServers {
					return nil, fmt.Errorf("glusterfs: mount: corrupt base xattr %q on %s", b, p)
				}
				base = bi
			}
			seen[p] = true
			t.AddFile(vpath, f.readFile(vpath, base))
		}
	}
	return t, nil
}
