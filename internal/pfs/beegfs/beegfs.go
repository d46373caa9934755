// Package beegfs simulates BeeGFS (paper §2.3, Figure 2): a user-level PFS
// with dedicated metadata servers and storage servers on local ext4.
//
// Metadata layout (on each metadata server's local FS, as in BeeGFS):
//
//	/inodes/<id>            inode file ("idfile") — files and directories
//	/dentries/<dirID>/<nm>  directory-entry file; for files it is a hard
//	                        link to the idfile (BeeGFS's dentry-as-link)
//
// Directory entries carry xattrs: t=f|d, id, owner (dirs), base (files:
// first stripe target). File data lives in per-server chunk files
// /chunks/<fileID> on the storage servers, striped round-robin.
//
// Crucially — and this is the source of the paper's BeeGFS bugs — the
// servers issue NO fsync between dependent updates on different servers,
// so the persist order across servers is unconstrained.
package beegfs

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"paracrash/internal/pfs"
	"paracrash/internal/trace"
	"paracrash/internal/vfs"
)

// FS is a simulated BeeGFS deployment.
type FS struct {
	*pfs.Cluster
	conf pfs.Config

	nextDirID  int
	nextFileID int
}

// New creates a BeeGFS deployment with the configured server counts and
// initialises the root directory structures (owned by meta/0).
func New(conf pfs.Config, rec *trace.Recorder) *FS {
	var procs []string
	for i := 0; i < conf.MetaServers; i++ {
		procs = append(procs, fmt.Sprintf("meta/%d", i))
	}
	for i := 0; i < conf.StorageServers; i++ {
		procs = append(procs, fmt.Sprintf("storage/%d", i))
	}
	f := &FS{
		Cluster:    pfs.NewCluster(conf, rec, procs),
		conf:       conf,
		nextDirID:  1,
		nextFileID: 1,
	}
	// Initial structures are created directly (pre-mount mkfs, untraced).
	for i := 0; i < conf.MetaServers; i++ {
		fs := f.meta(i).FS
		must(fs.Mkdir("/inodes"))
		must(fs.Mkdir("/dentries"))
	}
	must(f.meta(0).FS.Mkdir("/dentries/root"))
	must(f.meta(0).FS.Create("/inodes/root"))
	must(f.meta(0).FS.SetXattr("/inodes/root", "t", []byte("d")))
	for i := 0; i < conf.StorageServers; i++ {
		must(f.storage(i).FS.Mkdir("/chunks"))
	}
	return f
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("beegfs: setup: %v", err))
	}
}

// Name implements pfs.FileSystem.
func (f *FS) Name() string { return "beegfs" }

// Config implements pfs.FileSystem.
func (f *FS) Config() pfs.Config { return f.conf }

// Recorder implements pfs.FileSystem.
func (f *FS) Recorder() *trace.Recorder { return f.Rec }

func (f *FS) meta(i int) *pfs.ServerFS    { return f.FSServers[i] }
func (f *FS) storage(i int) *pfs.ServerFS { return f.FSServers[f.conf.MetaServers+i] }

func (f *FS) metaProc(i int) string    { return fmt.Sprintf("meta/%d", i) }
func (f *FS) storageProc(i int) string { return fmt.Sprintf("storage/%d", i) }

// Client implements pfs.FileSystem.
func (f *FS) Client(id int) pfs.Client {
	return &client{fs: f, proc: fmt.Sprintf("client/%d", id)}
}

// dirRef locates a directory's metadata: the owning meta server and its ID.
type dirRef struct {
	owner int
	id    string
}

// fileRef locates a file's metadata.
type fileRef struct {
	dir  dirRef
	name string
	fid  string
	base int // first stripe target
}

// resolveDir walks the metadata structures from the root to find dir path.
func (f *FS) resolveDir(path string) (dirRef, error) {
	cur := dirRef{owner: 0, id: "root"}
	path = vfs.Clean(path)
	if path == "/" {
		return cur, nil
	}
	for _, comp := range strings.Split(strings.TrimPrefix(path, "/"), "/") {
		dentry := fmt.Sprintf("/dentries/%s/%s", cur.id, comp)
		mfs := f.meta(cur.owner).FS
		t, ok := mfs.GetXattr(dentry, "t")
		if !ok {
			return dirRef{}, fmt.Errorf("beegfs: %q: no such directory", path)
		}
		if string(t) != "d" {
			return dirRef{}, fmt.Errorf("beegfs: %q: not a directory", path)
		}
		id, _ := mfs.GetXattr(dentry, "id")
		owner, _ := mfs.GetXattr(dentry, "owner")
		oi, err := strconv.Atoi(string(owner))
		if err != nil {
			return dirRef{}, fmt.Errorf("beegfs: %q: corrupt dentry: %v", path, err)
		}
		cur = dirRef{owner: oi, id: string(id)}
	}
	return cur, nil
}

// resolveFile locates the file at path.
func (f *FS) resolveFile(path string) (fileRef, error) {
	path = vfs.Clean(path)
	dir, name := splitPath(path)
	dr, err := f.resolveDir(dir)
	if err != nil {
		return fileRef{}, err
	}
	dentry := fmt.Sprintf("/dentries/%s/%s", dr.id, name)
	mfs := f.meta(dr.owner).FS
	t, ok := mfs.GetXattr(dentry, "t")
	if !ok {
		return fileRef{}, fmt.Errorf("beegfs: %q: no such file", path)
	}
	if string(t) != "f" {
		return fileRef{}, fmt.Errorf("beegfs: %q: not a regular file", path)
	}
	fid, _ := mfs.GetXattr(dentry, "id")
	base, _ := mfs.GetXattr(dentry, "base")
	bi, err := strconv.Atoi(string(base))
	if err != nil || bi < 0 || bi >= f.conf.StorageServers {
		return fileRef{}, fmt.Errorf("beegfs: %q: corrupt base target %q", path, base)
	}
	return fileRef{dir: dr, name: name, fid: string(fid), base: bi}, nil
}

func splitPath(p string) (dir, name string) {
	p = vfs.Clean(p)
	i := strings.LastIndexByte(p, '/')
	if i == 0 {
		return "/", p[1:]
	}
	return p[:i], p[i+1:]
}

// pickBase chooses the first stripe target for a new file.
func (f *FS) pickBase(path string) int {
	if f.conf.FilePlacement != nil {
		if b, ok := f.conf.FilePlacement[vfs.Clean(path)]; ok {
			return b % f.conf.StorageServers
		}
	}
	h := fnv.New32a()
	h.Write([]byte(vfs.Clean(path)))
	return int(h.Sum32()) % f.conf.StorageServers
}

// pickDirOwner chooses the owning metadata server for a new directory.
func (f *FS) pickDirOwner(path string) int {
	if f.conf.DirPlacement != nil {
		if o, ok := f.conf.DirPlacement[vfs.Clean(path)]; ok {
			return o % f.conf.MetaServers
		}
	}
	o := f.nextDirID % f.conf.MetaServers
	return o
}

// client is the BeeGFS client endpoint.
type client struct {
	fs   *FS
	proc string
}

func (c *client) Proc() string { return c.proc }

// Create implements the Figure 2 creation path: the metadata server creates
// the idfile, links the dentry, updates the directory inode, then instructs
// the base storage target to create the chunk file.
func (c *client) Create(path string) error {
	f := c.fs
	dir, name := splitPath(path)
	dr, err := f.resolveDir(dir)
	if err != nil {
		return err
	}
	fid := fmt.Sprintf("f%d", f.nextFileID)
	f.nextFileID++
	base := f.pickBase(path)

	f.RecordClientOp(c.proc, "creat", vfs.Clean(path), "", 0, nil)
	defer f.PopClient(c.proc)

	var err2 error
	f.RPC(c.proc, f.metaProc(dr.owner), func() {
		m := f.meta(dr.owner)
		idfile := "/inodes/" + fid
		dentry := fmt.Sprintf("/dentries/%s/%s", dr.id, name)
		err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpCreate, Path: idfile}, fid, "idfile"))
		err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpSetXattr, Path: idfile, Name: "t", Value: []byte("f")}, fid, "idfile"))
		err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpSetXattr, Path: idfile, Name: "id", Value: []byte(fid)}, fid, "idfile"))
		err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpSetXattr, Path: idfile, Name: "base", Value: []byte(strconv.Itoa(base))}, fid, "idfile"))
		err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpLink, Path: idfile, Path2: dentry}, fid, "dentry"))
		err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpSetXattr, Path: "/inodes/" + dr.id, Name: "mtime", Value: []byte(fid)}, dr.id, "dir_inode"))
		// The metadata server instructs the base storage target to create
		// the chunk file (Figure 2: sendto(storage); creat(chunk)).
		f.ServerRPC(f.metaProc(dr.owner), f.storageProc(base), func() {
			s := f.storage(base)
			err2 = firstErr(err2, s.Do(f.Rec, vfs.Op{Kind: vfs.OpCreate, Path: "/chunks/" + fid}, fid, "chunk"))
		})
	})
	return err2
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// Mkdir creates a directory: a dentry on the parent's owner and the
// dentries container + dir inode on the new directory's owner.
func (c *client) Mkdir(path string) error {
	f := c.fs
	dir, name := splitPath(path)
	dr, err := f.resolveDir(dir)
	if err != nil {
		return err
	}
	owner := f.pickDirOwner(path)
	id := fmt.Sprintf("d%d", f.nextDirID)
	f.nextDirID++

	f.RecordClientOp(c.proc, "mkdir", vfs.Clean(path), "", 0, nil)
	defer f.PopClient(c.proc)

	var err2 error
	f.RPC(c.proc, f.metaProc(dr.owner), func() {
		m := f.meta(dr.owner)
		dentry := fmt.Sprintf("/dentries/%s/%s", dr.id, name)
		err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpCreate, Path: dentry}, id, "dentry"))
		err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpSetXattr, Path: dentry, Name: "t", Value: []byte("d")}, id, "dentry"))
		err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpSetXattr, Path: dentry, Name: "id", Value: []byte(id)}, id, "dentry"))
		err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpSetXattr, Path: dentry, Name: "owner", Value: []byte(strconv.Itoa(owner))}, id, "dentry"))
		err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpSetXattr, Path: "/inodes/" + dr.id, Name: "mtime", Value: []byte(id)}, dr.id, "dir_inode"))
		// The parent's meta server instructs the new owner to materialise
		// the directory.
		if owner != dr.owner {
			f.ServerRPC(f.metaProc(dr.owner), f.metaProc(owner), func() {
				o := f.meta(owner)
				err2 = firstErr(err2, o.Do(f.Rec, vfs.Op{Kind: vfs.OpMkdir, Path: "/dentries/" + id}, id, "dentries_dir"))
				err2 = firstErr(err2, o.Do(f.Rec, vfs.Op{Kind: vfs.OpCreate, Path: "/inodes/" + id}, id, "dir_inode"))
				err2 = firstErr(err2, o.Do(f.Rec, vfs.Op{Kind: vfs.OpSetXattr, Path: "/inodes/" + id, Name: "t", Value: []byte("d")}, id, "dir_inode"))
			})
		} else {
			o := f.meta(owner)
			err2 = firstErr(err2, o.Do(f.Rec, vfs.Op{Kind: vfs.OpMkdir, Path: "/dentries/" + id}, id, "dentries_dir"))
			err2 = firstErr(err2, o.Do(f.Rec, vfs.Op{Kind: vfs.OpCreate, Path: "/inodes/" + id}, id, "dir_inode"))
			err2 = firstErr(err2, o.Do(f.Rec, vfs.Op{Kind: vfs.OpSetXattr, Path: "/inodes/" + id, Name: "t", Value: []byte("d")}, id, "dir_inode"))
		}
	})
	return err2
}

// WriteAt stripes data across the storage servers; each stripe is an RPC to
// its target, which writes (or appends to) the chunk file.
func (c *client) WriteAt(path string, off int64, data []byte) error {
	f := c.fs
	fr, err := f.resolveFile(path)
	if err != nil {
		return err
	}
	f.RecordClientOp(c.proc, "pwrite", vfs.Clean(path), "", off, data)
	defer f.PopClient(c.proc)

	var err2 error
	for _, st := range pfs.StripeRange(off, data, f.conf.StorageServers, f.conf.StripeSize, fr.base) {
		st := st
		f.RPC(c.proc, f.storageProc(st.Server), func() {
			s := f.storage(st.Server)
			chunk := "/chunks/" + fr.fid
			if !s.FS.Exists(chunk) {
				err2 = firstErr(err2, s.Do(f.Rec, vfs.Op{Kind: vfs.OpCreate, Path: chunk}, fr.fid, "chunk"))
			}
			// Name the op "append" when extending at EOF (the common case
			// in the paper's traces), "pwrite" otherwise.
			sz, _ := s.FS.Size(chunk)
			op := vfs.Op{Kind: vfs.OpWrite, Path: chunk, Offset: st.LocalOffset, Data: st.Data}
			if st.LocalOffset == sz {
				op = vfs.Op{Kind: vfs.OpAppend, Path: chunk, Data: st.Data}
			}
			err2 = firstErr(err2, s.Do(f.Rec, op, fr.fid, f.DataTag("chunk")))
		})
	}
	return err2
}

// Append appends at the current end of file.
func (c *client) Append(path string, data []byte) error {
	sz, err := c.size(path)
	if err != nil {
		return err
	}
	return c.WriteAt(path, sz, data)
}

func (c *client) size(path string) (int64, error) {
	f := c.fs
	fr, err := f.resolveFile(path)
	if err != nil {
		return 0, err
	}
	lens := make([]int64, f.conf.StorageServers)
	for i := 0; i < f.conf.StorageServers; i++ {
		if sz, err := f.storage(i).FS.Size("/chunks/" + fr.fid); err == nil {
			lens[i] = sz
		}
	}
	return pfs.UnstripeSize(lens, f.conf.StorageServers, f.conf.StripeSize, fr.base), nil
}

// Read reassembles the file from its chunks (untraced; reads do not affect
// crash consistency).
func (c *client) Read(path string) ([]byte, error) {
	f := c.fs
	fr, err := f.resolveFile(path)
	if err != nil {
		return nil, err
	}
	return f.readFile(fr), nil
}

func (f *FS) readFile(fr fileRef) []byte {
	return pfs.ReassembleFile(f.conf.StorageServers, f.conf.StripeSize, fr.base, func(srv int) []byte {
		b, err := f.storage(srv).FS.Read("/chunks/" + fr.fid)
		if err != nil {
			return nil
		}
		return b
	})
}

// Rename implements the Figure 2 rename path. Same-owner renames rename the
// dentry in place; cross-owner renames create the destination dentry before
// removing the source (BeeGFS's ordering, the root of bug #5). Directory
// renames update the dentry on the parent's owner.
func (c *client) Rename(from, to string) error {
	f := c.fs
	fr, err := f.resolveFile(from)
	if err != nil {
		// Directory rename path.
		if _, derr := f.resolveDir(from); derr == nil {
			return c.renameDir(from, to)
		}
		return err
	}
	toDir, toName := splitPath(to)
	dst, err := f.resolveDir(toDir)
	if err != nil {
		return err
	}
	// Capture replaced target, if any.
	var oldFid string
	var oldBase int
	if old, err := f.resolveFile(to); err == nil {
		oldFid, oldBase = old.fid, old.base
	}

	f.RecordClientOp(c.proc, "rename", vfs.Clean(from), vfs.Clean(to), 0, nil)
	defer f.PopClient(c.proc)

	var err2 error
	if dst.owner == fr.dir.owner {
		// Single metadata server: Figure 2's sequence.
		f.RPC(c.proc, f.metaProc(dst.owner), func() {
			m := f.meta(dst.owner)
			srcDentry := fmt.Sprintf("/dentries/%s/%s", fr.dir.id, fr.name)
			dstDentry := fmt.Sprintf("/dentries/%s/%s", dst.id, toName)
			err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpRename, Path: srcDentry, Path2: dstDentry}, fr.fid, "dentry"))
			err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpSetXattr, Path: "/inodes/" + dst.id, Name: "mtime", Value: []byte(fr.fid)}, dst.id, "dir_inode"))
			if oldFid != "" {
				err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpUnlink, Path: "/inodes/" + oldFid}, oldFid, "idfile"))
			}
			err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpSetXattr, Path: "/inodes/" + fr.fid, Name: "mtime", Value: []byte("renamed")}, fr.fid, "idfile"))
			if oldFid != "" {
				// Instruct storage to remove the replaced file's chunks.
				for i := 0; i < f.conf.StorageServers; i++ {
					srv := i
					if !f.storage(srv).FS.Exists("/chunks/" + oldFid) {
						continue
					}
					f.ServerRPC(f.metaProc(dst.owner), f.storageProc(srv), func() {
						s := f.storage(srv)
						err2 = firstErr(err2, s.Do(f.Rec, vfs.Op{Kind: vfs.OpUnlink, Path: "/chunks/" + oldFid}, oldFid, "chunk"))
					})
				}
			}
			_ = oldBase
		})
		return err2
	}

	// Cross-owner rename: destination first, then source removal.
	f.RPC(c.proc, f.metaProc(dst.owner), func() {
		m := f.meta(dst.owner)
		idfile := "/inodes/" + fr.fid
		dstDentry := fmt.Sprintf("/dentries/%s/%s", dst.id, toName)
		if oldFid != "" {
			// POSIX overwrite: the replaced file's dentry and idfile go
			// first (the link below cannot take over an existing dentry),
			// then its chunks after the new dentry is in place — so the
			// destination name, like the same-owner path, is never resolvable
			// to a third file but can transiently disappear.
			err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpUnlink, Path: dstDentry}, oldFid, "dentry"))
			err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpUnlink, Path: "/inodes/" + oldFid}, oldFid, "idfile"))
		}
		err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpCreate, Path: idfile}, fr.fid, "idfile"))
		err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpSetXattr, Path: idfile, Name: "t", Value: []byte("f")}, fr.fid, "idfile"))
		err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpSetXattr, Path: idfile, Name: "id", Value: []byte(fr.fid)}, fr.fid, "idfile"))
		err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpSetXattr, Path: idfile, Name: "base", Value: []byte(strconv.Itoa(fr.base))}, fr.fid, "idfile"))
		err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpLink, Path: idfile, Path2: dstDentry}, fr.fid, "dentry"))
		err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpSetXattr, Path: "/inodes/" + dst.id, Name: "mtime", Value: []byte(fr.fid)}, dst.id, "dir_inode"))
		if oldFid != "" {
			for i := 0; i < f.conf.StorageServers; i++ {
				srv := i
				if !f.storage(srv).FS.Exists("/chunks/" + oldFid) {
					continue
				}
				f.ServerRPC(f.metaProc(dst.owner), f.storageProc(srv), func() {
					s := f.storage(srv)
					err2 = firstErr(err2, s.Do(f.Rec, vfs.Op{Kind: vfs.OpUnlink, Path: "/chunks/" + oldFid}, oldFid, "chunk"))
				})
			}
		}
	})
	f.RPC(c.proc, f.metaProc(fr.dir.owner), func() {
		m := f.meta(fr.dir.owner)
		srcDentry := fmt.Sprintf("/dentries/%s/%s", fr.dir.id, fr.name)
		err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpUnlink, Path: srcDentry}, fr.fid, "dentry"))
		err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpUnlink, Path: "/inodes/" + fr.fid}, fr.fid, "idfile"))
		err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpSetXattr, Path: "/inodes/" + fr.dir.id, Name: "mtime", Value: []byte(fr.fid)}, fr.dir.id, "dir_inode"))
	})
	return err2
}

// renameDir renames a directory's entry in its parent (both names must
// share the parent directory, as in the paper's RC program). The directory
// ID — and therefore its dentries container — is unchanged, so only the
// parent's owner is involved.
func (c *client) renameDir(from, to string) error {
	f := c.fs
	fromParent, fromName := splitPath(from)
	toParent, toName := splitPath(to)
	if vfs.Clean(fromParent) != vfs.Clean(toParent) {
		return fmt.Errorf("beegfs: cross-directory dir rename not supported: %s -> %s", from, to)
	}
	pr, err := f.resolveDir(fromParent)
	if err != nil {
		return err
	}
	dr, err := f.resolveDir(from)
	if err != nil {
		return err
	}
	f.RecordClientOp(c.proc, "rename", vfs.Clean(from), vfs.Clean(to), 0, nil)
	defer f.PopClient(c.proc)

	var err2 error
	f.RPC(c.proc, f.metaProc(pr.owner), func() {
		m := f.meta(pr.owner)
		srcDentry := fmt.Sprintf("/dentries/%s/%s", pr.id, fromName)
		dstDentry := fmt.Sprintf("/dentries/%s/%s", pr.id, toName)
		err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpRename, Path: srcDentry, Path2: dstDentry}, dr.id, "dentry"))
		err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpSetXattr, Path: "/inodes/" + pr.id, Name: "mtime", Value: []byte(dr.id)}, pr.id, "dir_inode"))
	})
	return err2
}

// Unlink removes the dentry and idfile on the metadata server, then the
// chunks on storage.
func (c *client) Unlink(path string) error {
	f := c.fs
	fr, err := f.resolveFile(path)
	if err != nil {
		return err
	}
	f.RecordClientOp(c.proc, "unlink", vfs.Clean(path), "", 0, nil)
	defer f.PopClient(c.proc)

	var err2 error
	f.RPC(c.proc, f.metaProc(fr.dir.owner), func() {
		m := f.meta(fr.dir.owner)
		dentry := fmt.Sprintf("/dentries/%s/%s", fr.dir.id, fr.name)
		err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpUnlink, Path: dentry}, fr.fid, "dentry"))
		err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpUnlink, Path: "/inodes/" + fr.fid}, fr.fid, "idfile"))
		err2 = firstErr(err2, m.Do(f.Rec, vfs.Op{Kind: vfs.OpSetXattr, Path: "/inodes/" + fr.dir.id, Name: "mtime", Value: []byte(fr.fid)}, fr.dir.id, "dir_inode"))
		for i := 0; i < f.conf.StorageServers; i++ {
			srv := i
			if !f.storage(srv).FS.Exists("/chunks/" + fr.fid) {
				continue
			}
			f.ServerRPC(f.metaProc(fr.dir.owner), f.storageProc(srv), func() {
				s := f.storage(srv)
				err2 = firstErr(err2, s.Do(f.Rec, vfs.Op{Kind: vfs.OpUnlink, Path: "/chunks/" + fr.fid}, fr.fid, "chunk"))
			})
		}
	})
	return err2
}

// Fsync forwards to the storage servers holding the file's chunks
// (BeeGFS's tuneRemoteFSync).
func (c *client) Fsync(path string) error {
	f := c.fs
	fr, err := f.resolveFile(path)
	if err != nil {
		return err
	}
	f.RecordClientOp(c.proc, "fsync", vfs.Clean(path), "", 0, nil)
	defer f.PopClient(c.proc)

	for i := 0; i < f.conf.StorageServers; i++ {
		srv := i
		if !f.storage(srv).FS.Exists("/chunks/" + fr.fid) {
			continue
		}
		f.RPC(c.proc, f.storageProc(srv), func() {
			s := f.storage(srv)
			_ = s.DoSync(f.Rec, "/chunks/"+fr.fid, fr.fid, false)
		})
	}
	return nil
}

// Close records the client-level close (the baseline consistency model
// keys on it); BeeGFS performs no server work on close.
func (c *client) Close(path string) error {
	f := c.fs
	f.RecordClientOp(c.proc, "close", vfs.Clean(path), "", 0, nil)
	f.PopClient(c.proc)
	return nil
}

// Recover implements beegfs-fsck: it removes unparseable directory
// entries and re-creates missing dentries containers. Like the real tool it
// restores structural invariants but cannot resurrect lost updates.
func (f *FS) Recover() error {
	defer f.TimeOp("pfs/recover")()
	for mi := 0; mi < f.conf.MetaServers; mi++ {
		m := f.meta(mi).FS
		if !m.IsDir("/dentries") {
			if err := m.MkdirAll("/dentries"); err != nil {
				return fmt.Errorf("beegfs-fsck: %v", err)
			}
		}
		dirs, err := m.List("/dentries")
		if err != nil {
			return fmt.Errorf("beegfs-fsck: %v", err)
		}
		for _, d := range dirs {
			entries, err := m.List(d)
			if err != nil {
				continue
			}
			for _, e := range entries {
				if _, ok := m.GetXattr(e, "t"); !ok {
					// Corrupt dentry: drop it.
					_ = m.Unlink(e)
					continue
				}
				switch t, _ := m.GetXattr(e, "t"); string(t) {
				case "f":
					// A file dentry whose base target does not parse to a
					// valid storage index is unrepairable: drop it, as
					// beegfs-fsck drops entries it cannot resolve.
					base, _ := m.GetXattr(e, "base")
					if bi, err := strconv.Atoi(string(base)); err != nil || bi < 0 || bi >= f.conf.StorageServers {
						_ = m.Unlink(e)
					}
				case "d":
					id, _ := m.GetXattr(e, "id")
					owner, _ := m.GetXattr(e, "owner")
					oi, err := strconv.Atoi(string(owner))
					if err != nil || oi < 0 || oi >= f.conf.MetaServers {
						_ = m.Unlink(e)
						continue
					}
					ofs := f.meta(oi).FS
					if !ofs.IsDir("/dentries/" + string(id)) {
						_ = ofs.MkdirAll("/dentries/" + string(id))
					}
					if !ofs.Exists("/inodes/" + string(id)) {
						_ = ofs.Create("/inodes/" + string(id))
						_ = ofs.SetXattr("/inodes/"+string(id), "t", []byte("d"))
					}
				}
			}
		}
	}
	// Root must exist.
	if !f.meta(0).FS.IsDir("/dentries/root") {
		if err := f.meta(0).FS.MkdirAll("/dentries/root"); err != nil {
			return fmt.Errorf("beegfs-fsck: root: %v", err)
		}
	}
	return nil
}

// Mount materialises the logical namespace by walking the metadata
// structures from the root.
func (f *FS) Mount() (*pfs.Tree, error) {
	defer f.TimeOp("pfs/mount")()
	t := pfs.NewTree()
	var walk func(path string, dr dirRef) error
	walk = func(path string, dr dirRef) error {
		if dr.owner >= f.conf.MetaServers {
			return fmt.Errorf("beegfs: mount: bad owner %d", dr.owner)
		}
		m := f.meta(dr.owner).FS
		container := "/dentries/" + dr.id
		if !m.IsDir(container) {
			return nil // unmaterialised directory: empty
		}
		entries, err := m.List(container)
		if err != nil {
			return err
		}
		for _, e := range entries {
			name := e[strings.LastIndexByte(e, '/')+1:]
			child := vfs.Clean(path + "/" + name)
			t0, ok := m.GetXattr(e, "t")
			if !ok {
				return fmt.Errorf("beegfs: mount: corrupt dentry %s on %s", e, f.metaProc(dr.owner))
			}
			switch string(t0) {
			case "d":
				id, _ := m.GetXattr(e, "id")
				owner, _ := m.GetXattr(e, "owner")
				oi, err := strconv.Atoi(string(owner))
				if err != nil {
					return fmt.Errorf("beegfs: mount: corrupt dir dentry %s: %v", e, err)
				}
				t.AddDir(child)
				if err := walk(child, dirRef{owner: oi, id: string(id)}); err != nil {
					return err
				}
			case "f":
				fid, _ := m.GetXattr(e, "id")
				base, _ := m.GetXattr(e, "base")
				bi, err := strconv.Atoi(string(base))
				if err != nil || bi < 0 || bi >= f.conf.StorageServers {
					return fmt.Errorf("beegfs: mount: corrupt base target %q on dentry %s", base, e)
				}
				t.AddFile(child, f.readFile(fileRef{fid: string(fid), base: bi}))
			default:
				return fmt.Errorf("beegfs: mount: unknown dentry type %q at %s", t0, e)
			}
		}
		return nil
	}
	if err := walk("/", dirRef{owner: 0, id: "root"}); err != nil {
		return nil, err
	}
	return t, nil
}
