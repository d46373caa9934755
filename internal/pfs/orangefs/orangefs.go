// Package orangefs simulates OrangeFS/PVFS2 (paper Figure 9b): a user-level
// PFS whose metadata servers store dentries and attributes in a Berkeley-DB
// style key-value store. Every 4 KB page write to the database is followed
// by an fdatasync — this is why OrangeFS orders its metadata updates and
// avoids BeeGFS's bug #2, while remaining vulnerable to storage/metadata
// reordering (bug #1) and cross-server metadata reordering (bug #4).
//
// Metadata layout (per metadata server):
//
//	/db/keyval.db   page-per-record store: dentry records
//	/db/attrs.db    page-per-record store: attribute records
//
// Records are JSON {k, v, seq, del} padded to PageSize; on mount the pages
// are scanned and the highest sequence number per key wins. File data lives
// in bstream files /bstreams/<fid>.bstream on the storage servers. When a
// rename replaces a file, the replaced bstream is first renamed to a
// stranded name and only unlinked after the metadata commit; pvfs2-fsck
// recovers stranded bstreams that are still referenced.
package orangefs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"

	"paracrash/internal/pfs"
	"paracrash/internal/trace"
	"paracrash/internal/vfs"
)

// PageSize is the database page size (scaled down from 4 KB to keep traces
// small; the value is behaviourally irrelevant because pages are atomic).
const PageSize = 256

// record is one database record.
type record struct {
	K   string `json:"k"`
	V   string `json:"v"`
	Seq int    `json:"seq"`
	Del bool   `json:"del,omitempty"`
}

// dentryVal is the JSON value of a dentry record.
type dentryVal struct {
	T     string `json:"t"` // "f" or "d"
	ID    string `json:"id"`
	Owner int    `json:"owner,omitempty"` // dirs: owning metadata server
	Base  int    `json:"base,omitempty"`  // files: first stripe target
}

// FS is a simulated OrangeFS deployment.
type FS struct {
	*pfs.Cluster
	conf pfs.Config

	nextDirID  int
	nextFileID int
	nextSeq    int
	// nextPage allocates log-structured DB pages per (proc, db). Page
	// indices are an allocation detail, derivable by scanning the file.
	nextPage map[string]int
	// pages memoises dbScan's page decodes; see dbScan.
	pages map[string][]record
}

// maxPages caps an FS's page memo; on overflow the memo is cleared (the
// policy of the engine's recovered-outcome cache).
const maxPages = 4096

// New creates an OrangeFS deployment and initialises the root directory.
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
		nextSeq:    1,
		nextPage:   map[string]int{},
		pages:      map[string][]record{},
	}
	for i := 0; i < conf.MetaServers; i++ {
		fs := f.meta(i).FS
		must(fs.Mkdir("/db"))
		must(fs.Create("/db/keyval.db"))
		must(fs.Create("/db/attrs.db"))
	}
	for i := 0; i < conf.StorageServers; i++ {
		must(f.storage(i).FS.Mkdir("/bstreams"))
	}
	return f
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("orangefs: setup: %v", err))
	}
}

// Name implements pfs.FileSystem.
func (f *FS) Name() string { return "orangefs" }

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

// dbTxn writes the given records as ONE transaction: a single page write
// (Berkeley DB transactions commit atomically through the DB's own log)
// followed by the fdatasync of Figure 9b. Must run inside an RPC handler so
// the ops pick up the caller edge. The store is log-structured: each
// transaction gets a fresh page and the highest sequence number per key
// wins at scan time.
func (f *FS) dbTxn(mi int, db string, recs []record, tag string) error {
	proc := f.metaProc(mi)
	dbPath := "/db/" + db
	slot := proc + "|" + dbPath
	page := f.nextPage[slot]
	f.nextPage[slot]++
	for i := range recs {
		recs[i].Seq = f.nextSeq
		f.nextSeq++
	}
	buf, err := json.Marshal(recs)
	if err != nil {
		return err
	}
	if len(buf) > PageSize {
		return fmt.Errorf("orangefs: transaction of %d records exceeds page size", len(recs))
	}
	padded := make([]byte, PageSize)
	copy(padded, buf)
	m := f.meta(mi)
	if err := m.Do(f.Rec, vfs.Op{Kind: vfs.OpWrite, Path: dbPath, Offset: int64(page) * PageSize, Data: padded}, dbPath, tag); err != nil {
		return err
	}
	return m.DoSync(f.Rec, dbPath, dbPath, true)
}

// dbPut writes (or tombstones) a single record in db on metadata server mi.
func (f *FS) dbPut(mi int, db, key, val string, del bool, tag string) error {
	return f.dbTxn(mi, db, []record{{K: key, V: val, Del: del}}, tag)
}

// dbScan reads every record of db on metadata server mi; for each key the
// record with the highest sequence number wins. Unparseable pages are
// skipped (a lost page is a lost transaction).
func (f *FS) dbScan(mi int, db string) map[string]record {
	data, err := f.meta(mi).FS.Read("/db/" + db)
	if err != nil {
		return map[string]record{}
	}
	out := map[string]record{}
	for off := 0; off+PageSize <= len(data); off += PageSize {
		page := data[off : off+PageSize]
		if end := bytes.IndexByte(page, 0); end >= 0 {
			page = page[:end]
		}
		for _, rec := range f.decodePage(page) {
			if rec.K == "" {
				continue
			}
			if old, ok := out[rec.K]; !ok || rec.Seq > old.Seq {
				out[rec.K] = rec
			}
		}
	}
	return out
}

// decodePage returns a page's records, nil for a page that does not decode
// (it contributes no records, like an empty one). Decoding is a pure
// function of the bytes, so results are memoised per FS; a memoised slice
// is shared by every later scan and must not be modified.
func (f *FS) decodePage(page []byte) []record {
	if recs, hit := f.pages[string(page)]; hit {
		return recs
	}
	var recs []record
	if err := json.Unmarshal(page, &recs); err != nil {
		recs = nil
	}
	if len(f.pages) >= maxPages {
		f.pages = map[string][]record{}
	}
	f.pages[string(page)] = recs
	return recs
}

// dbGet returns the live value of key in db on server mi.
func (f *FS) dbGet(mi int, db, key string) (string, bool) {
	rec, ok := f.dbScan(mi, db)[key]
	if !ok || rec.Del {
		return "", false
	}
	return rec.V, true
}

type dirRef struct {
	owner int
	id    string
}

type fileRef struct {
	dir  dirRef
	name string
	fid  string
	base int
}

func splitPath(p string) (dir, name string) {
	p = vfs.Clean(p)
	i := strings.LastIndexByte(p, '/')
	if i == 0 {
		return "/", p[1:]
	}
	return p[:i], p[i+1:]
}

func (f *FS) resolveDir(path string) (dirRef, error) {
	cur := dirRef{owner: 0, id: "root"}
	path = vfs.Clean(path)
	if path == "/" {
		return cur, nil
	}
	for _, comp := range strings.Split(strings.TrimPrefix(path, "/"), "/") {
		v, ok := f.dbGet(cur.owner, "keyval.db", "d:"+cur.id+":"+comp)
		if !ok {
			return dirRef{}, fmt.Errorf("orangefs: %q: no such directory", path)
		}
		var dv dentryVal
		if err := json.Unmarshal([]byte(v), &dv); err != nil || dv.T != "d" {
			return dirRef{}, fmt.Errorf("orangefs: %q: not a directory", path)
		}
		cur = dirRef{owner: dv.Owner, id: dv.ID}
	}
	return cur, nil
}

func (f *FS) resolveFile(path string) (fileRef, error) {
	dir, name := splitPath(path)
	dr, err := f.resolveDir(dir)
	if err != nil {
		return fileRef{}, err
	}
	v, ok := f.dbGet(dr.owner, "keyval.db", "d:"+dr.id+":"+name)
	if !ok {
		return fileRef{}, fmt.Errorf("orangefs: %q: no such file", path)
	}
	var dv dentryVal
	if err := json.Unmarshal([]byte(v), &dv); err != nil || dv.T != "f" {
		return fileRef{}, fmt.Errorf("orangefs: %q: not a regular file", path)
	}
	return fileRef{dir: dr, name: name, fid: dv.ID, base: dv.Base}, nil
}

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

func (f *FS) pickDirOwner(path string) int {
	if f.conf.DirPlacement != nil {
		if o, ok := f.conf.DirPlacement[vfs.Clean(path)]; ok {
			return o % f.conf.MetaServers
		}
	}
	return f.nextDirID % f.conf.MetaServers
}

func marshalDentry(dv dentryVal) string {
	b, _ := json.Marshal(dv)
	return string(b)
}

type client struct {
	fs   *FS
	proc string
}

func (c *client) Proc() string { return c.proc }

// Create adds the dentry and attribute records on the metadata server and
// creates the bstream on the base storage target.
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
		err2 = firstErr(err2, f.dbPut(dr.owner, "keyval.db", "d:"+dr.id+":"+name,
			marshalDentry(dentryVal{T: "f", ID: fid, Base: base}), false, "keyval.db"))
		err2 = firstErr(err2, f.dbPut(dr.owner, "attrs.db", "a:"+fid, "size=0", false, "attrs.db"))
	})
	f.RPC(c.proc, f.storageProc(base), func() {
		s := f.storage(base)
		err2 = firstErr(err2, s.Do(f.Rec, vfs.Op{Kind: vfs.OpCreate, Path: "/bstreams/" + fid + ".bstream"}, fid, "bstream"))
	})
	return err2
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// Mkdir adds the dentry on the parent's owner and attributes on the new
// directory's owner.
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
		err2 = firstErr(err2, f.dbPut(dr.owner, "keyval.db", "d:"+dr.id+":"+name,
			marshalDentry(dentryVal{T: "d", ID: id, Owner: owner}), false, "keyval.db"))
	})
	f.RPC(c.proc, f.metaProc(owner), func() {
		err2 = firstErr(err2, f.dbPut(owner, "attrs.db", "a:"+id, "dir", false, "attrs.db"))
	})
	return err2
}

func (c *client) bstream(fid string) string { return "/bstreams/" + fid + ".bstream" }

// WriteAt stripes data across storage servers into the bstream files.
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
			b := c.bstream(fr.fid)
			if !s.FS.Exists(b) {
				err2 = firstErr(err2, s.Do(f.Rec, vfs.Op{Kind: vfs.OpCreate, Path: b}, fr.fid, "bstream"))
			}
			sz, _ := s.FS.Size(b)
			op := vfs.Op{Kind: vfs.OpWrite, Path: b, Offset: st.LocalOffset, Data: st.Data}
			if st.LocalOffset == sz {
				op = vfs.Op{Kind: vfs.OpAppend, Path: b, Data: st.Data}
			}
			err2 = firstErr(err2, s.Do(f.Rec, op, fr.fid, f.DataTag("bstream")))
		})
	}
	return err2
}

// Append appends at end of file.
func (c *client) Append(path string, data []byte) error {
	f := c.fs
	fr, err := f.resolveFile(path)
	if err != nil {
		return err
	}
	lens := make([]int64, f.conf.StorageServers)
	for i := range lens {
		if sz, err := f.storage(i).FS.Size(c.bstream(fr.fid)); err == nil {
			lens[i] = sz
		}
	}
	return c.WriteAt(path, pfs.UnstripeSize(lens, f.conf.StorageServers, f.conf.StripeSize, fr.base), data)
}

// Read reassembles the file.
func (c *client) Read(path string) ([]byte, error) {
	f := c.fs
	fr, err := f.resolveFile(path)
	if err != nil {
		return nil, err
	}
	return f.readFile(fr.fid, fr.base), nil
}

func (f *FS) readFile(fid string, base int) []byte {
	return pfs.ReassembleFile(f.conf.StorageServers, f.conf.StripeSize, base, func(srv int) []byte {
		b, err := f.storage(srv).FS.Read("/bstreams/" + fid + ".bstream")
		if err != nil {
			return nil
		}
		return b
	})
}

// Rename implements Figure 9b: the replaced file's bstream is renamed to a
// stranded name before the metadata commit and unlinked only afterwards,
// which (together with per-update fdatasync) closes BeeGFS's bug #2.
func (c *client) Rename(from, to string) error {
	f := c.fs
	fr, err := f.resolveFile(from)
	if err != nil {
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
	var old fileRef
	hasOld := false
	if o, err := f.resolveFile(to); err == nil {
		old, hasOld = o, true
	}

	f.RecordClientOp(c.proc, "rename", vfs.Clean(from), vfs.Clean(to), 0, nil)
	defer f.PopClient(c.proc)

	var err2 error
	// Step 1: strand the replaced bstream (data preserved for recovery).
	if hasOld {
		for i := 0; i < f.conf.StorageServers; i++ {
			srv := i
			if !f.storage(srv).FS.Exists(c.bstream(old.fid)) {
				continue
			}
			f.RPC(c.proc, f.storageProc(srv), func() {
				s := f.storage(srv)
				err2 = firstErr(err2, s.Do(f.Rec, vfs.Op{
					Kind: vfs.OpRename, Path: c.bstream(old.fid), Path2: "/bstreams/stranded-" + old.fid,
				}, old.fid, "bstream"))
			})
		}
	}
	// Step 2: metadata commit. Updates on one metadata server are a single
	// DB transaction (atomic); cross-server renames need two transactions,
	// which is the root of the CR bug.
	sameServer := fr.dir.owner == dst.owner
	f.RPC(c.proc, f.metaProc(dst.owner), func() {
		recs := []record{{
			K: "d:" + dst.id + ":" + toName,
			V: marshalDentry(dentryVal{T: "f", ID: fr.fid, Base: fr.base}),
		}}
		if sameServer && (fr.dir.id != dst.id || fr.name != toName) {
			recs = append(recs, record{K: "d:" + fr.dir.id + ":" + fr.name, Del: true})
		}
		err2 = firstErr(err2, f.dbTxn(dst.owner, "keyval.db", recs, "keyval.db"))
		err2 = firstErr(err2, f.dbPut(dst.owner, "attrs.db", "a:"+fr.fid, "renamed", false, "attrs.db"))
	})
	if !sameServer {
		f.RPC(c.proc, f.metaProc(fr.dir.owner), func() {
			err2 = firstErr(err2, f.dbPut(fr.dir.owner, "keyval.db", "d:"+fr.dir.id+":"+fr.name,
				"", true, "keyval.db"))
		})
	}
	// Step 3: drop the stranded bstream after the commit.
	if hasOld {
		for i := 0; i < f.conf.StorageServers; i++ {
			srv := i
			if !f.storage(srv).FS.Exists("/bstreams/stranded-" + old.fid) {
				continue
			}
			f.RPC(c.proc, f.storageProc(srv), func() {
				s := f.storage(srv)
				err2 = firstErr(err2, s.Do(f.Rec, vfs.Op{
					Kind: vfs.OpUnlink, Path: "/bstreams/stranded-" + old.fid,
				}, old.fid, "bstream"))
			})
		}
	}
	return err2
}

// renameDir renames a directory entry within the same parent.
func (c *client) renameDir(from, to string) error {
	f := c.fs
	fromParent, fromName := splitPath(from)
	toParent, toName := splitPath(to)
	if vfs.Clean(fromParent) != vfs.Clean(toParent) {
		return fmt.Errorf("orangefs: cross-directory dir rename not supported")
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
		err2 = firstErr(err2, f.dbTxn(pr.owner, "keyval.db", []record{
			{K: "d:" + pr.id + ":" + toName, V: marshalDentry(dentryVal{T: "d", ID: dr.id, Owner: dr.owner})},
			{K: "d:" + pr.id + ":" + fromName, Del: true},
		}, "keyval.db"))
	})
	return err2
}

// Unlink tombstones the metadata records and removes the bstreams.
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
		err2 = firstErr(err2, f.dbPut(fr.dir.owner, "keyval.db", "d:"+fr.dir.id+":"+fr.name, "", true, "keyval.db"))
		err2 = firstErr(err2, f.dbPut(fr.dir.owner, "attrs.db", "a:"+fr.fid, "", true, "attrs.db"))
	})
	for i := 0; i < f.conf.StorageServers; i++ {
		srv := i
		if !f.storage(srv).FS.Exists(c.bstream(fr.fid)) {
			continue
		}
		f.RPC(c.proc, f.storageProc(srv), func() {
			s := f.storage(srv)
			err2 = firstErr(err2, s.Do(f.Rec, vfs.Op{Kind: vfs.OpUnlink, Path: c.bstream(fr.fid)}, fr.fid, "bstream"))
		})
	}
	return err2
}

// Fsync flushes the file's bstreams on their storage servers.
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
		if !f.storage(srv).FS.Exists(c.bstream(fr.fid)) {
			continue
		}
		f.RPC(c.proc, f.storageProc(srv), func() {
			_ = f.storage(srv).DoSync(f.Rec, c.bstream(fr.fid), fr.fid, false)
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

// Recover implements pvfs2-fsck: it recovers stranded bstreams that are
// still referenced by the database and removes those that are not.
func (f *FS) Recover() error {
	defer f.TimeOp("pfs/recover")()
	// Collect referenced file IDs across all metadata servers.
	referenced := map[string]bool{}
	for mi := 0; mi < f.conf.MetaServers; mi++ {
		for k, rec := range f.dbScan(mi, "keyval.db") {
			if rec.Del || !strings.HasPrefix(k, "d:") {
				continue
			}
			var dv dentryVal
			if json.Unmarshal([]byte(rec.V), &dv) == nil && dv.T == "f" {
				referenced[dv.ID] = true
			}
		}
	}
	for si := 0; si < f.conf.StorageServers; si++ {
		s := f.storage(si).FS
		entries, err := s.List("/bstreams")
		if err != nil {
			continue
		}
		for _, e := range entries {
			name := e[strings.LastIndexByte(e, '/')+1:]
			if !strings.HasPrefix(name, "stranded-") {
				continue
			}
			fid := strings.TrimPrefix(name, "stranded-")
			live := "/bstreams/" + fid + ".bstream"
			if referenced[fid] && !s.Exists(live) {
				_ = s.Rename(e, live)
			} else {
				_ = s.Unlink(e)
			}
		}
	}
	return nil
}

// Mount materialises the logical namespace by walking the databases.
func (f *FS) Mount() (*pfs.Tree, error) {
	defer f.TimeOp("pfs/mount")()
	t := pfs.NewTree()
	var walk func(path string, dr dirRef) error
	walk = func(path string, dr dirRef) error {
		if dr.owner >= f.conf.MetaServers {
			return fmt.Errorf("orangefs: mount: bad owner %d", dr.owner)
		}
		prefix := "d:" + dr.id + ":"
		for k, rec := range f.dbScan(dr.owner, "keyval.db") {
			if rec.Del || !strings.HasPrefix(k, prefix) {
				continue
			}
			name := strings.TrimPrefix(k, prefix)
			child := vfs.Clean(path + "/" + name)
			var dv dentryVal
			if err := json.Unmarshal([]byte(rec.V), &dv); err != nil {
				return fmt.Errorf("orangefs: mount: corrupt dentry %q: %v", k, err)
			}
			switch dv.T {
			case "d":
				t.AddDir(child)
				if err := walk(child, dirRef{owner: dv.Owner, id: dv.ID}); err != nil {
					return err
				}
			case "f":
				t.AddFile(child, f.readFile(dv.ID, dv.Base))
			default:
				return fmt.Errorf("orangefs: mount: unknown dentry type %q", dv.T)
			}
		}
		return nil
	}
	if err := walk("/", dirRef{owner: 0, id: "root"}); err != nil {
		return nil, err
	}
	return t, nil
}
