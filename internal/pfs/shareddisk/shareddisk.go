// Package shareddisk implements the kernel-level, block-based parallel file
// system substrate shared by the GPFS and Lustre simulations (paper §2.1:
// "Other PFSs such as GPFS directly operate atop the block I/O interface",
// traced as SCSI commands through iSCSI, Figure 7).
//
// Each server owns a block device holding
//
//	LBA 0                superblock {root ino}
//	LBA 1                allocation map {used inos owned by this server}
//	LBA 100+2*ino        inode block {ino, dir, size, base}
//	LBA 101+2*ino        directory entries block {name -> ino}
//	LBA 100000+256*ino+k data block k of file ino (on its stripe server)
//	LBA 1000000+seq      metadata redo log record
//
// Metadata operations are transactions: a log record (the redo for every
// metadata block write of the op) followed by the in-place writes — the
// write-ahead pattern of the paper's Figure 9d, where the ARVR rename
// produces the atomic group {log, parent dir, file inode, parent dir
// inode}. File data is NOT logged (metadata-only journaling), which is why
// a lost data write survives recovery as data loss.
//
// The Policy separates GPFS from Lustre:
//
//   - GPFS (Barriers=false) issues no SCSI barriers, so block writes may
//     persist in any order; partially persisted atomic groups survive
//     recovery as data or metadata loss (paper bug #3) and writes of
//     different transactions reorder (bugs #4, #5).
//   - Lustre (Barriers=true) ends every per-server write group with
//     scsi_synchronize_cache ("properly aggregates intermediate changes
//     and invokes accurate disk barriers"), making persistence causal: no
//     POSIX-level bugs, exactly as the paper found.
package shareddisk

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
	"strings"

	"paracrash/internal/pfs"
	"paracrash/internal/trace"
	"paracrash/internal/vfs"
)

// Policy configures the concrete file system built on the shared-disk
// substrate.
type Policy struct {
	// FSName is the reported file system name ("gpfs", "lustre").
	FSName string
	// Barriers controls whether every per-server write group ends with a
	// SCSI barrier (Lustre) or not (GPFS).
	Barriers bool
	// ReplayLog controls recovery: Lustre's ldiskfs replays its journal
	// (committed transactions are redone from the log), while GPFS's
	// mmfsck is a structural salvager that scans and fixes the on-disk
	// structures without redoing logged transactions — which is why a
	// partially persisted atomic group survives it as data or metadata
	// loss (paper bug #3, "accept all mmfsck fixes").
	ReplayLog bool
}

// Block layout constants.
const (
	lbaSuper   = 0
	lbaAlloc   = 1
	lbaInodes  = 100
	lbaData    = 100000
	lbaLog     = 1000000
	dataBlocks = 256 // max data blocks per file per server
)

func inodeLBA(ino int) int64   { return lbaInodes + 2*int64(ino) }
func entriesLBA(ino int) int64 { return lbaInodes + 2*int64(ino) + 1 }
func dataLBA(ino, k int) int64 { return lbaData + int64(ino)*dataBlocks + int64(k) }

// superBlock is the LBA 0 content.
type superBlock struct {
	Root int `json:"root"`
}

// allocBlock is the LBA 1 content: the inos this server has allocated.
type allocBlock struct {
	Used []int `json:"used"`
}

// inodeBlock describes a file or directory.
type inodeBlock struct {
	Ino  int   `json:"ino"`
	Dir  bool  `json:"dir"`
	Size int64 `json:"size"`
	Base int   `json:"base"` // first stripe target for file data
}

// entriesBlock is a directory's content.
type entriesBlock struct {
	Entries map[string]int `json:"entries"`
}

// logWrite is one redo entry: a metadata block image on a server.
type logWrite struct {
	Srv  int             `json:"srv"`
	LBA  int64           `json:"lba"`
	Data json.RawMessage `json:"data"`
}

// logRecord is a transaction's redo log block.
type logRecord struct {
	Seq    int        `json:"seq"`
	Writes []logWrite `json:"writes"`
}

// FS is a simulated shared-disk parallel file system.
type FS struct {
	*pfs.Cluster
	policy Policy

	nextIno int
	nextSeq int

	// memo holds readBlock's decodes; see readBlock.
	memo map[memoKey]decoded
}

// maxDecoded caps an FS's decode memo; on overflow the memo is cleared
// (the policy of the engine's recovered-outcome cache).
const maxDecoded = 4096

// memoKey is a decode's input: the same bytes may be decoded as different
// block types, so the type is part of the key.
type memoKey struct {
	typ  reflect.Type
	data string
}

// decoded is one memoised readBlock result: the decoded value (a T) and
// whether decoding succeeded.
type decoded struct {
	v  any
	ok bool
}

// New creates a deployment with conf.StorageServers block servers (the
// paper runs GPFS and Lustre with two servers that each manage data and
// metadata) and formats the root directory.
func New(conf pfs.Config, policy Policy, rec *trace.Recorder) *FS {
	n := conf.StorageServers
	if n <= 0 {
		n = 2
	}
	f := &FS{
		Cluster: pfs.NewBlockCluster(conf, rec, pfs.ProcNames("server", n)),
		policy:  policy,
		nextIno: 2, // root is ino 1
		nextSeq: 1,
		memo:    map[memoKey]decoded{},
	}
	// mkfs (untraced, direct device writes).
	rootOwner := f.owner(1)
	for i := 0; i < n; i++ {
		used := []int{}
		if i == rootOwner {
			used = []int{1}
		}
		f.server(i).Dev.Write(lbaSuper, mustJSON(superBlock{Root: 1}))
		f.server(i).Dev.Write(lbaAlloc, mustJSON(allocBlock{Used: used}))
	}
	f.server(rootOwner).Dev.Write(inodeLBA(1), mustJSON(inodeBlock{Ino: 1, Dir: true}))
	f.server(rootOwner).Dev.Write(entriesLBA(1), mustJSON(entriesBlock{Entries: map[string]int{}}))
	return f
}

// allocWith returns server srv's allocation map content with ino added or
// removed, reading the current map from disk (the FS keeps no state outside
// its stores).
func (f *FS) allocWith(srv, ino int, add bool) allocBlock {
	used := map[int]bool{}
	if ab, ok := readBlock[allocBlock](f, srv, lbaAlloc); ok {
		for _, i := range ab.Used {
			used[i] = true
		}
	}
	if add {
		used[ino] = true
	} else {
		delete(used, ino)
	}
	return allocBlock{Used: sortedInos(used)}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("shareddisk: marshal: %v", err))
	}
	return b
}

func sortedInos(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for i := range m {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// Name implements pfs.FileSystem.
func (f *FS) Name() string { return f.policy.FSName }

func (f *FS) servers() int                  { return len(f.BlockServers) }
func (f *FS) server(i int) *pfs.BlockServer { return f.BlockServers[i] }

// owner returns the metadata owner server of an ino.
func (f *FS) owner(ino int) int { return ino % f.servers() }

// readBlock unmarshals the current content of a block. Decoding is a pure
// function of the bytes, so results (failures too) are memoised per FS by
// (T, bytes). A memoised value is shared by every later read of the same
// bytes: callers must treat its maps and slices as read-only and copy them
// before changing them.
func readBlock[T any](f *FS, srv int, lba int64) (T, bool) {
	var out T
	b, ok := f.server(srv).Dev.View(lba)
	if !ok {
		return out, false
	}
	typ := reflect.TypeFor[T]()
	if d, hit := f.memo[memoKey{typ, string(b)}]; hit {
		return d.v.(T), d.ok
	}
	err := json.Unmarshal(b, &out)
	if len(f.memo) >= maxDecoded {
		f.memo = map[memoKey]decoded{}
	}
	f.memo[memoKey{typ, string(b)}] = decoded{out, err == nil}
	return out, err == nil
}

// txn is a metadata transaction under construction.
type txn struct {
	fs     *FS
	writes []logWrite
}

func (f *FS) newTxn() *txn { return &txn{fs: f} }

// add queues a metadata block write.
func (t *txn) add(srv int, lba int64, v any) {
	t.writes = append(t.writes, logWrite{Srv: srv, LBA: lba, Data: mustJSON(v)})
}

// commit emits the transaction: the redo log record on the home server,
// the policy barrier, then the in-place writes (each server's group ending
// with a barrier under the Lustre policy). Must run inside RPC handlers so
// ops pick up caller edges; commit issues its own per-server RPCs.
func (t *txn) commit(clientProc string, home int, tag string) {
	f := t.fs
	rec := logRecord{Seq: f.nextSeq, Writes: t.writes}
	f.nextSeq++

	f.RPC(clientProc, f.server(home).Proc, func() {
		s := f.server(home)
		s.Write(f.Rec, lbaLog+int64(rec.Seq), mustJSON(rec), "log")
		if f.policy.Barriers {
			s.Sync(f.Rec)
		}
	})
	// In-place writes, grouped by server.
	byServer := map[int][]logWrite{}
	var order []int
	for _, w := range t.writes {
		if _, ok := byServer[w.Srv]; !ok {
			order = append(order, w.Srv)
		}
		byServer[w.Srv] = append(byServer[w.Srv], w)
	}
	for _, srv := range order {
		srv := srv
		f.RPC(clientProc, f.server(srv).Proc, func() {
			s := f.server(srv)
			for _, w := range byServer[srv] {
				s.Write(f.Rec, w.LBA, w.Data, tagOf(w.LBA, tag))
			}
			if f.policy.Barriers {
				s.Sync(f.Rec)
			}
		})
	}
}

// tagOf labels an in-place write by its block type for the reports
// (matching Figure 9d's "log file", "parent dir", "inode" vocabulary).
func tagOf(lba int64, fallback string) string {
	switch {
	case lba == lbaSuper:
		return "superblock"
	case lba == lbaAlloc:
		return "alloc_map"
	case lba >= lbaLog:
		return "log"
	case lba >= lbaData:
		return "data"
	case (lba-lbaInodes)%2 == 0:
		return "inode"
	default:
		return "dir_entries"
	}
}

// Client implements pfs.FileSystem.
func (f *FS) Client(id int) pfs.Client {
	return &client{fs: f, proc: pfs.ClientProc(id)}
}

// resolve walks the directory structures to find the ino of a path.
func (f *FS) resolve(path string) (int, error) {
	sb, ok := readBlock[superBlock](f, f.owner(1), lbaSuper)
	if !ok {
		return 0, fmt.Errorf("%s: superblock unreadable", f.policy.FSName)
	}
	cur := sb.Root
	path = vfs.Clean(path)
	if path == "/" {
		return cur, nil
	}
	for _, comp := range strings.Split(strings.TrimPrefix(path, "/"), "/") {
		ent, ok := readBlock[entriesBlock](f, f.owner(cur), entriesLBA(cur))
		if !ok {
			return 0, fmt.Errorf("%s: %q: directory entries unreadable", f.policy.FSName, path)
		}
		next, ok := ent.Entries[comp]
		if !ok {
			return 0, fmt.Errorf("%s: %q: no such entry", f.policy.FSName, path)
		}
		cur = next
	}
	return cur, nil
}

func (f *FS) inode(ino int) (inodeBlock, bool) {
	return readBlock[inodeBlock](f, f.owner(ino), inodeLBA(ino))
}

// entriesOf reads a directory's entry map (copy).
func (f *FS) entriesOf(ino int) (map[string]int, error) {
	ent, ok := readBlock[entriesBlock](f, f.owner(ino), entriesLBA(ino))
	if !ok {
		return nil, fmt.Errorf("%s: entries of ino %d unreadable", f.policy.FSName, ino)
	}
	out := map[string]int{}
	for k, v := range ent.Entries {
		out[k] = v
	}
	return out, nil
}

type client struct {
	fs   *FS
	proc string
}

func (c *client) Proc() string { return c.proc }

// Create allocates an inode and runs the creation transaction: log, new
// inode, parent entries, parent inode (mtime), allocation map — the
// Figure 9d atomic group.
func (c *client) Create(path string) error {
	f := c.fs
	dir, name := vfs.Split(path)
	pino, err := f.resolve(dir)
	if err != nil {
		return err
	}
	pin, ok := f.inode(pino)
	if !ok || !pin.Dir {
		return fmt.Errorf("%s: %q: parent is not a directory", f.policy.FSName, dir)
	}
	entries, err := f.entriesOf(pino)
	if err != nil {
		return err
	}
	ino := f.nextIno
	f.nextIno++
	base := f.Conf.FileBase(path, f.servers(), false)
	owner := f.owner(ino)
	entries[name] = ino

	f.RecordClientOp(c.proc, "creat", vfs.Clean(path), "", 0, nil)
	defer f.PopClient(c.proc)

	t := f.newTxn()
	t.add(owner, inodeLBA(ino), inodeBlock{Ino: ino, Base: base})
	t.add(f.owner(pino), entriesLBA(pino), entriesBlock{Entries: entries})
	t.add(f.owner(pino), inodeLBA(pino), pin) // mtime touch
	t.add(owner, lbaAlloc, f.allocWith(owner, ino, true))
	t.commit(c.proc, owner, "meta")
	return nil
}

// Mkdir creates a directory inode with an empty entries block.
func (c *client) Mkdir(path string) error {
	f := c.fs
	dir, name := vfs.Split(path)
	pino, err := f.resolve(dir)
	if err != nil {
		return err
	}
	pin, ok := f.inode(pino)
	if !ok || !pin.Dir {
		return fmt.Errorf("%s: %q: parent is not a directory", f.policy.FSName, dir)
	}
	entries, err := f.entriesOf(pino)
	if err != nil {
		return err
	}
	ino := f.nextIno
	f.nextIno++
	owner := f.owner(ino)
	entries[name] = ino

	f.RecordClientOp(c.proc, "mkdir", vfs.Clean(path), "", 0, nil)
	defer f.PopClient(c.proc)

	t := f.newTxn()
	t.add(owner, inodeLBA(ino), inodeBlock{Ino: ino, Dir: true})
	t.add(owner, entriesLBA(ino), entriesBlock{Entries: map[string]int{}})
	t.add(f.owner(pino), entriesLBA(pino), entriesBlock{Entries: entries})
	t.add(f.owner(pino), inodeLBA(pino), pin)
	t.add(owner, lbaAlloc, f.allocWith(owner, ino, true))
	t.commit(c.proc, owner, "meta")
	return nil
}

// WriteAt writes file data block-by-block (data is not journaled), then
// commits a size-update transaction. Under the Lustre policy each data
// server's group ends with a barrier before the metadata commit, modelling
// ordered-mode journaling.
func (c *client) WriteAt(path string, off int64, data []byte) error {
	f := c.fs
	ino, err := f.resolve(path)
	if err != nil {
		return err
	}
	in, ok := f.inode(ino)
	if !ok || in.Dir {
		return fmt.Errorf("%s: %q: not a regular file", f.policy.FSName, path)
	}

	f.RecordClientOp(c.proc, "pwrite", vfs.Clean(path), "", off, data)
	defer f.PopClient(c.proc)

	stripes := pfs.StripeRange(off, data, f.servers(), f.Conf.StripeSize, in.Base)
	byServer := map[int][]pfs.Stripe{}
	var order []int
	for _, st := range stripes {
		if _, ok := byServer[st.Server]; !ok {
			order = append(order, st.Server)
		}
		byServer[st.Server] = append(byServer[st.Server], st)
	}
	for _, srv := range order {
		srv := srv
		f.RPC(c.proc, f.server(srv).Proc, func() {
			s := f.server(srv)
			for _, st := range byServer[srv] {
				k := int(st.LocalOffset / f.Conf.StripeSize)
				// Read-modify-write the whole stripe block.
				block, _ := s.Dev.Read(dataLBA(ino, k))
				inBlock := st.LocalOffset % f.Conf.StripeSize
				need := inBlock + int64(len(st.Data))
				if int64(len(block)) < need {
					grown := make([]byte, need)
					copy(grown, block)
					block = grown
				}
				copy(block[inBlock:], st.Data)
				s.Write(f.Rec, dataLBA(ino, k), block, f.DataTag("data"))
			}
			if f.policy.Barriers {
				s.Sync(f.Rec)
			}
		})
	}
	if end := off + int64(len(data)); end > in.Size {
		in.Size = end
	}
	t := f.newTxn()
	t.add(f.owner(ino), inodeLBA(ino), in)
	t.commit(c.proc, f.owner(ino), "meta")
	return nil
}

// Append appends at end of file.
func (c *client) Append(path string, data []byte) error {
	f := c.fs
	ino, err := f.resolve(path)
	if err != nil {
		return err
	}
	in, _ := f.inode(ino)
	return c.WriteAt(path, in.Size, data)
}

// Read reassembles file content from the data blocks.
func (c *client) Read(path string) ([]byte, error) {
	f := c.fs
	ino, err := f.resolve(path)
	if err != nil {
		return nil, err
	}
	in, ok := f.inode(ino)
	if !ok {
		return nil, fmt.Errorf("%s: %q: inode unreadable", f.policy.FSName, path)
	}
	return f.readData(in), nil
}

// readData assembles a file's bytes from its data blocks, read in place:
// they are only copied out.
func (f *FS) readData(in inodeBlock) []byte {
	out := make([]byte, in.Size)
	ss := f.Conf.StripeSize
	for g := int64(0); g < in.Size; g += ss {
		stripe := g / ss
		srv := (in.Base + int(stripe)) % f.servers()
		k := int(stripe) / f.servers()
		block, ok := f.server(srv).Dev.View(dataLBA(in.Ino, k))
		if !ok {
			continue
		}
		n := ss
		if g+n > in.Size {
			n = in.Size - g
		}
		if int64(len(block)) < n {
			copy(out[g:g+int64(len(block))], block)
		} else {
			copy(out[g:g+n], block[:n])
		}
	}
	return out
}

// Rename updates the parent directory entries (and frees a replaced file's
// inode) in one transaction — the Figure 9d group.
func (c *client) Rename(from, to string) error {
	f := c.fs
	srcDir, srcName := vfs.Split(from)
	dstDir, dstName := vfs.Split(to)
	spino, err := f.resolve(srcDir)
	if err != nil {
		return err
	}
	dpino, err := f.resolve(dstDir)
	if err != nil {
		return err
	}
	srcEntries, err := f.entriesOf(spino)
	if err != nil {
		return err
	}
	ino, ok := srcEntries[srcName]
	if !ok {
		return fmt.Errorf("%s: %q: no such entry", f.policy.FSName, from)
	}
	in, _ := f.inode(ino)

	f.RecordClientOp(c.proc, "rename", vfs.Clean(from), vfs.Clean(to), 0, nil)
	defer f.PopClient(c.proc)

	t := f.newTxn()
	var oldIno int
	if spino == dpino {
		if old, ok := srcEntries[dstName]; ok {
			oldIno = old
		}
		delete(srcEntries, srcName)
		srcEntries[dstName] = ino
		t.add(f.owner(spino), entriesLBA(spino), entriesBlock{Entries: srcEntries})
	} else {
		dstEntries, err := f.entriesOf(dpino)
		if err != nil {
			return err
		}
		if old, ok := dstEntries[dstName]; ok {
			oldIno = old
		}
		delete(srcEntries, srcName)
		dstEntries[dstName] = ino
		t.add(f.owner(dpino), entriesLBA(dpino), entriesBlock{Entries: dstEntries})
		t.add(f.owner(spino), entriesLBA(spino), entriesBlock{Entries: srcEntries})
	}
	t.add(f.owner(ino), inodeLBA(ino), in) // mtime touch of the moved inode
	pin, _ := f.inode(dpino)
	t.add(f.owner(dpino), inodeLBA(dpino), pin)
	if oldIno != 0 {
		owner := f.owner(oldIno)
		t.add(owner, lbaAlloc, f.allocWith(owner, oldIno, false))
	}
	t.commit(c.proc, f.owner(dpino), "meta")
	return nil
}

// Unlink removes the entry and frees the inode.
func (c *client) Unlink(path string) error {
	f := c.fs
	dir, name := vfs.Split(path)
	pino, err := f.resolve(dir)
	if err != nil {
		return err
	}
	entries, err := f.entriesOf(pino)
	if err != nil {
		return err
	}
	ino, ok := entries[name]
	if !ok {
		return fmt.Errorf("%s: %q: no such entry", f.policy.FSName, path)
	}
	delete(entries, name)
	owner := f.owner(ino)

	f.RecordClientOp(c.proc, "unlink", vfs.Clean(path), "", 0, nil)
	defer f.PopClient(c.proc)

	t := f.newTxn()
	t.add(f.owner(pino), entriesLBA(pino), entriesBlock{Entries: entries})
	t.add(owner, lbaAlloc, f.allocWith(owner, ino, false))
	t.commit(c.proc, f.owner(pino), "meta")
	return nil
}

// Fsync issues barriers on the servers holding the file's data.
func (c *client) Fsync(path string) error {
	f := c.fs
	if _, err := f.resolve(path); err != nil {
		return err
	}
	f.RecordClientOp(c.proc, "fsync", vfs.Clean(path), "", 0, nil)
	defer f.PopClient(c.proc)
	for i := 0; i < f.servers(); i++ {
		srv := i
		f.RPC(c.proc, f.server(srv).Proc, func() {
			f.server(srv).Sync(f.Rec)
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

// Recover implements the file system's crash recovery:
//
//  1. journal replay (Lustre policy only): every readable log record is
//     re-applied in sequence order (then server, then LBA), restoring
//     committed transactions; only each block's last logged image is
//     installed, and only where the block does not hold it already;
//  2. structural pass "accepting all fixes" (mmfsck-style): directory
//     entries referencing unreadable or unallocated inodes are removed
//     (the paper's data loss and metadata loss consequences of bug #3).
func (f *FS) Recover() error {
	defer f.TimeOp("pfs/recover")()
	if f.policy.ReplayLog {
		type logAt struct {
			srv int
			lba int64
			rec logRecord
		}
		var logs []logAt
		for i := 0; i < f.servers(); i++ {
			f.server(i).Dev.Range(func(lba int64, _ []byte) bool {
				if lba >= lbaLog {
					if rec, ok := readBlock[logRecord](f, i, lba); ok {
						logs = append(logs, logAt{i, lba, rec})
					}
				}
				return true
			})
		}
		slices.SortFunc(logs, func(a, b logAt) int {
			return cmp.Or(cmp.Compare(a.rec.Seq, b.rec.Seq), cmp.Compare(a.srv, b.srv), cmp.Compare(a.lba, b.lba))
		})
		// Every logged write is a whole-block image, so replaying them in
		// order leaves each block with its last image: walk backwards and
		// install only that one, and only where the block does not hold it
		// already (redo replay is idempotent). The image is the decode
		// memo's, which nothing modifies, so the device may own it.
		type target struct {
			srv int
			lba int64
		}
		done := map[target]bool{}
		for k := len(logs) - 1; k >= 0; k-- {
			writes := logs[k].rec.Writes
			for j := len(writes) - 1; j >= 0; j-- {
				w := writes[j]
				if w.Srv < 0 || w.Srv >= f.servers() || done[target{w.Srv, w.LBA}] {
					continue
				}
				done[target{w.Srv, w.LBA}] = true
				dev := f.server(w.Srv).Dev
				if cur, ok := dev.View(w.LBA); !ok || !bytes.Equal(cur, w.Data) {
					dev.Write(w.LBA, w.Data)
				}
			}
		}
	}

	// Phase 2: structural fixes from the root down.
	sb, ok := readBlock[superBlock](f, f.owner(1), lbaSuper)
	if !ok {
		return fmt.Errorf("%s: fsck: superblock unreadable", f.policy.FSName)
	}
	allocated := map[int]bool{}
	for i := 0; i < f.servers(); i++ {
		if ab, ok := readBlock[allocBlock](f, i, lbaAlloc); ok {
			for _, ino := range ab.Used {
				allocated[ino] = true
			}
		}
	}
	var fix func(ino int) error
	fix = func(ino int) error {
		ent, ok := readBlock[entriesBlock](f, f.owner(ino), entriesLBA(ino))
		if !ok {
			// A directory with no entries block yet: materialise empty.
			f.server(f.owner(ino)).Dev.Write(entriesLBA(ino), mustJSON(entriesBlock{Entries: map[string]int{}}))
			return nil
		}
		kept, changed := ent.Entries, false
		for name, child := range ent.Entries {
			cin, ok := f.inode(child)
			if !ok || !allocated[child] || cin.Ino != child {
				if !changed { // ent is memoised: drop from a copy
					kept, changed = maps.Clone(ent.Entries), true
				}
				delete(kept, name) // accept the fix: drop the entry
				continue
			}
			if cin.Dir {
				if err := fix(child); err != nil {
					return err
				}
			}
		}
		if changed {
			f.server(f.owner(ino)).Dev.Write(entriesLBA(ino), mustJSON(entriesBlock{Entries: kept}))
		}
		return nil
	}
	return fix(sb.Root)
}

// Mount materialises the logical namespace by walking from the root.
func (f *FS) Mount() (*pfs.Tree, error) {
	defer f.TimeOp("pfs/mount")()
	sb, ok := readBlock[superBlock](f, f.owner(1), lbaSuper)
	if !ok {
		return nil, fmt.Errorf("%s: mount: superblock unreadable", f.policy.FSName)
	}
	t := pfs.NewTree()
	var walk func(path string, ino int) error
	walk = func(path string, ino int) error {
		ent, ok := readBlock[entriesBlock](f, f.owner(ino), entriesLBA(ino))
		if !ok {
			return nil // empty, unmaterialised directory
		}
		names := make([]string, 0, len(ent.Entries))
		for n := range ent.Entries {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, name := range names {
			child := ent.Entries[name]
			cin, ok := f.inode(child)
			if !ok {
				return fmt.Errorf("%s: mount: entry %q references unreadable inode %d", f.policy.FSName, name, child)
			}
			cpath := vfs.Clean(path + "/" + name)
			if cin.Dir {
				t.AddDir(cpath)
				if err := walk(cpath, child); err != nil {
					return err
				}
			} else {
				t.AddFile(cpath, f.readData(cin))
			}
		}
		return nil
	}
	if err := walk("/", sb.Root); err != nil {
		return nil, err
	}
	return t, nil
}
