// Package vfs implements an in-memory POSIX-like local file system used as
// the storage substrate of every user-level PFS server in the simulated
// stack (the paper's ext4 on each storage/metadata node).
//
// The file system supports the operation vocabulary that the traced PFS
// servers need — create, mkdir, pwrite, append, truncate, rename, link,
// unlink, rmdir, xattrs, fsync — plus the three capabilities crash
// emulation requires:
//
//   - replayable operations (Op / Apply) so crash states can be
//     reconstructed by applying op subsets to a snapshot;
//   - O(1) snapshots (Snapshot / Restore): the name and inode tables are
//     persistent, structurally-shared maps (package persist), so a snapshot
//     is a pointer copy and mutation copies only the changed path —
//     copy-on-write at inode granularity via an epoch ownership token;
//   - canonical state serialisation and hashing (Serialize / Hash) so
//     recovered states can be compared against golden states.
//
// Snapshot contract: an *FS returned by Snapshot must never be mutated.
// Restoring from it, reading it, and sharing it across goroutines are all
// safe; calling a mutating method on it would silently alias live state.
//
// Persistence semantics (which op must persist before which, under data /
// ordered / writeback journaling) are NOT implemented here; they are a
// relation over traced ops computed by package causality, exactly as in the
// paper's Algorithm 2.
package vfs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"paracrash/internal/persist"
)

// JournalMode selects the journaling mode of a local file system, which
// determines its persist-before relation (Algorithm 2 in the paper).
type JournalMode int

const (
	// JournalData is ext4 data journaling: all operations persist in their
	// execution (happens-before) order.
	JournalData JournalMode = iota
	// JournalOrdered is ext4 ordered mode: metadata operations persist in
	// order, and data persists before the metadata that follows it.
	JournalOrdered
	// JournalWriteback is ext4 writeback mode: only metadata operations are
	// mutually ordered; data may persist arbitrarily late.
	JournalWriteback
)

// String returns the mount-option name of the mode.
func (m JournalMode) String() string {
	switch m {
	case JournalData:
		return "data=journal"
	case JournalOrdered:
		return "data=ordered"
	case JournalWriteback:
		return "data=writeback"
	default:
		return fmt.Sprintf("journal(%d)", int(m))
	}
}

// OpKind enumerates replayable local file system operations.
type OpKind int

const (
	// OpCreate creates a regular file (like creat(2): truncates if exists).
	OpCreate OpKind = iota
	// OpMkdir creates a directory.
	OpMkdir
	// OpWrite writes Data at Offset (pwrite semantics, extends the file).
	OpWrite
	// OpAppend appends Data to the end of the file.
	OpAppend
	// OpTruncate sets the file size to Size.
	OpTruncate
	// OpRename renames Path to Path2 (replacing Path2 if it exists).
	OpRename
	// OpLink creates a hard link Path2 referring to Path's inode.
	OpLink
	// OpUnlink removes the name Path (file data freed at nlink==0).
	OpUnlink
	// OpRmdir removes the empty directory Path.
	OpRmdir
	// OpSetXattr sets extended attribute Name=Value on Path.
	OpSetXattr
	// OpRemoveXattr removes extended attribute Name from Path.
	OpRemoveXattr
	// OpSync is fsync/fdatasync: no state change, only a persistence point.
	OpSync
)

// String returns the syscall-like name of the op kind.
func (k OpKind) String() string {
	switch k {
	case OpCreate:
		return "creat"
	case OpMkdir:
		return "mkdir"
	case OpWrite:
		return "pwrite"
	case OpAppend:
		return "append"
	case OpTruncate:
		return "truncate"
	case OpRename:
		return "rename"
	case OpLink:
		return "link"
	case OpUnlink:
		return "unlink"
	case OpRmdir:
		return "rmdir"
	case OpSetXattr:
		return "setxattr"
	case OpRemoveXattr:
		return "removexattr"
	case OpSync:
		return "fsync"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Meta reports whether the op kind is a metadata operation for the purposes
// of journaling-mode persistence ordering.
func (k OpKind) Meta() bool {
	switch k {
	case OpWrite, OpAppend:
		return false
	default:
		return true
	}
}

// Op is a single replayable local file system operation.
type Op struct {
	Kind   OpKind
	Path   string
	Path2  string // rename destination / link new name
	Offset int64
	Size   int64
	Data   []byte
	Name   string // xattr name
	Value  []byte // xattr value
}

// String renders the op in strace-like form.
func (o Op) String() string {
	switch o.Kind {
	case OpWrite:
		return fmt.Sprintf("pwrite(%s, off=%d, len=%d)", o.Path, o.Offset, len(o.Data))
	case OpAppend:
		return fmt.Sprintf("append(%s, len=%d)", o.Path, len(o.Data))
	case OpTruncate:
		return fmt.Sprintf("truncate(%s, %d)", o.Path, o.Size)
	case OpRename:
		return fmt.Sprintf("rename(%s, %s)", o.Path, o.Path2)
	case OpLink:
		return fmt.Sprintf("link(%s, %s)", o.Path, o.Path2)
	case OpSetXattr:
		return fmt.Sprintf("setxattr(%s, %s)", o.Path, o.Name)
	case OpRemoveXattr:
		return fmt.Sprintf("removexattr(%s, %s)", o.Path, o.Name)
	default:
		return fmt.Sprintf("%s(%s)", o.Kind, o.Path)
	}
}

// epochCounter mints globally unique ownership tokens. Every FS value —
// live or snapshot — carries the epoch current when it last diverged from
// any other holder of the same trie roots; an inode is exclusively owned
// (safe to mutate in place) iff its epoch equals the owner's.
var epochCounter atomic.Uint64

func nextEpoch() uint64 { return epochCounter.Add(1) }

type inode struct {
	ino   int
	dir   bool
	data  []byte
	xattr map[string][]byte
	nlink int
	// epoch is the copy-on-write ownership token: the FS epoch under which
	// this inode was created or last cloned. After any Snapshot/Restore both
	// sharers hold fresh epochs, so a shared inode's epoch never matches
	// either side and the first write clones it.
	epoch uint64
}

func (in *inode) clone() *inode {
	c := &inode{ino: in.ino, dir: in.dir, nlink: in.nlink}
	c.data = append([]byte(nil), in.data...)
	if in.xattr != nil {
		c.xattr = make(map[string][]byte, len(in.xattr))
		for k, v := range in.xattr {
			c.xattr[k] = append([]byte(nil), v...)
		}
	}
	return c
}

// FS is an in-memory file system. The zero value is not usable; call New.
type FS struct {
	inodes  persist.Map[int, *inode]
	names   persist.Map[string, int] // canonical path -> ino
	nextIno int
	epoch   uint64
}

// New returns an empty file system containing only the root directory "/".
func New() *FS {
	fs := &FS{
		inodes: persist.NewMap[int, *inode](persist.IntHash),
		names:  persist.NewMap[string, int](persist.StringHash),
		epoch:  nextEpoch(),
	}
	root := &inode{ino: 0, dir: true, nlink: 1, epoch: fs.epoch}
	fs.inodes = fs.inodes.Set(0, root)
	fs.names = fs.names.Set("/", 0)
	fs.nextIno = 1
	return fs
}

// Clean canonicalises a path: ensures a single leading slash, no trailing
// slash (except root), collapses duplicate slashes.
func Clean(p string) string {
	if p == "" || p == "/" {
		return "/"
	}
	if isClean(p) {
		return p
	}
	parts := strings.Split(p, "/")
	out := make([]string, 0, len(parts))
	for _, s := range parts {
		if s != "" && s != "." {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return "/"
	}
	return "/" + strings.Join(out, "/")
}

// isClean reports whether p is already in canonical form — absolute, no
// empty or "." segments, no trailing slash — so Clean can return it without
// allocating. Nearly every path the servers resolve is already canonical,
// and lookup cleans on every call, so this fast path is hot.
func isClean(p string) bool {
	if p[0] != '/' || p[len(p)-1] == '/' {
		return false
	}
	for i := 0; i < len(p); i++ {
		if p[i] != '/' {
			continue
		}
		if p[i+1] == '/' {
			return false
		}
		if p[i+1] == '.' && (i+2 == len(p) || p[i+2] == '/') {
			return false
		}
	}
	return true
}

// Split splits the clean form of p into its parent directory and base name.
func Split(p string) (dir, name string) {
	p = Clean(p)
	i := strings.LastIndexByte(p, '/')
	if i == 0 {
		return "/", p[1:]
	}
	return p[:i], p[i+1:]
}

func (fs *FS) lookup(p string) (*inode, bool) {
	ino, ok := fs.names.Get(Clean(p))
	if !ok {
		return nil, false
	}
	in, ok := fs.inodes.Get(ino)
	return in, ok
}

// mutable returns the inode at p ready for in-place mutation: if the inode
// is shared with a snapshot (its epoch predates ours) it is cloned into the
// current epoch first and the clone installed in the inode table. This is
// the single copy-on-write gate every mutating method goes through.
func (fs *FS) mutable(p string) (*inode, bool) {
	in, ok := fs.lookup(p)
	if !ok {
		return nil, false
	}
	return fs.own(in), true
}

// own claims in for the current epoch, cloning if shared.
func (fs *FS) own(in *inode) *inode {
	if in.epoch == fs.epoch {
		return in
	}
	c := in.clone()
	c.epoch = fs.epoch
	fs.inodes = fs.inodes.Set(c.ino, c)
	return c
}

// Exists reports whether path exists (file or directory).
func (fs *FS) Exists(p string) bool {
	_, ok := fs.names.Get(Clean(p))
	return ok
}

// IsDir reports whether path exists and is a directory.
func (fs *FS) IsDir(p string) bool {
	in, ok := fs.lookup(p)
	return ok && in.dir
}

// checkParent verifies the parent directory of p exists.
func (fs *FS) checkParent(p string) error {
	par, _ := Split(p)
	in, ok := fs.lookup(par)
	if !ok {
		return fmt.Errorf("vfs: parent %q of %q does not exist", par, p)
	}
	if !in.dir {
		return fmt.Errorf("vfs: parent %q of %q is not a directory", par, p)
	}
	return nil
}

// Create creates (or truncates) a regular file at p.
func (fs *FS) Create(p string) error {
	p = Clean(p)
	if err := fs.checkParent(p); err != nil {
		return err
	}
	if in, ok := fs.lookup(p); ok {
		if in.dir {
			return fmt.Errorf("vfs: creat %q: is a directory", p)
		}
		fs.own(in).data = nil
		return nil
	}
	in := &inode{ino: fs.nextIno, nlink: 1, xattr: nil, epoch: fs.epoch}
	fs.nextIno++
	fs.inodes = fs.inodes.Set(in.ino, in)
	fs.names = fs.names.Set(p, in.ino)
	return nil
}

// Mkdir creates a directory at p.
func (fs *FS) Mkdir(p string) error {
	p = Clean(p)
	if fs.Exists(p) {
		return fmt.Errorf("vfs: mkdir %q: exists", p)
	}
	if err := fs.checkParent(p); err != nil {
		return err
	}
	in := &inode{ino: fs.nextIno, dir: true, nlink: 1, epoch: fs.epoch}
	fs.nextIno++
	fs.inodes = fs.inodes.Set(in.ino, in)
	fs.names = fs.names.Set(p, in.ino)
	return nil
}

// MkdirAll creates p and any missing ancestors.
func (fs *FS) MkdirAll(p string) error {
	p = Clean(p)
	if p == "/" || fs.IsDir(p) {
		return nil
	}
	dir, _ := Split(p)
	if err := fs.MkdirAll(dir); err != nil {
		return err
	}
	return fs.Mkdir(p)
}

// WriteAt writes data at offset off in file p, extending it as needed
// (zero-filling any gap, like pwrite past EOF).
func (fs *FS) WriteAt(p string, off int64, data []byte) error {
	in, ok := fs.mutable(p)
	if !ok {
		return fmt.Errorf("vfs: pwrite %q: no such file", p)
	}
	if in.dir {
		return fmt.Errorf("vfs: pwrite %q: is a directory", p)
	}
	end := off + int64(len(data))
	if int64(len(in.data)) < end {
		grown := make([]byte, end)
		copy(grown, in.data)
		in.data = grown
	}
	copy(in.data[off:end], data)
	return nil
}

// Append appends data to file p.
func (fs *FS) Append(p string, data []byte) error {
	in, ok := fs.mutable(p)
	if !ok {
		return fmt.Errorf("vfs: append %q: no such file", p)
	}
	if in.dir {
		return fmt.Errorf("vfs: append %q: is a directory", p)
	}
	in.data = append(in.data, data...)
	return nil
}

// Truncate sets the size of file p to size (zero-filling when growing).
func (fs *FS) Truncate(p string, size int64) error {
	in, ok := fs.mutable(p)
	if !ok {
		return fmt.Errorf("vfs: truncate %q: no such file", p)
	}
	if in.dir {
		return fmt.Errorf("vfs: truncate %q: is a directory", p)
	}
	if int64(len(in.data)) >= size {
		in.data = in.data[:size]
	} else {
		grown := make([]byte, size)
		copy(grown, in.data)
		in.data = grown
	}
	return nil
}

// Read returns a copy of the contents of file p.
func (fs *FS) Read(p string) ([]byte, error) {
	in, ok := fs.lookup(p)
	if !ok {
		return nil, fmt.Errorf("vfs: read %q: no such file", p)
	}
	if in.dir {
		return nil, fmt.Errorf("vfs: read %q: is a directory", p)
	}
	return append([]byte(nil), in.data...), nil
}

// Size returns the size of file p.
func (fs *FS) Size(p string) (int64, error) {
	in, ok := fs.lookup(p)
	if !ok {
		return 0, fmt.Errorf("vfs: stat %q: no such file", p)
	}
	return int64(len(in.data)), nil
}

// Rename moves Path to Path2. If the source is a directory, all descendant
// names move with it. An existing destination file is replaced (POSIX
// rename semantics); replacing a non-empty directory fails.
func (fs *FS) Rename(from, to string) error {
	from, to = Clean(from), Clean(to)
	src, ok := fs.lookup(from)
	if !ok {
		return fmt.Errorf("vfs: rename %q: no such file", from)
	}
	if from == to {
		return nil
	}
	if src.dir && strings.HasPrefix(to+"/", from+"/") {
		return fmt.Errorf("vfs: rename %q into its own subtree %q", from, to)
	}
	if err := fs.checkParent(to); err != nil {
		return err
	}
	if dst, ok := fs.lookup(to); ok {
		if dst.dir {
			if len(fs.children(to)) > 0 {
				return fmt.Errorf("vfs: rename to %q: directory not empty", to)
			}
			fs.dropName(to)
		} else {
			fs.dropName(to)
		}
	}
	if src.dir {
		// Move every descendant path.
		prefix := from + "/"
		moves := map[string]string{}
		fs.names.Range(func(name string, _ int) bool {
			if strings.HasPrefix(name, prefix) {
				moves[name] = to + "/" + name[len(prefix):]
			}
			return true
		})
		for oldName, newName := range moves {
			ino, _ := fs.names.Get(oldName)
			fs.names = fs.names.Set(newName, ino)
			fs.names = fs.names.Delete(oldName)
		}
	}
	ino, _ := fs.names.Get(from)
	fs.names = fs.names.Set(to, ino)
	fs.names = fs.names.Delete(from)
	return nil
}

// Link creates hard link newname referring to oldname's inode.
func (fs *FS) Link(oldname, newname string) error {
	oldname, newname = Clean(oldname), Clean(newname)
	in, ok := fs.lookup(oldname)
	if !ok {
		return fmt.Errorf("vfs: link %q: no such file", oldname)
	}
	if in.dir {
		return fmt.Errorf("vfs: link %q: is a directory", oldname)
	}
	if fs.Exists(newname) {
		return fmt.Errorf("vfs: link %q: exists", newname)
	}
	if err := fs.checkParent(newname); err != nil {
		return err
	}
	fs.names = fs.names.Set(newname, in.ino)
	fs.own(in).nlink++
	return nil
}

// dropName removes a name and decrements the inode link count, freeing the
// inode when unreferenced.
func (fs *FS) dropName(p string) {
	p = Clean(p)
	ino, ok := fs.names.Get(p)
	if !ok {
		return
	}
	fs.names = fs.names.Delete(p)
	in, ok := fs.inodes.Get(ino)
	if !ok {
		return
	}
	if in.nlink <= 1 {
		fs.inodes = fs.inodes.Delete(ino)
		return
	}
	fs.own(in).nlink--
}

// Unlink removes the name p (a regular file).
func (fs *FS) Unlink(p string) error {
	in, ok := fs.lookup(p)
	if !ok {
		return fmt.Errorf("vfs: unlink %q: no such file", p)
	}
	if in.dir {
		return fmt.Errorf("vfs: unlink %q: is a directory", p)
	}
	fs.dropName(p)
	return nil
}

// Rmdir removes the empty directory p.
func (fs *FS) Rmdir(p string) error {
	in, ok := fs.lookup(p)
	if !ok {
		return fmt.Errorf("vfs: rmdir %q: no such directory", p)
	}
	if !in.dir {
		return fmt.Errorf("vfs: rmdir %q: not a directory", p)
	}
	if len(fs.children(p)) > 0 {
		return fmt.Errorf("vfs: rmdir %q: not empty", p)
	}
	fs.dropName(p)
	return nil
}

// SetXattr sets extended attribute name=value on p.
func (fs *FS) SetXattr(p, name string, value []byte) error {
	in, ok := fs.mutable(p)
	if !ok {
		return fmt.Errorf("vfs: setxattr %q: no such file", p)
	}
	if in.xattr == nil {
		in.xattr = make(map[string][]byte)
	}
	in.xattr[name] = append([]byte(nil), value...)
	return nil
}

// RemoveXattr removes extended attribute name from p.
func (fs *FS) RemoveXattr(p, name string) error {
	in, ok := fs.lookup(p)
	if !ok {
		return fmt.Errorf("vfs: removexattr %q: no such file", p)
	}
	if _, present := in.xattr[name]; !present {
		return nil
	}
	delete(fs.own(in).xattr, name)
	return nil
}

// GetXattr returns the value of extended attribute name on p.
func (fs *FS) GetXattr(p, name string) ([]byte, bool) {
	in, ok := fs.lookup(p)
	if !ok || in.xattr == nil {
		return nil, false
	}
	v, ok := in.xattr[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Xattrs returns the sorted xattr names of p.
func (fs *FS) Xattrs(p string) []string {
	in, ok := fs.lookup(p)
	if !ok {
		return nil
	}
	names := make([]string, 0, len(in.xattr))
	for k := range in.xattr {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// children returns the direct child paths of directory p, sorted.
func (fs *FS) children(p string) []string {
	p = Clean(p)
	prefix := p + "/"
	if p == "/" {
		prefix = "/"
	}
	var out []string
	fs.names.Range(func(name string, _ int) bool {
		if name == "/" || !strings.HasPrefix(name, prefix) {
			return true
		}
		rest := name[len(prefix):]
		if rest == "" || strings.ContainsRune(rest, '/') {
			return true
		}
		out = append(out, name)
		return true
	})
	sort.Strings(out)
	return out
}

// List returns the direct children of directory p, sorted by name.
func (fs *FS) List(p string) ([]string, error) {
	in, ok := fs.lookup(p)
	if !ok {
		return nil, fmt.Errorf("vfs: list %q: no such directory", p)
	}
	if !in.dir {
		return nil, fmt.Errorf("vfs: list %q: not a directory", p)
	}
	return fs.children(p), nil
}

// Walk returns every path in the file system, sorted.
func (fs *FS) Walk() []string {
	out := make([]string, 0, fs.names.Len())
	fs.names.Range(func(name string, _ int) bool {
		out = append(out, name)
		return true
	})
	sort.Strings(out)
	return out
}

// Apply replays op onto the file system. Errors indicate the op could not
// be applied (e.g. its target was never persisted); the crash emulator
// treats such ops as silently lost, exactly as data written to a
// never-persisted inode is unreachable after a real crash.
func (fs *FS) Apply(op Op) error {
	switch op.Kind {
	case OpCreate:
		return fs.Create(op.Path)
	case OpMkdir:
		return fs.Mkdir(op.Path)
	case OpWrite:
		return fs.WriteAt(op.Path, op.Offset, op.Data)
	case OpAppend:
		return fs.Append(op.Path, op.Data)
	case OpTruncate:
		return fs.Truncate(op.Path, op.Size)
	case OpRename:
		return fs.Rename(op.Path, op.Path2)
	case OpLink:
		return fs.Link(op.Path, op.Path2)
	case OpUnlink:
		return fs.Unlink(op.Path)
	case OpRmdir:
		return fs.Rmdir(op.Path)
	case OpSetXattr:
		return fs.SetXattr(op.Path, op.Name, op.Value)
	case OpRemoveXattr:
		return fs.RemoveXattr(op.Path, op.Name)
	case OpSync:
		return nil // persistence point only
	default:
		return fmt.Errorf("vfs: apply: unknown op kind %d", op.Kind)
	}
}

// Snapshot returns an immutable O(1) snapshot: the persistent name and
// inode tables are shared by pointer, and both the live FS and the snapshot
// receive fresh epochs so any inode reachable from both is cloned before
// its first post-snapshot mutation. The returned FS must not be mutated
// (see the package comment's snapshot contract).
func (fs *FS) Snapshot() *FS {
	snap := &FS{inodes: fs.inodes, names: fs.names, nextIno: fs.nextIno, epoch: nextEpoch()}
	fs.epoch = nextEpoch()
	return snap
}

// Restore adopts snap's state in O(1): the trie roots are shared and fs
// gets a fresh epoch, so subsequent writes copy rather than alias. snap is
// only read and may be restored into any number of file systems, including
// concurrently.
func (fs *FS) Restore(snap *FS) {
	fs.inodes = snap.inodes
	fs.names = snap.names
	fs.nextIno = snap.nextIno
	fs.epoch = nextEpoch()
}

// Serialize renders the complete logical state in a canonical, hashable
// text form: one line per path with type, content hash (files), and sorted
// xattrs. Hard links serialise as their target content, so two states are
// equal iff every name resolves to identical bytes and attributes.
//
// A name whose inode is missing from the inode table (a corrupted state,
// impossible through the public API) serialises as an explicit corruption
// marker line rather than being skipped: silently omitting it would let two
// genuinely different states — one healthy, one corrupt — share a Serialize
// string and therefore a Hash/StateDigest, poisoning representative
// equivalence classes with a false merge.
func (fs *FS) Serialize() string {
	var b strings.Builder
	for _, name := range fs.Walk() {
		in, _ := fs.lookup(name)
		if in == nil {
			fmt.Fprintf(&b, "! %s DANGLING-NAME\n", name)
			continue
		}
		if in.dir {
			fmt.Fprintf(&b, "d %s", name)
		} else {
			sum := sha256.Sum256(in.data)
			fmt.Fprintf(&b, "f %s %d %s", name, len(in.data), hex.EncodeToString(sum[:8]))
		}
		for _, xk := range fs.Xattrs(name) {
			v, _ := fs.GetXattr(name, xk)
			sum := sha256.Sum256(v)
			fmt.Fprintf(&b, " x:%s=%s", xk, hex.EncodeToString(sum[:6]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Hash returns a short hex digest of the canonical state.
func (fs *FS) Hash() string {
	sum := sha256.Sum256([]byte(fs.Serialize()))
	return hex.EncodeToString(sum[:12])
}
