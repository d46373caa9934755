// Package pfs defines the parallel-file-system abstraction that ParaCrash
// tests, plus the cluster harness (simulated servers, RPC, striping) shared
// by the concrete PFS implementations in the subpackages.
//
// A FileSystem owns a set of simulated servers whose entire persistent
// state lives in vfs.FS / blockdev.Dev stores. Client operations execute
// live against those stores while recording trace ops at every layer; crash
// emulation later restores store snapshots and re-applies recorded
// lowermost ops. Because implementations keep no logical state outside
// their stores, Restore+replay is always faithful.
package pfs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"paracrash/internal/blockdev"
	"paracrash/internal/causality"
	"paracrash/internal/trace"
	"paracrash/internal/vfs"
)

// Config describes a PFS deployment (the paper's Table 2 settings).
type Config struct {
	// MetaServers and StorageServers set the server counts. PFSs without
	// dedicated metadata servers (GlusterFS, GPFS) ignore MetaServers.
	MetaServers    int
	StorageServers int

	// StripeSize is the striping unit in bytes (paper default 128 KB; the
	// tests use smaller stripes to keep traces small — the stripe size is a
	// parameter of every experiment).
	StripeSize int64

	// Journal is the journaling mode of the servers' local file systems
	// (user-level PFSs only). The paper evaluates data journaling, its
	// safest mode.
	Journal vfs.JournalMode

	// DirPlacement optionally pins a directory path to a metadata server
	// index, overriding round-robin placement (used by the sensitivity
	// studies on file distribution).
	DirPlacement map[string]int
	// FilePlacement optionally pins a file path to a storage server index
	// for its first stripe.
	FilePlacement map[string]int
}

// DefaultConfig returns the paper's default small-cluster configuration.
func DefaultConfig() Config {
	return Config{
		MetaServers:    2,
		StorageServers: 2,
		StripeSize:     128, // scaled-down stripe; paper uses 128KB
		Journal:        vfs.JournalData,
	}
}

// Client is the POSIX-like interface test programs use against a mounted
// PFS. Operations are path-based; open-for-write state is tracked per path
// (Create/OpenWrite open a file, Close closes it) for the baseline
// consistency model.
type Client interface {
	// Proc returns the client process name (e.g. "client/0").
	Proc() string

	Create(path string) error
	Mkdir(path string) error
	WriteAt(path string, off int64, data []byte) error
	Append(path string, data []byte) error
	Read(path string) ([]byte, error)
	Rename(from, to string) error
	Unlink(path string) error
	Fsync(path string) error
	Close(path string) error
}

// FileSystem is a testable parallel file system.
type FileSystem interface {
	// Name returns the PFS name ("beegfs", "orangefs", ...).
	Name() string
	// Config returns the deployment configuration.
	Config() Config
	// Recorder returns the trace recorder shared by every layer.
	Recorder() *trace.Recorder
	// Client returns the client endpoint for client process id.
	Client(id int) Client

	// PersistConfig describes the persistence semantics of every
	// lowermost-layer process for Algorithm 2.
	PersistConfig() causality.PersistConfig
	// Procs returns the lowermost-layer process names (server stores).
	Procs() []string

	// Snapshot captures the complete persistent state of all servers.
	Snapshot() *State
	// Restore resets all servers to the snapshot.
	Restore(*State)
	// CaptureServer snapshots proc's store in O(1). ok is false when proc
	// names no server.
	CaptureServer(proc string) (snap ServerSnap, ok bool)
	// RestoreServerSnap resets proc's store to a previously captured snap
	// in O(1), the unit of incremental crash-state reconstruction. ok is
	// false when proc names no server.
	RestoreServerSnap(proc string, snap ServerSnap) (ok bool)

	// ApplyLowermost applies a recorded lowermost op's payload to the live
	// server store it was traced on. Errors mean the op's effect is lost
	// (its target never persisted), which the emulator tolerates.
	ApplyLowermost(op *trace.Op) error

	// Recover runs the PFS's crash-recovery / fsck procedure on the current
	// server state, mutating it. A non-nil error means the file system is
	// unrecoverable (mount would fail).
	Recover() error

	// Mount materialises the logical namespace from the current server
	// state. An error means the state cannot be interpreted.
	Mount() (*Tree, error)
}

// Tree is a PFS's logical namespace: the golden-master comparison unit for
// PFS-level consistency checking.
type Tree struct {
	// Entries maps absolute paths to entries. The root "/" is implicit.
	Entries map[string]*Entry
}

// Entry is a single logical file or directory.
type Entry struct {
	Dir  bool
	Data []byte
}

// NewTree returns an empty tree.
func NewTree() *Tree {
	return &Tree{Entries: make(map[string]*Entry)}
}

// AddDir inserts a directory at path.
func (t *Tree) AddDir(path string) {
	t.Entries[vfs.Clean(path)] = &Entry{Dir: true}
}

// AddFile inserts a file at path with the given contents. The tree takes
// ownership of data, which the caller must not modify afterwards: pass a
// fresh buffer, or the entry of a tree that is itself never modified.
func (t *Tree) AddFile(path string, data []byte) {
	t.Entries[vfs.Clean(path)] = &Entry{Data: data}
}

// Paths returns the sorted paths in the tree.
func (t *Tree) Paths() []string {
	out := make([]string, 0, len(t.Entries))
	for p := range t.Entries {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Serialize renders the tree canonically for comparison and hashing.
func (t *Tree) Serialize() string {
	var b strings.Builder
	for _, p := range t.Paths() {
		e := t.Entries[p]
		if e.Dir {
			b.WriteString("d ")
			b.WriteString(p)
			b.WriteByte('\n')
		} else {
			sum := sha256.Sum256(e.Data)
			b.WriteString("f ")
			b.WriteString(p)
			b.WriteByte(' ')
			b.WriteString(strconv.Itoa(len(e.Data)))
			b.WriteByte(' ')
			b.WriteString(hex.EncodeToString(sum[:8]))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Hash returns a short digest of the canonical form.
func (t *Tree) Hash() string {
	sum := sha256.Sum256([]byte(t.Serialize()))
	return hex.EncodeToString(sum[:12])
}

// Diff returns a human-readable description of how t differs from o, used
// in bug reports. Empty means identical.
func (t *Tree) Diff(o *Tree) string {
	var b strings.Builder
	for _, p := range t.Paths() {
		te := t.Entries[p]
		oe, ok := o.Entries[p]
		switch {
		case !ok:
			fmt.Fprintf(&b, "- %s missing\n", p)
		case te.Dir != oe.Dir:
			fmt.Fprintf(&b, "~ %s type mismatch\n", p)
		case !te.Dir && string(te.Data) != string(oe.Data):
			fmt.Fprintf(&b, "~ %s content differs (%d vs %d bytes)\n", p, len(te.Data), len(oe.Data))
		}
	}
	for _, p := range o.Paths() {
		if _, ok := t.Entries[p]; !ok {
			fmt.Fprintf(&b, "+ %s unexpected\n", p)
		}
	}
	return b.String()
}

// State is a snapshot of every server store in a cluster. A State is
// immutable once taken: Restore/RestoreServerSnap adopt its stores
// copy-on-write and never write into it, so one State (e.g. the initial
// snapshot) can back any number of reconstructions, each restore costing
// O(1) per server.
type State struct {
	FS  map[string]*vfs.FS
	Dev map[string]*blockdev.Dev
}

// ReplayClientOp re-executes a recorded PFS-layer client op through c.
// Unknown names are an error; failed operations are returned as errors and
// typically skipped by legal-state replay (the preserved set may lack the
// op's prerequisites).
func ReplayClientOp(c Client, op *trace.Op) error {
	switch op.Name {
	case "creat":
		return c.Create(op.Path)
	case "mkdir":
		return c.Mkdir(op.Path)
	case "pwrite":
		return c.WriteAt(op.Path, op.Offset, op.Data)
	case "append":
		return c.Append(op.Path, op.Data)
	case "rename":
		return c.Rename(op.Path, op.Path2)
	case "unlink":
		return c.Unlink(op.Path)
	case "fsync":
		return c.Fsync(op.Path)
	case "close":
		return c.Close(op.Path)
	default:
		return fmt.Errorf("pfs: replay: unknown client op %q", op.Name)
	}
}
