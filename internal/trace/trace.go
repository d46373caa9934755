// Package trace defines the cross-layer operation records that every
// component of the simulated HPC I/O stack emits, and the Recorder that
// collects them during a traced execution.
//
// A trace.Op is the unit of everything ParaCrash does: causality analysis,
// crash emulation, legal-state replay and bug classification all operate on
// sequences of Ops. Ops are recorded at every layer (application, I/O
// library, MPI-IO, PFS client, local file system, block device); the
// lowermost-layer ops additionally carry a replayable payload (a vfs.Op or
// blockdev.Op) that the crash emulator can apply to a snapshot.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Layer identifies the I/O-stack layer an operation belongs to.
type Layer int

const (
	// LayerApp is the application layer (test program statements).
	LayerApp Layer = iota
	// LayerIOLib is the parallel I/O library layer (HDF5, NetCDF).
	LayerIOLib
	// LayerMPI is the MPI-IO layer.
	LayerMPI
	// LayerPFS is the parallel-file-system client layer (POSIX-like calls
	// issued against the PFS mount point).
	LayerPFS
	// LayerLocalFS is the lowermost layer for user-level PFSs: POSIX I/O
	// calls issued by PFS server processes against their local file systems.
	LayerLocalFS
	// LayerBlock is the lowermost layer for kernel-level PFSs: SCSI block
	// commands issued against the servers' block devices.
	LayerBlock
)

// String returns the layer name used in reports.
func (l Layer) String() string {
	switch l {
	case LayerApp:
		return "app"
	case LayerIOLib:
		return "iolib"
	case LayerMPI:
		return "mpi-io"
	case LayerPFS:
		return "pfs"
	case LayerLocalFS:
		return "localfs"
	case LayerBlock:
		return "block"
	default:
		return fmt.Sprintf("layer(%d)", int(l))
	}
}

// Op is a single traced operation. Fields that do not apply to a given
// operation are left at their zero value.
type Op struct {
	// ID is a globally unique, monotonically increasing identifier assigned
	// by the Recorder. IDs reflect global recording order, which for a
	// single-threaded execution is a valid linearisation of causality.
	ID int

	// Layer is the I/O-stack layer the op was recorded at.
	Layer Layer

	// Proc identifies the process that executed the op, e.g. "client/0",
	// "meta/1", "storage/0". Ops with the same Proc are totally ordered by
	// their recording order (program order).
	Proc string

	// Name is the operation name, e.g. "pwrite", "rename", "fsync",
	// "MPI_File_write_at", "H5Dcreate", "scsi_write".
	Name string

	// Path is the primary path or object the op refers to; Path2 is the
	// secondary one (rename destination, link target).
	Path  string
	Path2 string

	// Offset and Size describe the byte range of data operations. For block
	// ops Offset is the LBA.
	Offset int64
	Size   int64

	// Data holds the written bytes for data operations, so that recorded
	// upper-layer ops can be re-executed during legal-state replay.
	Data []byte

	// Meta reports whether this is a metadata operation (directory ops,
	// xattrs, inode changes). The journaling-mode persistence models treat
	// metadata and data differently.
	Meta bool

	// Sync reports whether this is a commit operation (fsync, fdatasync,
	// scsi_sync). DataSync distinguishes fdatasync from fsync.
	Sync     bool
	DataSync bool

	// FileID names the file identity a data or sync op applies to, for
	// commit coverage ("fsync(fd) persists preceding ops on the same file").
	// Empty for ops without a file identity.
	FileID string

	// Tag carries semantic information: the I/O-library data structure the
	// op modifies (e.g. "btree:/g1", "superblock", "data:/g1/d1"). Used by
	// the object-map pruning and bug classification.
	Tag string

	// Parent is the ID of the calling op one layer up (caller-callee edge);
	// -1 (or 0 before recording) when the op has no traced caller. For RPC
	// receive ops the parent is the matching send, which chains server-side
	// work to the client call that triggered it.
	Parent int

	// MsgID links communication pairs: a send op and its matching receive
	// share a MsgID (always positive). Zero or negative when the op is not
	// a communication.
	MsgID int
	// IsSend distinguishes the sender (true) from the receiver (false) of a
	// matched communication pair.
	IsSend bool

	// Payload is the replayable lowermost-level operation (a vfs.Op or
	// blockdev.Op) for LayerLocalFS / LayerBlock ops; nil otherwise.
	Payload any
}

// IsComm reports whether the op is a communication event.
func (o *Op) IsComm() bool { return o.MsgID > 0 }

// IsLowermost reports whether the op belongs to a lowermost layer whose
// operations are replayed during crash emulation.
func (o *Op) IsLowermost() bool {
	return o.Layer == LayerLocalFS || o.Layer == LayerBlock
}

// Key returns a stable human-readable identity for the op used in bug
// signatures and reports: name(path[,path2])@proc.
func (o *Op) Key() string {
	var b strings.Builder
	b.WriteString(o.Name)
	b.WriteByte('(')
	b.WriteString(o.Path)
	if o.Path2 != "" {
		b.WriteString(", ")
		b.WriteString(o.Path2)
	}
	if o.Name == "pwrite" || o.Name == "scsi_write" {
		fmt.Fprintf(&b, " off=%d len=%d", o.Offset, o.Size)
	}
	b.WriteByte(')')
	b.WriteByte('@')
	b.WriteString(o.Proc)
	if o.Tag != "" {
		b.WriteString(" [")
		b.WriteString(o.Tag)
		b.WriteByte(']')
	}
	return b.String()
}

// String implements fmt.Stringer.
func (o *Op) String() string {
	return fmt.Sprintf("#%d %s %s", o.ID, o.Layer, o.Key())
}

// Recorder collects ops during a traced execution. It is safe for use by a
// single goroutine per recording site; the recorder itself serialises
// appends, so concurrent layers may share one recorder.
type Recorder struct {
	mu      sync.Mutex
	ops     []*Op
	nextID  int
	nextMsg int
	enabled bool
	// off is what Record and Push return while recording is off, reset on
	// every such call, so that a switched-off recorder allocates nothing.
	off Op

	// callStack maps a proc to its stack of in-flight caller op IDs so that
	// nested recordings pick up caller-callee edges automatically.
	callStack map[string][]int
}

// NewRecorder returns an empty, enabled recorder. Op IDs start at 1 so that
// a zero Parent unambiguously means "unset".
func NewRecorder() *Recorder {
	return &Recorder{enabled: true, nextID: 1, callStack: make(map[string][]int)}
}

// SetEnabled turns recording on or off. Disabled recorders still assign
// message IDs so that communication matching keeps working during preambles.
func (r *Recorder) SetEnabled(v bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.enabled = v
}

// Enabled reports whether ops are currently being recorded.
func (r *Recorder) Enabled() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.enabled
}

// Record appends op to the trace, assigning its ID. If the op's Parent is
// zero (unset) and the proc has an in-flight caller, the caller edge is
// filled in. The stored op owns a copy of op.Data, so callers may pass
// bytes they go on to reuse. The returned op is always non-nil. When
// recording is disabled nothing is stored, copied or allocated: the op
// returned is the recorder's sentinel, with ID -1 and Parent -1 until the
// next call, and callers must not modify it — set every field of an op
// before recording it.
func (r *Recorder) Record(op Op) *Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.record(op)
}

func (r *Recorder) record(op Op) *Op {
	if !r.enabled {
		r.off = Op{ID: -1, Parent: -1}
		return &r.off
	}
	op.ID = r.nextID
	r.nextID++
	if op.Parent == 0 {
		if st := r.callStack[op.Proc]; len(st) > 0 {
			op.Parent = st[len(st)-1]
		} else {
			op.Parent = -1
		}
	}
	if op.Data != nil {
		op.Data = append([]byte(nil), op.Data...)
	}
	p := new(Op)
	*p = op
	r.ops = append(r.ops, p)
	return p
}

// Push records op and makes it the current caller for its proc until the
// matching Pop. Used by upper layers wrapping lower-layer calls.
func (r *Recorder) Push(op Op) *Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.record(op)
	// When disabled p.ID is -1, which acts as a harmless sentinel.
	r.callStack[op.Proc] = append(r.callStack[op.Proc], p.ID)
	return p
}

// Pop ends the innermost in-flight call for proc.
func (r *Recorder) Pop(proc string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.callStack[proc]
	if len(st) == 0 {
		return
	}
	r.callStack[proc] = st[:len(st)-1]
}

// NewMsgID allocates a fresh message ID (always positive) for a send/recv
// pair.
func (r *Recorder) NewMsgID() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextMsg++
	return r.nextMsg
}

// Ops returns the recorded ops in recording order. The returned slice is a
// copy; the ops themselves are shared.
func (r *Recorder) Ops() []*Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Op, len(r.ops))
	copy(out, r.ops)
	return out
}

// Reset discards all recorded ops but keeps ID counters monotonic so that
// ops from different phases never collide.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = nil
	r.callStack = make(map[string][]int)
}

// Len returns the number of recorded ops.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ops)
}

// Filter returns the ops for which keep returns true, preserving order.
func Filter(ops []*Op, keep func(*Op) bool) []*Op {
	var out []*Op
	for _, o := range ops {
		if keep(o) {
			out = append(out, o)
		}
	}
	return out
}

// Procs returns the sorted set of process names appearing in ops.
func Procs(ops []*Op) []string {
	set := map[string]bool{}
	for _, o := range ops {
		set[o.Proc] = true
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Format renders ops as an indented multi-line listing grouped by process,
// used by the trace-dump tooling and the Figure 2/9 example programs.
func Format(ops []*Op) string {
	var b strings.Builder
	byProc := map[string][]*Op{}
	for _, o := range ops {
		byProc[o.Proc] = append(byProc[o.Proc], o)
	}
	for _, p := range Procs(ops) {
		fmt.Fprintf(&b, "%s:\n", p)
		for _, o := range byProc[p] {
			fmt.Fprintf(&b, "  %s\n", o)
		}
	}
	return b.String()
}
