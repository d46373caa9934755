package pfs

import (
	"fmt"
	"time"

	"paracrash/internal/blockdev"
	"paracrash/internal/causality"
	"paracrash/internal/obs"
	"paracrash/internal/trace"
	"paracrash/internal/vfs"
)

// ServerFS is a simulated user-level PFS server process with a local file
// system (the paper's BeeGFS/OrangeFS/GlusterFS daemons on ext4).
type ServerFS struct {
	Proc string
	FS   *vfs.FS
}

// NewServerFS returns a server with an empty local file system.
func NewServerFS(proc string) *ServerFS {
	return &ServerFS{Proc: proc, FS: vfs.New()}
}

// Do records op as a lowermost trace entry attributed to the server and
// applies it to the local file system. fileID names the file identity for
// commit coverage; tag carries semantic information for pruning. Apply
// errors propagate (during normal execution they indicate a PFS bug in the
// simulator itself, so callers treat them as fatal).
func (s *ServerFS) Do(rec *trace.Recorder, op vfs.Op, fileID, tag string) error {
	rec.Record(trace.Op{
		Layer:    trace.LayerLocalFS,
		Proc:     s.Proc,
		Name:     op.Kind.String(),
		Path:     op.Path,
		Path2:    op.Path2,
		Offset:   op.Offset,
		Size:     int64(len(op.Data)),
		Meta:     op.Kind.Meta(),
		Sync:     op.Kind == vfs.OpSync,
		FileID:   fileID,
		Tag:      tag,
		Payload:  op,
		DataSync: false,
	})
	return s.FS.Apply(op)
}

// DoSync records an fsync (dataOnly selects fdatasync) on fileID.
func (s *ServerFS) DoSync(rec *trace.Recorder, path, fileID string, dataOnly bool) error {
	name := "fsync"
	if dataOnly {
		name = "fdatasync"
	}
	rec.Record(trace.Op{
		Layer:    trace.LayerLocalFS,
		Proc:     s.Proc,
		Name:     name,
		Path:     path,
		Meta:     true,
		Sync:     true,
		DataSync: dataOnly,
		FileID:   fileID,
		Payload:  vfs.Op{Kind: vfs.OpSync, Path: path},
	})
	return nil
}

// BlockServer is a simulated kernel-level PFS server with a block device
// (the paper's GPFS NSD / Lustre ldiskfs targets traced over iSCSI).
type BlockServer struct {
	Proc string
	Dev  *blockdev.Dev
}

// NewBlockServer returns a server with an empty block device.
func NewBlockServer(proc string) *BlockServer {
	return &BlockServer{Proc: proc, Dev: blockdev.New()}
}

// Write records and applies a block write. tag describes the structure the
// block holds ("log", "inode", "dir", "data", ...). data is copied once: the
// device and the trace's payload share the copy, and neither modifies it.
func (s *BlockServer) Write(rec *trace.Recorder, lba int64, data []byte, tag string) {
	op := blockdev.Op{Kind: blockdev.OpWrite, LBA: lba, Data: append([]byte(nil), data...)}
	rec.Record(trace.Op{
		Layer:   trace.LayerBlock,
		Proc:    s.Proc,
		Name:    "scsi_write",
		Offset:  lba,
		Size:    int64(len(data)),
		Meta:    tag != "data",
		Tag:     tag,
		Payload: op,
	})
	if err := s.Dev.Apply(op); err != nil {
		panic(fmt.Sprintf("pfs: block apply: %v", err))
	}
}

// Sync records and applies a device-wide write barrier.
func (s *BlockServer) Sync(rec *trace.Recorder) {
	op := blockdev.Op{Kind: blockdev.OpSync}
	rec.Record(trace.Op{
		Layer:   trace.LayerBlock,
		Proc:    s.Proc,
		Name:    "scsi_sync",
		Meta:    true,
		Sync:    true,
		Payload: op,
	})
}

// Cluster bundles the shared mechanics of a simulated PFS deployment:
// the recorder, the server stores, RPC bookkeeping and striping math.
// Concrete PFS implementations embed it.
type Cluster struct {
	Rec  *trace.Recorder
	Conf Config

	FSServers    []*ServerFS    // user-level servers in Procs order
	BlockServers []*BlockServer // kernel-level servers in Procs order

	// tagHint, when set by an upper layer (the I/O library's object map),
	// overrides the default semantic tag of data writes so lowermost ops
	// carry labels like "h5:data:/g1/d1" for pruning and correlation.
	tagHint string

	// obsRun, when set, receives restore/recover/mount timings. Nil (the
	// default) disables collection; TimeOp then returns a no-op stop.
	obsRun *obs.Run
	// restoreAll and restoreServer time Restore and RestoreServerSnap,
	// resolved once by SetObs (nil without a run).
	restoreAll, restoreServer *obs.Timer
}

// SetObs attaches (or, with nil, detaches) the observability run and
// resolves the cluster's restore timers ("pfs/restore-all",
// "pfs/restore-server") on it.
func (c *Cluster) SetObs(r *obs.Run) {
	c.obsRun = r
	c.restoreAll, c.restoreServer = r.Timer("pfs/restore-all"), r.Timer("pfs/restore-server")
}

// TimeOp starts a named timer span on the attached run and returns its stop
// function; allocation-free no-op when no run is attached. Backends wrap
// their Recover/Mount bodies with it ("pfs/recover", "pfs/mount").
func (c *Cluster) TimeOp(name string) func() { return c.obsRun.StartTimer(name) }

// SetTagHint sets (or, with "", clears) the semantic tag applied to
// subsequent data writes.
func (c *Cluster) SetTagHint(tag string) { c.tagHint = tag }

// DataTag returns the upper-layer tag hint if one is set, def otherwise.
func (c *Cluster) DataTag(def string) string {
	if c.tagHint != "" {
		return c.tagHint
	}
	return def
}

// Recorder returns the trace recorder shared by every layer.
func (c *Cluster) Recorder() *trace.Recorder { return c.Rec }

// NewCluster returns a cluster with the given user-level server procs.
func NewCluster(conf Config, rec *trace.Recorder, fsProcs []string) *Cluster {
	c := &Cluster{Rec: rec, Conf: conf}
	for _, p := range fsProcs {
		c.FSServers = append(c.FSServers, NewServerFS(p))
	}
	return c
}

// NewMetaCluster returns the user-level layout BeeGFS and OrangeFS share:
// conf.MetaServers metadata servers ("meta/<i>") followed by
// conf.StorageServers storage servers ("storage/<i>"); Meta and Storage
// index them.
func NewMetaCluster(conf Config, rec *trace.Recorder) *Cluster {
	return NewCluster(conf, rec, append(ProcNames("meta", conf.MetaServers), ProcNames("storage", conf.StorageServers)...))
}

// Meta returns metadata server i of a NewMetaCluster layout.
func (c *Cluster) Meta(i int) *ServerFS { return c.FSServers[i] }

// Storage returns storage server i of a NewMetaCluster layout.
func (c *Cluster) Storage(i int) *ServerFS { return c.FSServers[c.Conf.MetaServers+i] }

// NewBlockCluster returns a cluster with the given kernel-level server procs.
func NewBlockCluster(conf Config, rec *trace.Recorder, blockProcs []string) *Cluster {
	c := &Cluster{Rec: rec, Conf: conf}
	for _, p := range blockProcs {
		c.BlockServers = append(c.BlockServers, NewBlockServer(p))
	}
	return c
}

// Procs returns the lowermost proc names, FS servers then block servers.
func (c *Cluster) Procs() []string {
	var out []string
	for _, s := range c.FSServers {
		out = append(out, s.Proc)
	}
	for _, s := range c.BlockServers {
		out = append(out, s.Proc)
	}
	return out
}

// FSServer returns the user-level server with the given proc name.
func (c *Cluster) FSServer(proc string) *ServerFS {
	for _, s := range c.FSServers {
		if s.Proc == proc {
			return s
		}
	}
	return nil
}

// BlockServer returns the kernel-level server with the given proc name.
func (c *Cluster) Block(proc string) *BlockServer {
	for _, s := range c.BlockServers {
		if s.Proc == proc {
			return s
		}
	}
	return nil
}

// Snapshot captures every server store.
func (c *Cluster) Snapshot() *State {
	st := &State{FS: map[string]*vfs.FS{}, Dev: map[string]*blockdev.Dev{}}
	for _, s := range c.FSServers {
		st.FS[s.Proc] = s.FS.Snapshot()
	}
	for _, s := range c.BlockServers {
		st.Dev[s.Proc] = s.Dev.Snapshot()
	}
	return st
}

// Restore resets every server store to st, timed as "pfs/restore-all".
func (c *Cluster) Restore(st *State) {
	if c.restoreAll != nil {
		defer c.restoreAll.Since(time.Now())
	}
	for _, s := range c.FSServers {
		if snap, ok := st.FS[s.Proc]; ok {
			s.FS.Restore(snap)
		}
	}
	for _, s := range c.BlockServers {
		if snap, ok := st.Dev[s.Proc]; ok {
			s.Dev.Restore(snap)
		}
	}
}

// ApplyLowermost applies a recorded lowermost op to the live store of the
// proc it was traced on. An apply error means the op's effect is lost
// (crash semantics).
func (c *Cluster) ApplyLowermost(op *trace.Op) error {
	switch p := op.Payload.(type) {
	case vfs.Op:
		s := c.FSServer(op.Proc)
		if s == nil {
			return fmt.Errorf("pfs: apply: unknown fs proc %q", op.Proc)
		}
		return s.FS.Apply(p)
	case blockdev.Op:
		s := c.Block(op.Proc)
		if s == nil {
			return fmt.Errorf("pfs: apply: unknown block proc %q", op.Proc)
		}
		return s.Dev.Apply(p)
	default:
		return fmt.Errorf("pfs: apply: op %s has no replayable payload", op)
	}
}

// PersistConfig builds the Algorithm 2 configuration: every FS server uses
// the configured journaling mode, every block server uses barriers.
func (c *Cluster) PersistConfig() causality.PersistConfig {
	cfg := causality.PersistConfig{
		Journal: map[string]vfs.JournalMode{},
		Block:   map[string]bool{},
	}
	for _, s := range c.FSServers {
		cfg.Journal[s.Proc] = c.Conf.Journal
	}
	for _, s := range c.BlockServers {
		cfg.Block[s.Proc] = true
	}
	return cfg
}

// RPC simulates a synchronous remote procedure call from client fromProc
// to server toProc: it records the request send/recv pair, runs handler
// with the server as the recording context (ops it records pick up the recv
// op as caller), then records the reply pair. This yields exactly the
// sendto/recvfrom causality edges of the paper's Figure 2 traces. The
// client's side is recorded at the PFS layer.
func (c *Cluster) RPC(fromProc, toProc string, handler func()) {
	c.rpc(trace.LayerPFS, fromProc, toProc, handler)
}

// ServerRPC simulates a server-to-server call (e.g. BeeGFS metadata server
// instructing a storage server): an RPC whose both sides are recorded at
// the lowermost layer.
func (c *Cluster) ServerRPC(fromProc, toProc string, handler func()) {
	c.rpc(trace.LayerLocalFS, fromProc, toProc, handler)
}

// rpc records an RPC whose caller side is at layer from.
func (c *Cluster) rpc(from trace.Layer, fromProc, toProc string, handler func()) {
	req := c.Rec.NewMsgID()
	send := c.Rec.Record(trace.Op{
		Layer: from, Proc: fromProc,
		Name: "sendto", Path: toProc, MsgID: req, IsSend: true,
	})
	parent := send.ID
	if parent <= 0 {
		parent = -1
	}
	c.Rec.Push(trace.Op{
		Layer: trace.LayerLocalFS, Proc: toProc,
		Name: "recvfrom", Path: fromProc, MsgID: req, Parent: parent,
	})
	handler()
	c.Rec.Pop(toProc)
	rep := c.Rec.NewMsgID()
	c.Rec.Record(trace.Op{
		Layer: trace.LayerLocalFS, Proc: toProc,
		Name: "sendto", Path: fromProc, MsgID: rep, IsSend: true,
	})
	c.Rec.Record(trace.Op{
		Layer: from, Proc: fromProc,
		Name: "recvfrom", Path: toProc, MsgID: rep,
	})
}

// RecordClientOp records a PFS-layer client call and returns it; callers
// wrap the op's server work between this and PopClient so lowermost ops
// pick up the caller edge. An "fsync" is recorded as a sync. The returned
// op must not be modified (trace.Recorder.Record).
func (c *Cluster) RecordClientOp(proc, name, path, path2 string, off int64, data []byte) *trace.Op {
	op := trace.Op{
		Layer:  trace.LayerPFS,
		Proc:   proc,
		Name:   name,
		Path:   path,
		Path2:  path2,
		Offset: off,
		FileID: path,
		Meta:   name != "pwrite" && name != "append",
		Sync:   name == "fsync",
	}
	if data != nil {
		op.Data = data // Push copies it when the recorder is on
		op.Size = int64(len(data))
	}
	return c.Rec.Push(op)
}

// PopClient ends the in-flight client call for proc.
func (c *Cluster) PopClient(proc string) { c.Rec.Pop(proc) }

// Stripe describes one stripe of a striped write: which server index it
// lands on, the local offset within the per-server chunk, and the global
// byte range it covers.
type Stripe struct {
	Server      int
	LocalOffset int64
	GlobalOff   int64
	Data        []byte
}

// StripeRange splits the byte range [off, off+len(data)) into stripes over
// n servers with the configured stripe size, starting at server base (file
// placement). Standard round-robin striping: global stripe s lives on
// server (base + s) mod n at local offset (s / n) * stripeSize.
func StripeRange(off int64, data []byte, n int, stripeSize int64, base int) []Stripe {
	if n <= 0 {
		n = 1
	}
	if stripeSize <= 0 {
		stripeSize = 1
	}
	var out []Stripe
	pos := int64(0)
	for pos < int64(len(data)) {
		g := off + pos
		s := g / stripeSize
		inStripe := g % stripeSize
		take := stripeSize - inStripe
		if rem := int64(len(data)) - pos; take > rem {
			take = rem
		}
		out = append(out, Stripe{
			Server:      (base + int(s)) % n,
			LocalOffset: (s/int64(n))*stripeSize + inStripe,
			GlobalOff:   g,
			Data:        data[pos : pos+take],
		})
		pos += take
	}
	return out
}

// UnstripeSize computes the global file size implied by per-server chunk
// lengths under the same striping layout.
func UnstripeSize(chunkLens []int64, n int, stripeSize int64, base int) int64 {
	var max int64
	for srv := 0; srv < n; srv++ {
		l := chunkLens[srv]
		if l == 0 {
			continue
		}
		// The last local byte on srv is at local offset l-1, i.e. local
		// stripe (l-1)/stripeSize, which is global stripe
		// ((l-1)/stripeSize)*n + serverSlot where serverSlot is srv's
		// position in the rotation.
		slot := (srv - base + n) % n
		localStripe := (l - 1) / stripeSize
		globalStripe := localStripe*int64(n) + int64(slot)
		end := globalStripe*stripeSize + ((l-1)%stripeSize + 1)
		if end > max {
			max = end
		}
	}
	return max
}

// ReassembleFile reconstructs global file content from per-server chunk
// reads. readChunk returns the local chunk contents for a server index
// (nil if the chunk does not exist).
func ReassembleFile(n int, stripeSize int64, base int, readChunk func(srv int) []byte) []byte {
	chunks := make([][]byte, n)
	lens := make([]int64, n)
	for i := 0; i < n; i++ {
		chunks[i] = readChunk(i)
		lens[i] = int64(len(chunks[i]))
	}
	size := UnstripeSize(lens, n, stripeSize, base)
	out := make([]byte, size)
	for g := int64(0); g < size; g += stripeSize {
		s := g / stripeSize
		srv := (base + int(s)) % n
		local := (s / int64(n)) * stripeSize
		end := local + stripeSize
		chunk := chunks[srv]
		if local >= int64(len(chunk)) {
			continue
		}
		if end > int64(len(chunk)) {
			end = int64(len(chunk))
		}
		copy(out[g:], chunk[local:end])
	}
	return out
}
