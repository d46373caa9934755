// Package stack wires the full HPC I/O stack together: the HDF5/NetCDF
// library (package hdf5) running over MPI-IO (package mpiio) over a
// parallel file system (package pfs), with every layer traced — the
// paper's Figure 1 assembled for testing. It also provides the
// paracrash.Library adapter used by the cross-layer consistency checker.
package stack

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"

	"paracrash/internal/hdf5"
	"paracrash/internal/mpiio"
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
)

// Dialect selects the I/O library flavour: HDF5 or NetCDF (which, per the
// paper's configuration, uses the HDF5 format underneath but opens files
// eagerly, so any corrupt object makes the file unopenable).
type Dialect int

const (
	// DialectHDF5 is plain HDF5-1.8-style access.
	DialectHDF5 Dialect = iota
	// DialectNetCDF is NetCDF-4 over HDF5.
	DialectNetCDF
)

// Name returns the library name used in bug attribution.
func (d Dialect) Name() string {
	if d == DialectNetCDF {
		return "netcdf"
	}
	return "hdf5"
}

// opName maps a logical library operation to the dialect's API name.
func (d Dialect) opName(kind string) string {
	if d == DialectNetCDF {
		switch kind {
		case "open":
			return "nc_open"
		case "create":
			return "nc_def_var"
		case "write":
			return "nc_put_var"
		case "delete":
			return "nc_del_var"
		case "move":
			return "nc_rename_var"
		case "resize":
			return "nc_set_extent"
		case "flush":
			return "nc_sync"
		case "close":
			return "nc_close"
		}
	}
	switch kind {
	case "open":
		return "H5Fopen"
	case "create":
		return "H5Dcreate"
	case "write":
		return "H5Dwrite"
	case "delete":
		return "H5Ldelete"
	case "move":
		return "H5Lmove"
	case "resize":
		return "H5Dset_extent"
	case "flush":
		return "H5Fflush"
	case "close":
		return "H5Fclose"
	}
	return kind
}

// opKind reverses opName for replay.
func opKind(name string) string {
	n := strings.ToLower(name)
	switch {
	case strings.Contains(n, "open"):
		return "open"
	case strings.Contains(n, "create"), strings.Contains(n, "def_var"):
		return "create"
	case strings.Contains(n, "write"), strings.Contains(n, "put_var"):
		return "write"
	case strings.Contains(n, "delete"), strings.Contains(n, "del_var"):
		return "delete"
	case strings.Contains(n, "move"), strings.Contains(n, "rename"):
		return "move"
	case strings.Contains(n, "extent"), strings.Contains(n, "resize"):
		return "resize"
	case strings.Contains(n, "flush"), strings.Contains(n, "sync"):
		return "flush"
	case strings.Contains(n, "close"):
		return "close"
	}
	return ""
}

// Session is one rank's open library file over the stack.
type Session struct {
	fs      pfs.FileSystem
	rec     *trace.Recorder
	mf      *mpiio.File
	f       *hdf5.File
	proc    string
	path    string
	dialect Dialect
	// rank0 owns the metadata flush in collective mode.
	rank0 bool
}

// FormatFile creates a fresh library file on the PFS (preamble use: runs
// untraced when the recorder is disabled). It returns a session that must
// be closed.
func FormatFile(fs pfs.FileSystem, rank int, path string, d Dialect) (*Session, error) {
	mf, err := mpiio.Open(fs, rank, path, true)
	if err != nil {
		return nil, err
	}
	f, err := hdf5.Format(mf)
	if err != nil {
		return nil, err
	}
	s := &Session{fs: fs, rec: fs.Recorder(), mf: mf, f: f, proc: mf.Proc(), path: path, dialect: d, rank0: rank == 0}
	if d == DialectNetCDF {
		if err := f.SetAttrs("/", "_NCProperties=netcdf"); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// OpenFile opens an existing library file over the stack for the given
// rank, recording the library-level open.
func OpenFile(fs pfs.FileSystem, rank int, path string, d Dialect) (*Session, error) {
	s := &Session{fs: fs, rec: fs.Recorder(), path: path, proc: pfs.ClientProc(rank), dialect: d, rank0: rank == 0}
	s.libOp("open", path, "", nil, 0)
	defer s.rec.Pop(s.proc)
	mf, err := mpiio.Open(fs, rank, path, false)
	if err != nil {
		return nil, err
	}
	f, err := hdf5.Open(mf)
	if err != nil {
		return nil, err
	}
	// The open-for-write status flag hits the disk immediately (what
	// h5clear exists to clean up after a crash).
	if err := f.Flush(); err != nil {
		return nil, err
	}
	s.mf, s.f = mf, f
	return s, nil
}

// libOp records a library-layer trace op and leaves it pushed as the
// current caller; callers must Pop.
func (s *Session) libOp(kind, path, path2 string, data []byte, off int64) {
	op := trace.Op{
		Layer: trace.LayerIOLib, Proc: s.proc,
		Name: s.dialect.opName(kind), Path: path, Path2: path2,
		FileID: s.path, Offset: off, Sync: kind == "flush",
	}
	if data != nil {
		op.Data = data // Push copies it when the recorder is on
		op.Size = int64(len(data))
	}
	s.rec.Push(op)
}

// Proc returns the session's client process name.
func (s *Session) Proc() string { return s.proc }

// File exposes the underlying library file (examples and tests).
func (s *Session) File() *hdf5.File { return s.f }

// CreateGroup creates a group (untraced as a distinct op in the paper's
// programs; part of preambles).
func (s *Session) CreateGroup(path string) error {
	s.libOp("create", path, "", []byte("group"), 0)
	defer s.rec.Pop(s.proc)
	return s.f.CreateGroup(path)
}

// CreateDataset records the collective dataset creation and applies it to
// this rank's cache.
func (s *Session) CreateDataset(path string, rows, cols int) error {
	s.libOp("create", path, "", hdf5.DimsArg(rows, cols), 0)
	defer s.rec.Pop(s.proc)
	return s.f.CreateDataset(path, rows, cols)
}

// WriteDataset writes the whole dataset.
func (s *Session) WriteDataset(path string, data []byte) error {
	s.libOp("write", path, "", data, 0)
	defer s.rec.Pop(s.proc)
	return s.f.WriteDataset(path, data)
}

// WriteDatasetAt writes a slab at byte offset off.
func (s *Session) WriteDatasetAt(path string, off int, data []byte) error {
	s.libOp("write", path, "", data, int64(off))
	defer s.rec.Pop(s.proc)
	return s.f.WriteDatasetAt(path, off, data)
}

// Delete removes a dataset link.
func (s *Session) Delete(path string) error {
	s.libOp("delete", path, "", nil, 0)
	defer s.rec.Pop(s.proc)
	return s.f.Delete(path)
}

// Move renames a dataset.
func (s *Session) Move(src, dst string) error {
	s.libOp("move", src, dst, nil, 0)
	defer s.rec.Pop(s.proc)
	return s.f.Move(src, dst)
}

// Resize grows a dataset.
func (s *Session) Resize(path string, rows, cols int) error {
	s.libOp("resize", path, "", hdf5.DimsArg(rows, cols), 0)
	defer s.rec.Pop(s.proc)
	return s.f.Resize(path, rows, cols)
}

// Flush forces the cache out (H5Fflush) and syncs the file.
func (s *Session) Flush() error {
	s.libOp("flush", s.path, "", nil, 0)
	defer s.rec.Pop(s.proc)
	if err := s.f.Flush(); err != nil {
		return err
	}
	return s.mf.Sync()
}

// Close flushes and closes the file. Rank 0 flushes everything (metadata
// included); other ranks flush only their data chunks — the collective
// close of parallel HDF5 where rank 0 owns the metadata.
func (s *Session) Close() error {
	s.libOp("close", s.path, "", nil, 0)
	defer s.rec.Pop(s.proc)
	var err error
	if s.rank0 {
		err = s.f.Close()
	} else {
		err = s.f.FlushData()
	}
	if err != nil {
		return err
	}
	return s.mf.Close()
}

// Barrier synchronises the given sessions (MPI_Barrier).
func Barrier(sessions ...*Session) {
	if len(sessions) == 0 {
		return
	}
	procs := make([]string, len(sessions))
	for i, s := range sessions {
		procs[i] = s.proc
	}
	mpiio.Barrier(sessions[0].rec, procs)
}

// Library adapts the simulated I/O library to the checker's Library
// interface for cross-layer attribution.
type Library struct {
	Dialect  Dialect
	FilePath string
	// ClearIncreaseEOF enables h5clear's --increase-eof repair during
	// RecoverTree (the paper's bug #13 sensitivity).
	ClearIncreaseEOF bool

	seed []byte

	// parsed memoises the canonical logical state of each file image by its
	// sha256.
	parsed map[[sha256.Size]byte]string
}

// NewLibrary returns a Library adapter for the file at path.
func NewLibrary(d Dialect, path string) *Library {
	return &Library{Dialect: d, FilePath: path}
}

// Name implements paracrash.Library.
func (l *Library) Name() string { return l.Dialect.Name() }

// IsLibOp implements paracrash.Library; the layer filter upstream already
// scopes to LayerIOLib.
func (l *Library) IsLibOp(o *trace.Op) bool { return o.FileID == l.FilePath }

// SeedImage sets the initial file image directly (the h5replay tool's
// entry point; Seed is the in-stack form).
func (l *Library) SeedImage(img []byte) {
	l.seed = append([]byte(nil), img...)
}

// Seed implements paracrash.Library: it captures the initial file image.
func (l *Library) Seed(t *pfs.Tree) error {
	e, ok := t.Entries[l.FilePath]
	if !ok || e.Dir {
		return fmt.Errorf("stack: seed: %q not found in initial state", l.FilePath)
	}
	l.seed = append([]byte(nil), e.Data...)
	return nil
}

// StateFromTree implements paracrash.Library: it parses the library file
// out of the mounted PFS namespace.
func (l *Library) StateFromTree(t *pfs.Tree) (string, error) {
	e, ok := t.Entries[l.FilePath]
	if !ok || e.Dir {
		return "", fmt.Errorf("stack: %q missing from recovered namespace", l.FilePath)
	}
	return l.parse(e.Data), nil
}

// parse returns the canonical logical state of a file image, parsing each
// distinct image once.
func (l *Library) parse(img []byte) string {
	key := sha256.Sum256(img)
	if st, ok := l.parsed[key]; ok {
		return st
	}
	st := hdf5.Parse(img, l.Dialect == DialectNetCDF).Serialize()
	if l.parsed == nil {
		l.parsed = map[[sha256.Size]byte]string{}
	}
	l.parsed[key] = st
	return st
}

// RecoverTree implements paracrash.Library: h5clear on the file image.
func (l *Library) RecoverTree(t *pfs.Tree) (*pfs.Tree, bool) {
	e, ok := t.Entries[l.FilePath]
	if !ok || e.Dir {
		return t, false
	}
	img, changed := hdf5.Clear(e.Data, l.ClearIncreaseEOF)
	if !changed {
		return t, false
	}
	out := pfs.NewTree()
	for p, ent := range t.Entries {
		if p == l.FilePath {
			out.AddFile(p, img)
		} else if ent.Dir {
			out.AddDir(p)
		} else {
			out.AddFile(p, ent.Data)
		}
	}
	return out, true
}

// Replay implements paracrash.Library: the preserved library ops run
// against a fresh in-memory copy of the seeded image, then everything is
// persisted and parsed. It is Start, Apply over ops and LegalState, with
// the ops applied in place.
func (l *Library) Replay(ops []*trace.Op) (string, error) {
	r := l.start()
	for _, op := range ops {
		r.apply(op)
	}
	return l.LegalState(r)
}

// replay is one resumable library replay: the in-memory backend and, once a
// preserved open has run, the file open on it. A replay handed out by Start
// or Apply is never modified again.
type replay struct {
	be     *hdf5.MemBackend
	f      *hdf5.File // nil until a preserved open succeeds
	digest string
}

func (l *Library) start() *replay {
	return &replay{be: &hdf5.MemBackend{Buf: bytes.Clone(l.seed)}}
}

// Start implements paracrash.Library: the seeded image with no op applied.
func (l *Library) Start() any {
	r := l.start()
	r.sum()
	return r
}

// Apply implements paracrash.Library: a copy of st with op replayed on it.
func (l *Library) Apply(st any, op *trace.Op) any {
	r := st.(*replay)
	next := &replay{be: &hdf5.MemBackend{Buf: bytes.Clone(r.be.Buf)}}
	if r.f != nil {
		next.f = r.f.Clone(next.be)
	}
	next.apply(op)
	next.sum()
	return next
}

// Digest implements paracrash.Library: the sha256 of the backend image and
// the open file's state.
func (l *Library) Digest(st any) string { return st.(*replay).digest }

// LegalState implements paracrash.Library: a copy of st is flushed and its
// image parsed.
func (l *Library) LegalState(st any) (string, error) {
	r := st.(*replay)
	be := &hdf5.MemBackend{Buf: bytes.Clone(r.be.Buf)}
	if r.f != nil {
		_ = r.f.Clone(be).Flush()
	}
	return l.parse(be.Buf), nil
}

// sum sets r's digest: the sha256 of the backend image, length-prefixed,
// and then the open file's state, streamed into the hash.
func (r *replay) sum() {
	h := sha256.New()
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(r.be.Buf))))
	h.Write(r.be.Buf)
	if r.f != nil {
		r.f.WriteState(h)
	}
	r.digest = string(h.Sum(nil))
}

// apply replays op on r in place.
func (r *replay) apply(op *trace.Op) {
	kind := opKind(op.Name)
	if kind == "open" {
		if nf, err := hdf5.Open(r.be); err == nil {
			r.f = nf
		}
		return
	}
	f := r.f
	if f == nil {
		return // ops before a preserved open have no effect
	}
	// Individual op failures mean the preserved set lacks this op's
	// prerequisites; the op is simply lost, like in a crash.
	switch kind {
	case "create":
		if string(op.Data) == "group" {
			_ = f.CreateGroup(op.Path)
		} else if rows, cols, err := hdf5.ParseDims(op.Data); err == nil {
			_ = f.CreateDataset(op.Path, rows, cols)
		}
	case "write":
		_ = f.WriteDatasetAt(op.Path, int(op.Offset), op.Data)
	case "delete":
		_ = f.Delete(op.Path)
	case "move":
		_ = f.Move(op.Path, op.Path2)
	case "resize":
		if rows, cols, err := hdf5.ParseDims(op.Data); err == nil {
			_ = f.Resize(op.Path, rows, cols)
		}
	case "flush":
		_ = f.Flush()
	case "close":
		_ = f.Close()
	}
}
