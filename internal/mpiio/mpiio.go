// Package mpiio simulates the MPI-IO layer of the stack (paper Figure 1):
// file handles whose operations are recorded as MPI calls and forwarded to
// the PFS client, plus MPI_Barrier with the cross-process causality edges
// the trace analysis needs.
//
// A File also implements hdf5.Backend, so the I/O library writes through
// MPI-IO exactly as in the paper's Figure 4 (H5Dwrite → MPI_File_write_at
// → pwrite), with the library's object tags propagated down to the
// lowermost traced operations via the PFS tag hint.
package mpiio

import (
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
)

// File is an open MPI-IO file handle bound to one client process.
type File struct {
	fs     pfs.FileSystem
	client pfs.Client
	rec    *trace.Recorder
	path   string
}

// Open opens (or with create, creates) path through the PFS client for
// rank id, recording MPI_File_open.
func Open(fs pfs.FileSystem, id int, path string, create bool) (*File, error) {
	f := &File{fs: fs, client: fs.Client(id), rec: fs.Recorder(), path: path}
	name := "MPI_File_open"
	if create {
		name = "MPI_File_open(MODE_CREATE)"
	}
	f.rec.Push(trace.Op{Layer: trace.LayerMPI, Proc: f.client.Proc(), Name: name, Path: path, FileID: path})
	defer f.rec.Pop(f.client.Proc())
	if create {
		if err := f.client.Create(path); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Proc returns the owning client process name.
func (f *File) Proc() string { return f.client.Proc() }

// Path returns the file path.
func (f *File) Path() string { return f.path }

// WriteAt implements hdf5.Backend: it records MPI_File_write_at and routes
// the bytes through the PFS client, tagging the lowermost data writes with
// the library's object label.
func (f *File) WriteAt(off int64, data []byte, tag string) error {
	f.rec.Push(trace.Op{
		Layer: trace.LayerMPI, Proc: f.client.Proc(),
		Name: "MPI_File_write_at", Path: f.path, FileID: f.path,
		Offset: off, Size: int64(len(data)), Tag: tag,
	})
	defer f.rec.Pop(f.client.Proc())
	if tag != "" {
		f.fs.SetTagHint(tag)
		defer f.fs.SetTagHint("")
	}
	return f.client.WriteAt(f.path, off, data)
}

// ReadAll implements hdf5.Backend: reads the whole file (untraced; reads
// do not affect crash consistency).
func (f *File) ReadAll() ([]byte, error) {
	return f.client.Read(f.path)
}

// Sync records MPI_File_sync and forwards the fsync to the PFS.
func (f *File) Sync() error {
	f.rec.Push(trace.Op{
		Layer: trace.LayerMPI, Proc: f.client.Proc(),
		Name: "MPI_File_sync", Path: f.path, FileID: f.path, Sync: true,
	})
	defer f.rec.Pop(f.client.Proc())
	return f.client.Fsync(f.path)
}

// Close records MPI_File_close and the PFS-level close.
func (f *File) Close() error {
	f.rec.Push(trace.Op{
		Layer: trace.LayerMPI, Proc: f.client.Proc(),
		Name: "MPI_File_close", Path: f.path, FileID: f.path,
	})
	defer f.rec.Pop(f.client.Proc())
	return f.client.Close(f.path)
}

// Barrier records an MPI_Barrier across the given client procs with full
// cross-process causality: every proc's barrier entry happens-before every
// proc's barrier exit. The edges run through a coordinator process
// ("mpi/coordinator"), whose program order transitively links all pairs —
// the paper's happens-before order from MPI synchronisations.
func Barrier(rec *trace.Recorder, procs []string) {
	const coord = "mpi/coordinator"
	// Enter: each proc sends to the coordinator.
	for _, p := range procs {
		m := rec.NewMsgID()
		rec.Record(trace.Op{Layer: trace.LayerMPI, Proc: p, Name: "MPI_Barrier(enter)", MsgID: m, IsSend: true})
		rec.Record(trace.Op{Layer: trace.LayerMPI, Proc: coord, Name: "barrier_gather", Path: p, MsgID: m})
	}
	// Exit: the coordinator releases each proc.
	for _, p := range procs {
		m := rec.NewMsgID()
		rec.Record(trace.Op{Layer: trace.LayerMPI, Proc: coord, Name: "barrier_release", Path: p, MsgID: m, IsSend: true})
		rec.Record(trace.Op{Layer: trace.LayerMPI, Proc: p, Name: "MPI_Barrier(exit)", MsgID: m})
	}
}
