package workloads

import (
	"bytes"
	"fmt"

	"paracrash/internal/paracrash"
	"paracrash/internal/pfs"
	"paracrash/internal/stack"
)

// H5Params are the sensitivity-study knobs of the HDF5/NetCDF programs
// (paper §6.2): dataset dimensions, datasets per group, number of clients.
// The dimensions are scaled down from the paper's 200×200..1000×1000 so a
// dataset is a handful of chunks; the structural transitions (chunk B-tree
// split, SNOD split) happen at the same relative points.
type H5Params struct {
	// Rows, Cols are the preamble datasets' dimensions (paper default
	// 200×200, here 4×4 — exactly one chunk).
	Rows, Cols int
	// ResizeRows, ResizeCols are the H5-resize target (8×8 = 4 chunks keeps
	// a single-level chunk B-tree; 10×10 = 7 chunks splits it, the paper's
	// dimension sensitivity for bug #14).
	ResizeRows, ResizeCols int
	// PerGroup is the number of datasets per preamble group (paper 1–8,
	// default 2... the paper's default initial state stores two groups and
	// two datasets, i.e. one per group).
	PerGroup int
	// Clients is the number of MPI ranks in the parallel programs (paper
	// 1–10, default 2).
	Clients int
}

// DefaultH5Params mirrors the paper's defaults, scaled.
func DefaultH5Params() H5Params {
	return H5Params{Rows: 4, Cols: 4, ResizeRows: 8, ResizeCols: 8, PerGroup: 1, Clients: 2}
}

// maxClients bounds Clients. The parallel programs open every rank's
// session before anything can fail, and their collective creates grow with
// the square of the rank count, so an unbounded value can exhaust memory.
// The bound still covers the paper's sweep of 1–10 ranks, although no run
// above 3 ranks can be checked: on beegfs, H5-parallel-create with 3 ranks
// and H5-parallel-resize with 4 already record 24 PFS-layer ops, more than
// the 20 a run enumerates preserved sets over.
const maxClients = 16

// Validate reports the first settable knob out of range: a negative
// dimension, or Clients outside [1, 16]. Errors name the knob as the
// paracrash command's flags do.
func (p H5Params) Validate() error {
	if p.Clients < 1 {
		return fmt.Errorf("clients must be >= 1, got %d", p.Clients)
	}
	if p.Clients > maxClients {
		return fmt.Errorf("clients must be <= %d, got %d", maxClients, p.Clients)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"rows", p.Rows}, {"cols", p.Cols}, {"resize-rows", p.ResizeRows}, {"resize-cols", p.ResizeCols}} {
		if f.v < 0 {
			return fmt.Errorf("%s must be >= 0, got %d", f.name, f.v)
		}
	}
	return nil
}

// FilePath is where the library file lives on every PFS under test.
const FilePath = "/test.h5"

// H5Workload is an HDF5/NetCDF test program together with its library
// adapter for cross-layer checking.
type H5Workload struct {
	name    string
	dialect stack.Dialect
	params  H5Params
	body    func(fs pfs.FileSystem, p H5Params) error
}

// Name implements paracrash.Workload.
func (w *H5Workload) Name() string { return w.name }

// Library returns the checker adapter for this workload's library layer.
func (w *H5Workload) Library() *stack.Library {
	return stack.NewLibrary(w.dialect, FilePath)
}

// Preamble implements paracrash.Workload: it formats the library file with
// two groups holding PerGroup datasets each, with deterministic contents —
// the paper's common initial state.
func (w *H5Workload) Preamble(fs pfs.FileSystem) error {
	s, err := stack.FormatFile(fs, 0, FilePath, w.dialect)
	if err != nil {
		return err
	}
	p := w.params
	for gi := 1; gi <= 2; gi++ {
		g := fmt.Sprintf("/g%d", gi)
		if err := s.CreateGroup(g); err != nil {
			return err
		}
		for di := 1; di <= p.PerGroup; di++ {
			path := fmt.Sprintf("%s/d%d", g, di)
			if err := s.CreateDataset(path, p.Rows, p.Cols); err != nil {
				return err
			}
			fill := bytes.Repeat([]byte{byte('0' + gi), byte('a' + di)}, (p.Rows*p.Cols+1)/2)
			if err := s.WriteDataset(path, fill[:p.Rows*p.Cols]); err != nil {
				return err
			}
		}
	}
	return s.Close()
}

// Run implements paracrash.Workload.
func (w *H5Workload) Run(fs pfs.FileSystem) error { return w.body(fs, w.params) }

// H5Create is the H5-create program: open, create one dataset, close.
func H5Create(p H5Params) *H5Workload {
	return &H5Workload{
		name: "H5-create", dialect: stack.DialectHDF5, params: p,
		body: func(fs pfs.FileSystem, p H5Params) error {
			s, err := stack.OpenFile(fs, 0, FilePath, stack.DialectHDF5)
			if err != nil {
				return err
			}
			if err := s.CreateDataset("/g1/dnew", p.Rows, p.Cols); err != nil {
				return err
			}
			return s.Close()
		},
	}
}

// H5Delete is the H5-delete program: open, delete a dataset, close.
func H5Delete(p H5Params) *H5Workload {
	return &H5Workload{
		name: "H5-delete", dialect: stack.DialectHDF5, params: p,
		body: func(fs pfs.FileSystem, p H5Params) error {
			s, err := stack.OpenFile(fs, 0, FilePath, stack.DialectHDF5)
			if err != nil {
				return err
			}
			if err := s.Delete("/g1/d1"); err != nil {
				return err
			}
			return s.Close()
		},
	}
}

// H5Rename is the H5-rename program: open, move a dataset across groups,
// close.
func H5Rename(p H5Params) *H5Workload {
	return &H5Workload{
		name: "H5-rename", dialect: stack.DialectHDF5, params: p,
		body: func(fs pfs.FileSystem, p H5Params) error {
			s, err := stack.OpenFile(fs, 0, FilePath, stack.DialectHDF5)
			if err != nil {
				return err
			}
			if err := s.Move("/g1/d1", "/g2/dren"); err != nil {
				return err
			}
			return s.Close()
		},
	}
}

// H5Resize is the H5-resize program: open, grow a dataset, close.
func H5Resize(p H5Params) *H5Workload {
	return &H5Workload{
		name: "H5-resize", dialect: stack.DialectHDF5, params: p,
		body: func(fs pfs.FileSystem, p H5Params) error {
			s, err := stack.OpenFile(fs, 0, FilePath, stack.DialectHDF5)
			if err != nil {
				return err
			}
			if err := s.Resize("/g1/d1", p.ResizeRows, p.ResizeCols); err != nil {
				return err
			}
			return s.Close()
		},
	}
}

// CDFCreate is the CDF-create program: NetCDF variable creation.
func CDFCreate(p H5Params) *H5Workload {
	return &H5Workload{
		name: "CDF-create", dialect: stack.DialectNetCDF, params: p,
		body: func(fs pfs.FileSystem, p H5Params) error {
			s, err := stack.OpenFile(fs, 0, FilePath, stack.DialectNetCDF)
			if err != nil {
				return err
			}
			if err := s.CreateDataset("/v1", p.Rows, p.Cols); err != nil {
				return err
			}
			return s.Close()
		},
	}
}

// CDFRename is the CDF-rename program (paper §6.2: tested, no bugs found).
func CDFRename(p H5Params) *H5Workload {
	return &H5Workload{
		name: "CDF-rename", dialect: stack.DialectNetCDF, params: p,
		body: func(fs pfs.FileSystem, p H5Params) error {
			s, err := stack.OpenFile(fs, 0, FilePath, stack.DialectNetCDF)
			if err != nil {
				return err
			}
			if err := s.Move("/g1/d1", "/g1/vren"); err != nil {
				return err
			}
			return s.Close()
		},
	}
}

// H5ParallelCreate is the H5-parallel-create program: Clients ranks
// collectively create one dataset per rank, synchronise, and close
// (rank 0 flushing the metadata).
func H5ParallelCreate(p H5Params) *H5Workload {
	return &H5Workload{
		name: "H5-parallel-create", dialect: stack.DialectHDF5, params: p,
		body: func(fs pfs.FileSystem, p H5Params) error {
			sessions := make([]*stack.Session, p.Clients)
			for r := 0; r < p.Clients; r++ {
				s, err := stack.OpenFile(fs, r, FilePath, stack.DialectHDF5)
				if err != nil {
					return err
				}
				sessions[r] = s
			}
			// Collective creates: every rank applies every create to its
			// cached view (HDF5 collective metadata semantics).
			for i := 0; i < p.Clients; i++ {
				path := fmt.Sprintf("/g1/p%d", i)
				for _, s := range sessions {
					if err := s.CreateDataset(path, p.Rows, p.Cols); err != nil {
						return err
					}
				}
			}
			stack.Barrier(sessions...)
			// Each rank fills its own dataset.
			for i, s := range sessions {
				data := bytes.Repeat([]byte{byte('A' + i)}, p.Rows*p.Cols)
				if err := s.WriteDataset(fmt.Sprintf("/g1/p%d", i), data); err != nil {
					return err
				}
			}
			stack.Barrier(sessions...)
			// Non-zero ranks close first (data-only flush), rank 0 last.
			for r := p.Clients - 1; r >= 0; r-- {
				if err := sessions[r].Close(); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// H5ParallelResize is the H5-parallel-resize program: the ranks
// collectively grow a dataset and write disjoint slabs of the new region.
func H5ParallelResize(p H5Params) *H5Workload {
	return &H5Workload{
		name: "H5-parallel-resize", dialect: stack.DialectHDF5, params: p,
		body: func(fs pfs.FileSystem, p H5Params) error {
			sessions := make([]*stack.Session, p.Clients)
			for r := 0; r < p.Clients; r++ {
				s, err := stack.OpenFile(fs, r, FilePath, stack.DialectHDF5)
				if err != nil {
					return err
				}
				sessions[r] = s
			}
			for _, s := range sessions {
				if err := s.Resize("/g1/d1", p.ResizeRows, p.ResizeCols); err != nil {
					return err
				}
			}
			stack.Barrier(sessions...)
			size := p.ResizeRows * p.ResizeCols
			slab := (size + p.Clients - 1) / p.Clients
			for i, s := range sessions {
				off := i * slab
				n := slab
				if off+n > size {
					n = size - off
				}
				if n <= 0 {
					continue
				}
				data := bytes.Repeat([]byte{byte('a' + i)}, n)
				if err := s.WriteDatasetAt("/g1/d1", off, data); err != nil {
					return err
				}
			}
			stack.Barrier(sessions...)
			for r := p.Clients - 1; r >= 0; r-- {
				if err := sessions[r].Close(); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

var _ paracrash.Workload = (*H5Workload)(nil)
