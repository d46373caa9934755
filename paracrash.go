// Package paracrash is a crash-consistency testing framework for HPC I/O
// stacks, reproducing "Pinpointing Crash-Consistency Bugs in the HPC I/O
// Stack: A Cross-Layer Approach" (SC '21).
//
// ParaCrash runs a test program against a simulated parallel file system
// (optionally topped by a simulated HDF5/NetCDF library over MPI-IO),
// traces every layer, emulates crashes by replaying subsets of the
// lowermost storage operations allowed by the persistence semantics, and
// compares each recovered state against golden states generated from the
// preserved sets a crash-consistency model permits. Inconsistencies are
// attributed to the responsible layer and classified as reordering or
// atomicity violations.
//
// Quick start:
//
//	rec := paracrash.NewRecorder()
//	fs, _ := paracrash.NewFileSystem("beegfs", paracrash.DefaultConfig(), rec)
//	report, _ := paracrash.Run(fs, nil, paracrash.ARVR(), paracrash.DefaultOptions())
//	fmt.Print(report.Format())
//
// The five simulated parallel file systems (BeeGFS, OrangeFS, GlusterFS,
// GPFS, Lustre) and the ext4 baseline live in internal/pfs; the HDF5 and
// NetCDF library simulations in internal/hdf5 and internal/stack. Custom
// file systems implement the FileSystem interface, custom test programs
// the Workload interface.
package paracrash

import (
	"context"

	"paracrash/internal/exps"
	core "paracrash/internal/paracrash"
	"paracrash/internal/pfs"
	"paracrash/internal/stack"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

// Core types re-exported from the testing engine.
type (
	// Report is the outcome of one testing run.
	Report = core.Report
	// Bug is a deduplicated crash-consistency bug.
	Bug = core.Bug
	// Options configures a run (exploration mode, consistency models,
	// emulator bounds).
	Options = core.Options
	// Model is a crash-consistency model.
	Model = core.Model
	// Mode is a crash-state exploration strategy.
	Mode = core.Mode
	// Stats records exploration effort.
	Stats = core.Stats
	// Workload is a test program (preamble + traced body).
	Workload = core.Workload
	// Library abstracts the I/O library layer for cross-layer checking.
	Library = core.Library

	// FileSystem is a testable parallel file system.
	FileSystem = pfs.FileSystem
	// Client is the POSIX-like client interface test programs use.
	Client = pfs.Client
	// Config describes a PFS deployment.
	Config = pfs.Config
	// Tree is a PFS's logical namespace, the golden-master comparison unit.
	Tree = pfs.Tree

	// Recorder collects cross-layer traces.
	Recorder = trace.Recorder
	// Op is a single traced operation.
	Op = trace.Op

	// H5Params are the HDF5/NetCDF program sensitivity knobs.
	H5Params = workloads.H5Params
	// H5Workload is an HDF5/NetCDF test program with its library adapter.
	H5Workload = workloads.H5Workload
)

// Consistency models (paper §4.4.2).
const (
	ModelStrict   = core.ModelStrict
	ModelCommit   = core.ModelCommit
	ModelCausal   = core.ModelCausal
	ModelBaseline = core.ModelBaseline
)

// Exploration strategies (paper §5).
const (
	ModeBrute   = core.ModeBrute
	ModePruning = core.ModePruning
)

// Run executes the ParaCrash pipeline: trace, emulate crashes, check each
// recovered state against the legal states of each layer's model, and
// report attributed, classified, deduplicated bugs. lib may be nil for
// POSIX programs.
func Run(fs FileSystem, lib Library, w Workload, opts Options) (*Report, error) {
	return core.Run(fs, lib, w, opts)
}

// RunContext is Run with cancellation: when ctx is cancelled or its
// deadline passes, exploration stops at the next crash-state boundary and
// the error wraps ctx.Err(). An uncancelled RunContext produces a report
// byte-identical to Run's.
func RunContext(ctx context.Context, fs FileSystem, lib Library, w Workload, opts Options) (*Report, error) {
	return core.RunContext(ctx, fs, lib, w, opts)
}

// DefaultOptions mirrors the paper's evaluation settings: pruning
// exploration, k=1 victims over all consistent cuts, causal PFS model,
// baseline library model.
func DefaultOptions() Options { return core.DefaultOptions() }

// NewRecorder returns a fresh trace recorder.
func NewRecorder() *Recorder { return trace.NewRecorder() }

// DefaultConfig returns the paper's small-cluster deployment (two metadata
// and two storage servers, scaled-down striping).
func DefaultConfig() Config { return pfs.DefaultConfig() }

// ConfigFor returns the paper's Table 2 deployment for a named file system.
func ConfigFor(name string) Config { return exps.ConfigFor(name) }

// FileSystems lists the available simulated file systems.
func FileSystems() []string { return exps.FSNames() }

// NewFileSystem constructs a simulated file system by name: "beegfs",
// "orangefs", "glusterfs", "gpfs", "lustre", or "ext4".
func NewFileSystem(name string, conf Config, rec *Recorder) (FileSystem, error) {
	return exps.NewFS(name, conf, rec)
}

// The paper's POSIX test programs (§6.2).
var (
	// ARVR is Atomic-Replace-via-Rename.
	ARVR = workloads.ARVR
	// CR is Create-and-Rename.
	CR = workloads.CR
	// RC is Rename-and-Create.
	RC = workloads.RC
	// WAL is Write-Ahead-Logging.
	WAL = workloads.WAL
	// Fig5Program is the paper's Figure 5 two-process model example.
	Fig5Program = workloads.Fig5Program
)

// The paper's HDF5/NetCDF test programs (§6.2). Each returns a workload
// whose Library() adapter plugs into Run for cross-layer checking.
var (
	H5Create         = workloads.H5Create
	H5Delete         = workloads.H5Delete
	H5Rename         = workloads.H5Rename
	H5Resize         = workloads.H5Resize
	CDFCreate        = workloads.CDFCreate
	CDFRename        = workloads.CDFRename
	H5ParallelCreate = workloads.H5ParallelCreate
	H5ParallelResize = workloads.H5ParallelResize
)

// DefaultH5Params mirrors the paper's default dataset shapes (scaled).
func DefaultH5Params() H5Params { return workloads.DefaultH5Params() }

// NewHDF5Library returns a library adapter for an HDF5 file at path.
func NewHDF5Library(path string) Library {
	return stack.NewLibrary(stack.DialectHDF5, path)
}

// NewNetCDFLibrary returns a library adapter for a NetCDF file at path.
func NewNetCDFLibrary(path string) Library {
	return stack.NewLibrary(stack.DialectNetCDF, path)
}
