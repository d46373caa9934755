package paracrash_test

import (
	"fmt"

	"paracrash"
)

// Example runs the paper's ARVR program against BeeGFS and prints the
// discovered crash-consistency bugs — the Figure 2 scenario.
func Example() {
	rec := paracrash.NewRecorder()
	fs, err := paracrash.NewFileSystem("beegfs", paracrash.DefaultConfig(), rec)
	if err != nil {
		panic(err)
	}
	report, err := paracrash.Run(fs, nil, paracrash.ARVR(), paracrash.DefaultOptions())
	if err != nil {
		panic(err)
	}
	for _, b := range report.Bugs {
		fmt.Printf("%s: %s -> %s\n", b.Kind, b.OpA, b.OpB)
	}
	// Output:
	// reordering: append(chunk)@storage#1 -> rename(dentry)@meta#0
	// reordering: rename(dentry)@meta#0 -> unlink(chunk)@storage#0
}

// Example_crossLayer attaches the HDF5 library adapter so inconsistencies
// are attributed to the responsible layer.
func Example_crossLayer() {
	rec := paracrash.NewRecorder()
	fs, err := paracrash.NewFileSystem("lustre", paracrash.ConfigFor("lustre"), rec)
	if err != nil {
		panic(err)
	}
	w := paracrash.H5Delete(paracrash.DefaultH5Params())
	report, err := paracrash.Run(fs, w.Library(), w, paracrash.DefaultOptions())
	if err != nil {
		panic(err)
	}
	for _, b := range report.Bugs {
		fmt.Printf("[%s] %s: %s -> %s\n", b.Layer, b.Kind, b.OpA, b.OpB)
	}
	// Output:
	// [hdf5] atomicity: scsi_write(h5:snod:/g1)@server#0 -> scsi_write(h5:heap:/g1)@server#1
}

// Example_modelSelection tests the same program and file system against
// each consistency model of the paper's §4.4.2 lattice. Stricter models
// flag more crash states as inconsistent; the paper tests every PFS
// against causal.
func Example_modelSelection() {
	for _, model := range []paracrash.Model{
		paracrash.ModelStrict, paracrash.ModelCommit,
		paracrash.ModelCausal, paracrash.ModelBaseline,
	} {
		rec := paracrash.NewRecorder()
		fs, err := paracrash.NewFileSystem("beegfs", paracrash.DefaultConfig(), rec)
		if err != nil {
			panic(err)
		}
		opts := paracrash.DefaultOptions()
		opts.PFSModel = model
		report, err := paracrash.Run(fs, nil, paracrash.ARVR(), opts)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %d inconsistent states, %d bugs\n",
			model, report.Inconsistent, len(report.Bugs))
	}
	// Output:
	// strict: 4 inconsistent states, 3 bugs
	// commit: 1 inconsistent states, 1 bugs
	// causal: 2 inconsistent states, 2 bugs
	// baseline: 4 inconsistent states, 3 bugs
}

// Example_lustreIsCleanOnPOSIX reproduces the paper's negative result:
// Lustre's accurate barriers leave no POSIX-level crash-consistency bug.
func Example_lustreIsCleanOnPOSIX() {
	rec := paracrash.NewRecorder()
	fs, err := paracrash.NewFileSystem("lustre", paracrash.ConfigFor("lustre"), rec)
	if err != nil {
		panic(err)
	}
	report, err := paracrash.Run(fs, nil, paracrash.ARVR(), paracrash.DefaultOptions())
	if err != nil {
		panic(err)
	}
	fmt.Printf("inconsistent states: %d, bugs: %d\n", report.Inconsistent, len(report.Bugs))
	// Output:
	// inconsistent states: 0, bugs: 0
}

// Example_consistencyModels is the paper's Figure 5 walkthrough on the ext4
// baseline. Two processes run
//
//	P0: write(fd1, "A"); send(buf); write(fd2, "B")
//	P1: recv(buf); write(fd3, "C"); fsync(fd3)
//
// With strict consistency all three writes must be preserved; commit
// guarantees only the fsynced C; causal adds A (it happens before C);
// baseline would allow losing all three. Only strict is violated: ext4
// with data journaling is causally consistent.
func Example_consistencyModels() {
	for _, model := range []paracrash.Model{
		paracrash.ModelStrict, paracrash.ModelCommit,
		paracrash.ModelCausal, paracrash.ModelBaseline,
	} {
		rec := paracrash.NewRecorder()
		fs, err := paracrash.NewFileSystem("ext4", paracrash.ConfigFor("ext4"), rec)
		if err != nil {
			panic(err)
		}
		opts := paracrash.DefaultOptions()
		opts.PFSModel = model
		rep, err := paracrash.Run(fs, nil, paracrash.Fig5Program(), opts)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-9s legal states: %2d   inconsistent crash states: %d\n",
			model, rep.Stats.LegalPFSStates, rep.Inconsistent)
	}
	// Output:
	// strict    legal states:  1   inconsistent crash states: 3
	// commit    legal states:  4   inconsistent crash states: 0
	// causal    legal states:  3   inconsistent crash states: 0
	// baseline  legal states:  8   inconsistent crash states: 0
}

// Example_layerAttribution grows a dataset through the full stack (HDF5 over
// MPI-IO over the PFS) and attributes each inconsistency to its layer: even
// on Lustre — clean for every POSIX program — the library's unordered
// metadata flush corrupts the resized dataset (Table 3, rows 13-14).
// 10x10 elements = 7 chunks: the resize splits the dataset's chunk B-tree,
// the paper's dimension-sensitive bug #14.
func Example_layerAttribution() {
	params := paracrash.DefaultH5Params()
	params.ResizeRows, params.ResizeCols = 10, 10
	for _, fsName := range []string{"lustre", "beegfs"} {
		rec := paracrash.NewRecorder()
		fs, err := paracrash.NewFileSystem(fsName, paracrash.ConfigFor(fsName), rec)
		if err != nil {
			panic(err)
		}
		w := paracrash.H5Resize(params)
		report, err := paracrash.Run(fs, w.Library(), w, paracrash.DefaultOptions())
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: library-attributed inconsistencies: %d of %d\n", fsName, report.LibOnly, report.Inconsistent)
		for _, b := range report.Bugs {
			fmt.Printf("  [%s] %s: %s , %s\n", b.Layer, b.Kind, b.OpA, b.OpB)
		}
	}
	// Output:
	// lustre: library-attributed inconsistencies: 2 of 3
	//   [hdf5] atomicity: scsi_write(log)@server#0 , scsi_write(h5:btree:/g1/d1)@server#0
	//   [pfs] atomicity: scsi_write(h5:ohdr:/g1/d1)@server#0 , scsi_write(h5:ohdr:/g1/d1)@server#1
	// beegfs: library-attributed inconsistencies: 2 of 5
	//   [hdf5] atomicity: append(h5:btree:/g1/d1)@storage#0 , pwrite(h5:btree:/g1/d1)@storage#1
	//   [pfs] atomicity: append(h5:btree:/g1/d1)@storage#0 , append(h5:btree:/g1/d1)@storage#1
	//   [pfs] atomicity: append(h5:btree:/g1/d1)@storage#1 , append(h5:btree:/g1/d1)@storage#0
	//   [pfs] atomicity: pwrite(h5:ohdr:/g1/d1)@storage#1 , pwrite(h5:ohdr:/g1/d1)@storage#0
}
