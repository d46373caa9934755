// Package workloads implements the paper's 11 test programs (§6.2): the
// POSIX-IO programs (ARVR, CR, RC, WAL), the HDF5/NetCDF programs
// (H5-create/-delete/-rename/-resize, CDF-create) and the parallel HDF5
// programs (H5-parallel-create, H5-parallel-resize), together with their
// preambles (initial states).
package workloads

import (
	"bytes"

	"paracrash/internal/paracrash"
)

// ARVR is Atomic-Replace-via-Rename: atomically replace the contents of a
// preexisting file foo by writing a temporary file and renaming it over the
// original — the checkpointing-library pattern.
func ARVR() paracrash.Workload {
	return NewProgram("ARVR", []Op{
		{Kind: OpCreat, Path: "/foo"},
		{Kind: OpPwrite, Path: "/foo", Data: bytes.Repeat([]byte("old"), 20)},
		{Kind: OpClose, Path: "/foo"},
	}, []Op{
		{Kind: OpCreat, Path: "/tmp"},
		{Kind: OpPwrite, Path: "/tmp", Data: bytes.Repeat([]byte("new"), 20)},
		{Kind: OpClose, Path: "/tmp"},
		{Kind: OpRename, Path: "/tmp", Path2: "/foo"},
	})
}

// CR is Create-and-Rename: create A/foo, then move it to directory B.
func CR() paracrash.Workload {
	return NewProgram("CR", []Op{
		{Kind: OpMkdir, Path: "/A"},
		{Kind: OpMkdir, Path: "/B"},
	}, []Op{
		{Kind: OpCreat, Path: "/A/foo"},
		{Kind: OpClose, Path: "/A/foo"},
		{Kind: OpRename, Path: "/A/foo", Path2: "/B/foo"},
	})
}

// RC is Rename-and-Create: rename directory A to B, then create B/foo.
func RC() paracrash.Workload {
	return NewProgram("RC", []Op{
		{Kind: OpMkdir, Path: "/A"},
	}, []Op{
		{Kind: OpRename, Path: "/A", Path2: "/B"},
		{Kind: OpCreat, Path: "/B/foo"},
		{Kind: OpClose, Path: "/B/foo"},
	})
}

// WAL is Write-Ahead-Logging: append the intended modification to a log
// file, overwrite the target file with multiple pages, then drop the log.
func WAL() paracrash.Workload {
	page := func(b byte) []byte { return bytes.Repeat([]byte{b}, 64) }
	return NewProgram("WAL", []Op{
		{Kind: OpCreat, Path: "/foo"},
		{Kind: OpPwrite, Path: "/foo", Data: page('o')},
		{Kind: OpPwrite, Path: "/foo", Off: 64, Data: page('O')},
		{Kind: OpClose, Path: "/foo"},
	}, []Op{
		{Kind: OpCreat, Path: "/log"},
		{Kind: OpAppend, Path: "/log", Data: page('L')},
		{Kind: OpClose, Path: "/log"},
		{Kind: OpPwrite, Path: "/foo", Data: page('n')},
		{Kind: OpPwrite, Path: "/foo", Off: 64, Data: page('N')},
		{Kind: OpClose, Path: "/foo"},
		{Kind: OpUnlink, Path: "/log"},
	})
}
