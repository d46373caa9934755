// Package workloads implements the paper's 11 test programs (§6.2): the
// POSIX-IO programs (ARVR, CR, RC, WAL), the HDF5/NetCDF programs
// (H5-create/-delete/-rename/-resize, CDF-create) and the parallel HDF5
// programs (H5-parallel-create, H5-parallel-resize), together with their
// preambles (initial states).
package workloads

import (
	"bytes"

	"paracrash/internal/paracrash"
	"paracrash/internal/pfs"
)

// posixProgram is a simple single-client POSIX workload.
type posixProgram struct {
	name     string
	preamble func(c pfs.Client) error
	run      func(c pfs.Client) error
}

// Name implements paracrash.Workload.
func (p *posixProgram) Name() string { return p.name }

// Preamble implements paracrash.Workload.
func (p *posixProgram) Preamble(fs pfs.FileSystem) error {
	if p.preamble == nil {
		return nil
	}
	return p.preamble(fs.Client(0))
}

// Run implements paracrash.Workload.
func (p *posixProgram) Run(fs pfs.FileSystem) error {
	return p.run(fs.Client(0))
}

// ARVR is Atomic-Replace-via-Rename: atomically replace the contents of a
// preexisting file foo by writing a temporary file and renaming it over the
// original — the checkpointing-library pattern.
func ARVR() paracrash.Workload {
	return &posixProgram{
		name: "ARVR",
		preamble: func(c pfs.Client) error {
			if err := c.Create("/foo"); err != nil {
				return err
			}
			if err := c.WriteAt("/foo", 0, bytes.Repeat([]byte("old"), 20)); err != nil {
				return err
			}
			return c.Close("/foo")
		},
		run: func(c pfs.Client) error {
			if err := c.Create("/tmp"); err != nil {
				return err
			}
			if err := c.WriteAt("/tmp", 0, bytes.Repeat([]byte("new"), 20)); err != nil {
				return err
			}
			if err := c.Close("/tmp"); err != nil {
				return err
			}
			return c.Rename("/tmp", "/foo")
		},
	}
}

// CR is Create-and-Rename: create A/foo, then move it to directory B.
func CR() paracrash.Workload {
	return &posixProgram{
		name: "CR",
		preamble: func(c pfs.Client) error {
			if err := c.Mkdir("/A"); err != nil {
				return err
			}
			return c.Mkdir("/B")
		},
		run: func(c pfs.Client) error {
			if err := c.Create("/A/foo"); err != nil {
				return err
			}
			if err := c.Close("/A/foo"); err != nil {
				return err
			}
			return c.Rename("/A/foo", "/B/foo")
		},
	}
}

// RC is Rename-and-Create: rename directory A to B, then create B/foo.
func RC() paracrash.Workload {
	return &posixProgram{
		name: "RC",
		preamble: func(c pfs.Client) error {
			return c.Mkdir("/A")
		},
		run: func(c pfs.Client) error {
			if err := c.Rename("/A", "/B"); err != nil {
				return err
			}
			if err := c.Create("/B/foo"); err != nil {
				return err
			}
			return c.Close("/B/foo")
		},
	}
}

// WAL is Write-Ahead-Logging: append the intended modification to a log
// file, overwrite the target file with multiple pages, then drop the log.
func WAL() paracrash.Workload {
	page := func(b byte) []byte { return bytes.Repeat([]byte{b}, 64) }
	return &posixProgram{
		name: "WAL",
		preamble: func(c pfs.Client) error {
			if err := c.Create("/foo"); err != nil {
				return err
			}
			if err := c.WriteAt("/foo", 0, page('o')); err != nil {
				return err
			}
			if err := c.WriteAt("/foo", 64, page('O')); err != nil {
				return err
			}
			if err := c.Close("/foo"); err != nil {
				return err
			}
			return nil
		},
		run: func(c pfs.Client) error {
			if err := c.Create("/log"); err != nil {
				return err
			}
			if err := c.Append("/log", page('L')); err != nil {
				return err
			}
			if err := c.Close("/log"); err != nil {
				return err
			}
			if err := c.WriteAt("/foo", 0, page('n')); err != nil {
				return err
			}
			if err := c.WriteAt("/foo", 64, page('N')); err != nil {
				return err
			}
			if err := c.Close("/foo"); err != nil {
				return err
			}
			return c.Unlink("/log")
		},
	}
}
