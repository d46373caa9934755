package paracrash

import (
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
)

// Test-only backends with a bug: each wraps a real backend and misbehaves on
// purpose, so the quarantine paths are tested on a backend that really
// fails.

// PanicOnApply wraps fs so that applying any lowermost op bad selects
// panics with "backend bug applying <op>".
func PanicOnApply(fs pfs.FileSystem, bad func(*trace.Op) bool) pfs.FileSystem {
	return &panicOnApply{FileSystem: fs, bad: bad}
}

type panicOnApply struct {
	pfs.FileSystem
	bad func(*trace.Op) bool
}

func (p *panicOnApply) ApplyLowermost(op *trace.Op) error {
	if p.bad(op) {
		panic("backend bug applying " + op.Key())
	}
	return p.FileSystem.ApplyLowermost(op)
}

// panicOnMount wraps a backend whose Mount panics once armed is set.
type panicOnMount struct {
	pfs.FileSystem
	armed bool
}

func (p *panicOnMount) Mount() (*pfs.Tree, error) {
	if p.armed {
		panic("backend bug mounting " + p.Name())
	}
	return p.FileSystem.Mount()
}
