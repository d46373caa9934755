package paracrash

import (
	"sync/atomic"
	"time"

	"paracrash/internal/pfs"
	"paracrash/internal/trace"
)

// Test-only backends with a bug: each wraps a real backend and misbehaves on
// purpose, so the quarantine and cancellation paths are tested on a backend
// that really fails or stalls. Each one implements pfs.Cloner and hands its
// clones the same bug, so a Workers > 1 run really runs in parallel.

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

func (p *panicOnApply) CloneDetached() pfs.FileSystem {
	return &panicOnApply{FileSystem: p.FileSystem.(pfs.Cloner).CloneDetached(), bad: p.bad}
}

// panicOnMount wraps a backend whose Mount panics once armed is set.
type panicOnMount struct {
	pfs.FileSystem
	armed *atomic.Bool
}

func (p *panicOnMount) Mount() (*pfs.Tree, error) {
	if p.armed.Load() {
		panic("backend bug mounting " + p.Name())
	}
	return p.FileSystem.Mount()
}

func (p *panicOnMount) CloneDetached() pfs.FileSystem {
	return &panicOnMount{FileSystem: p.FileSystem.(pfs.Cloner).CloneDetached(), armed: p.armed}
}

// SlowApply wraps fs so that every lowermost op apply takes at least d,
// which stretches a run's reconstruction work.
func SlowApply(fs pfs.FileSystem, d time.Duration) pfs.FileSystem {
	return &slowApply{FileSystem: fs, d: d}
}

type slowApply struct {
	pfs.FileSystem
	d time.Duration
}

func (s *slowApply) ApplyLowermost(op *trace.Op) error {
	time.Sleep(s.d)
	return s.FileSystem.ApplyLowermost(op)
}

func (s *slowApply) CloneDetached() pfs.FileSystem {
	return &slowApply{FileSystem: s.FileSystem.(pfs.Cloner).CloneDetached(), d: s.d}
}
