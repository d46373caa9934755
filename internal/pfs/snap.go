package pfs

import (
	"time"

	"paracrash/internal/blockdev"
	"paracrash/internal/vfs"
)

// ServerSnap is an O(1) immutable capture of a single server store — the
// unit of the explorer's incremental crash-state reconstruction. Because
// vfs.FS and blockdev.Dev snapshots are structurally shared tries, holding
// thousands of ServerSnaps (one per reconstruction prefix) costs a few
// pointers each plus the paths their histories diverged on.
type ServerSnap struct {
	fs  *vfs.FS
	dev *blockdev.Dev
}

// Valid reports whether the snap holds a store.
func (s ServerSnap) Valid() bool { return s.fs != nil || s.dev != nil }

// CaptureServer snapshots a single server store in O(1).
func (c *Cluster) CaptureServer(proc string) (ServerSnap, bool) {
	if s := c.FSServer(proc); s != nil {
		return ServerSnap{fs: s.FS.Snapshot()}, true
	}
	if s := c.Block(proc); s != nil {
		return ServerSnap{dev: s.Dev.Snapshot()}, true
	}
	return ServerSnap{}, false
}

// RestoreServerSnap adopts a captured store snapshot in O(1), timed as
// "pfs/restore-server". The snap is only read, so one snap can seed any
// number of restores.
func (c *Cluster) RestoreServerSnap(proc string, snap ServerSnap) bool {
	if c.restoreServer != nil {
		defer c.restoreServer.Since(time.Now())
	}
	if s := c.FSServer(proc); s != nil {
		if snap.fs == nil {
			return false
		}
		s.FS.Restore(snap.fs)
		return true
	}
	if s := c.Block(proc); s != nil {
		if snap.dev == nil {
			return false
		}
		s.Dev.Restore(snap.dev)
		return true
	}
	return false
}

// ServerSnap extracts proc's store from a whole-cluster snapshot as an
// O(1) per-server snap (the reconstruction base for servers with no kept
// ops to apply). ok is false when the state holds no store for proc.
func (st *State) ServerSnap(proc string) (ServerSnap, bool) {
	if fs, ok := st.FS[proc]; ok {
		return ServerSnap{fs: fs}, true
	}
	if dev, ok := st.Dev[proc]; ok {
		return ServerSnap{dev: dev}, true
	}
	return ServerSnap{}, false
}
