// Package blockdev implements the block-device substrate used by the
// kernel-level parallel file systems in the simulated stack (the paper's
// GPFS and Lustre, traced at the SCSI command level through iSCSI).
//
// A Dev is an LBA-addressed image. Writes replace whole blocks; scsi_sync
// is a write barrier: every write issued before the barrier persists before
// any write issued after it on the same device. As with package vfs, the
// persist-before relation itself is computed by package causality — this
// package only provides replayable ops, snapshots and canonical hashing.
//
// The block table is a persistent, structurally-shared map, so Snapshot and
// Restore are O(1) pointer copies. Block contents are never mutated in
// place (Write installs a block it owns from then on), so no per-block
// ownership tracking is needed: sharing the trie is always safe. An *Dev returned by Snapshot
// must not be written to.
package blockdev

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"paracrash/internal/persist"
)

// OpKind enumerates replayable block-device commands.
type OpKind int

const (
	// OpWrite writes Data at block address LBA.
	OpWrite OpKind = iota
	// OpSync is a write barrier (scsi_synchronize_cache).
	OpSync
)

// Op is a single replayable block command.
type Op struct {
	Kind OpKind
	LBA  int64
	Data []byte
}

// String renders the op in the iSCSI-trace form used by the paper.
func (o Op) String() string {
	if o.Kind == OpSync {
		return "scsi_sync()"
	}
	return fmt.Sprintf("scsi_write(LBA: %d, len=%d)", o.LBA, len(o.Data))
}

// Dev is an in-memory block device. Blocks are variable-length: each LBA
// holds exactly the bytes most recently written to it, which is sufficient
// for whole-block-granularity crash emulation.
type Dev struct {
	blocks persist.Map[int64, []byte]
}

// New returns an empty device.
func New() *Dev {
	return &Dev{blocks: persist.NewMap[int64, []byte](persist.Int64Hash)}
}

// Write stores data at lba, replacing any previous contents. The device
// takes ownership of data: it is installed as the block without a copy, so
// the caller must not modify it afterwards (the replay of a traced write
// installs the trace's payload, which nothing modifies).
func (d *Dev) Write(lba int64, data []byte) {
	d.blocks = d.blocks.Set(lba, data)
}

// Read returns the contents of lba and whether the block has been written.
func (d *Dev) Read(lba int64) ([]byte, bool) {
	b, ok := d.blocks.Get(lba)
	if !ok {
		return nil, false
	}
	return append([]byte(nil), b...), true
}

// View is Read without the copy: the returned bytes are the stored block
// and must not be modified. They never change underneath the caller, since
// Write installs a new block instead of writing in place.
func (d *Dev) View(lba int64) ([]byte, bool) {
	return d.blocks.Get(lba)
}

// Erase removes the block at lba (models discard; used by fsck policies).
func (d *Dev) Erase(lba int64) {
	d.blocks = d.blocks.Delete(lba)
}

// LBAs returns the sorted set of written block addresses.
func (d *Dev) LBAs() []int64 {
	out := make([]int64, 0, d.blocks.Len())
	d.blocks.Range(func(lba int64, _ []byte) bool {
		out = append(out, lba)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Range calls f on every written block, in no particular order, until f
// returns false. The bytes are the stored block and must not be modified.
func (d *Dev) Range(f func(lba int64, data []byte) bool) {
	d.blocks.Range(f)
}

// Apply replays op onto the device.
func (d *Dev) Apply(op Op) error {
	switch op.Kind {
	case OpWrite:
		d.Write(op.LBA, op.Data)
		return nil
	case OpSync:
		return nil // barrier: persistence point only
	default:
		return fmt.Errorf("blockdev: apply: unknown op kind %d", op.Kind)
	}
}

// Snapshot returns an immutable O(1) snapshot sharing the block trie. The
// returned Dev must not be written to.
func (d *Dev) Snapshot() *Dev {
	return &Dev{blocks: d.blocks}
}

// Restore adopts snap's block trie in O(1). snap is only read and may be
// restored into any number of devices, including concurrently.
func (d *Dev) Restore(snap *Dev) {
	d.blocks = snap.blocks
}

// Serialize renders the device state canonically: one line per written LBA
// with a content hash.
func (d *Dev) Serialize() string {
	var b strings.Builder
	for _, lba := range d.LBAs() {
		blk, _ := d.blocks.Get(lba)
		sum := sha256.Sum256(blk)
		fmt.Fprintf(&b, "%d %d %s\n", lba, len(blk), hex.EncodeToString(sum[:8]))
	}
	return b.String()
}

// Hash returns a short hex digest of the canonical state.
func (d *Dev) Hash() string {
	sum := sha256.Sum256([]byte(d.Serialize()))
	return hex.EncodeToString(sum[:12])
}
