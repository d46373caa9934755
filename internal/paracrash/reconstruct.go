// Crash-state reconstruction by store image — the explorer's only
// reconstruction engine.
//
// Recovery sees only the store images a crash state leaves behind, and each
// server's image is a function of the trace and the kept set alone:
//
//   - A block server's image is, per LBA slot, the payload of the last kept
//     write to it, or the initial block when there is none. Each write's
//     payload is classed once, at construction, by its bytes per slot;
//     class 0 is the initial block's bytes, so a write that rewrites the
//     initial block changes nothing.
//   - A vfs server's image is the set of its kept ops other than fsync,
//     which changes no state.
//
// The image key — every server's part, at fixed widths, concatenated in
// proc order — keys the recovered-outcome memo, so recovery, mount and
// serialize run once per image, not once per kept set. On a memo miss the
// cluster is brought to the image's canonical kept sequence, a function of
// the key alone: per block slot the first write of its payload class, per
// vfs server its kept non-sync ops, each in trace order. Syncs, shadowed
// writes and writes equal to the initial block are never applied. What a
// reconstruction replays therefore depends on the image and not on which
// kept set reached it first.
//
// The vfs/blockdev substrates are persistent (O(1) snapshot and restore), so
// a canonical sequence need not be replayed from the initial snapshot every
// time:
//
//   - While building a server's sequence, the reconstructor captures an O(1)
//     store snapshot after every applied op — a trie of prefix roots keyed
//     by (parent root, op). Reconstructing restores each server from the
//     deepest root its sequence shares with one built before, and only the
//     ops past that prefix are replayed.
//   - Every reconstruction restores every server. Recovery and legal-state
//     replay mutate the whole cluster in place, and one of them runs between
//     any two reconstructions, so there is no state left to reuse; a restore
//     is O(1) anyway.
//
// Each image is reconstructed once and each trie node is built once, so the
// work depends on the set of images visited, not on the order they are
// visited in.
//
// Effort is counted where it happens: every server-store restore and every
// lowermost op apply bring performs lands in Stats.ServerRestores and
// Stats.OpsReplayed — including the reconstructions class lookups pay for.
// Resumed runs and fleet shards therefore report the work they actually
// did, not a full walk's.
//
// The engine's reference lives in test code: reference_test.go rebuilds every
// generated state on a fresh cluster (restore everything, replay every kept
// op in universe order), requires the identical recovery outcome, and
// requires every state sharing an image key to rebuild to the same outcome;
// testdata/fingerprints.golden pins the reports' verdicts, state counts and
// effort.
package paracrash

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"paracrash/internal/blockdev"
	"paracrash/internal/causality"
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
	"paracrash/internal/vfs"
)

// maxPrefixRoots bounds each server's prefix-root trie. Each node is an
// O(1) structurally-shared snapshot, so the bound exists only to keep
// divergence-path garbage from accumulating on very long runs. When a
// server's trie would overflow mid-build, it is cleared and the build
// restarts from the initial snapshot, preserving the invariant that every
// node is reachable from the root.
const maxPrefixRoots = 4096

// reconstructor brings the live cluster to crash states. One reconstructor
// serves one session; it owns the prefix-root tries and the outcome memo.
type reconstructor struct {
	s *session

	procs   []string      // sorted servers with universe ops
	servers []imageServer // per proc; read-only
	keyLen  int           // bytes in an image key

	roots []prefixRoots // per proc

	// others are the cluster's servers without universe ops: no crash state
	// changes them, so every bring restores them to the initial snapshot.
	others     []string
	otherSnaps []pfs.ServerSnap

	// outcomes caches the recovery outcome per image key: recovery and
	// mount are pure functions of the store images (the front only selects
	// legal-state sets), so the class lookups and verdicts of every state
	// reaching an image run fsck+mount exactly once between them.
	outcomes map[string]*recoveredOutcome

	// key holds the image key of the Keep bitset lastKeep points into: one
	// state's class lookup and verdict ask for the same (read-only, never
	// mutated in place) bitset, so its key is built once per state. Holding
	// the element pointer keeps the bitset alive, so the address cannot be
	// reused for different content while cached.
	key      []byte
	lastKeep *uint64

	seq []int // scratch: one server's canonical kept sequence
}

// imageServer is one server's part of the image key, built from the trace
// at construction. Its ops that change the store each set one slot of the
// part: a block write sets its LBA's slot to the write's payload class, a
// vfs op other than fsync sets a slot of its own to 1. A later kept write to
// a slot overwrites an earlier one's class, as it overwrites its bytes.
type imageServer struct {
	off, n  int       // the part's byte range in the image key
	width   int       // bits per slot
	effects []imageOp // ops that change the store, in trace order
	// reps[slot][class] is the first op writing class to slot, the one a
	// canonical kept sequence applies; class 0 (the initial state) has none.
	reps [][]int
}

// imageOp is one op's effect on its server's image.
type imageOp struct{ op, slot, class int }

// prefixRoots is one server's trie of captured stores: node 0 is the
// initial snapshot, and the child of node p along op holds the store after
// applying op to node p's.
type prefixRoots struct {
	snaps []pfs.ServerSnap
	child map[rootEdge]int
}

type rootEdge struct{ root, op int }

func newPrefixRoots(initial pfs.ServerSnap) prefixRoots {
	return prefixRoots{snaps: []pfs.ServerSnap{initial}, child: map[rootEdge]int{}}
}

// maxOutcomes bounds the recovered-outcome cache; entries hold mounted
// trees and the class digests, so the bound keeps long runs from
// accumulating whole namespaces.
const maxOutcomes = 4096

// recoveredOutcome is the deterministic result of running recovery and
// mount on one image. Exactly one of recoverErr/mountErr/tree is set;
// the tree is read-only once cached (Mount builds fresh buffers and the
// library recovery tools copy before modifying).
type recoveredOutcome struct {
	recoverErr string // genuine fsck failure, the error text
	mountErr   string // genuine post-fsck mount failure, the error text
	tree       *pfs.Tree
	treeStr    string // memoised tree.Serialize()
	// digest is the StateDigest of the recovered content — the tree, or the
	// failure text — and the first part of the state's class key. Outcomes
	// that fail differently digest differently: their consequences differ.
	digest string
}

// missingStoreError reports that the initial snapshot holds no store for a
// server process: the file system keeps that server's persistent state
// outside the vfs/blockdev stores pfs.State carries, so crash states cannot
// be reconstructed on it.
type missingStoreError struct {
	proc string // the server process the snapshot lacks
}

func (e *missingStoreError) Error() string {
	return fmt.Sprintf("paracrash: initial snapshot holds no store for server %q", e.proc)
}

// serverProcs returns ServerOps plus the sorted proc names — the
// deterministic per-server iteration order of the reconstructor.
func (e *Emulator) serverProcs() ([]string, map[string][]int) {
	serverOps := e.ServerOps()
	procs := make([]string, 0, len(serverOps))
	for p := range serverOps {
		procs = append(procs, p)
	}
	sort.Strings(procs)
	return procs, serverOps
}

// newReconstructor builds the reconstruction state for s. It fails with a
// *missingStoreError when the initial snapshot lacks a store for some server.
func newReconstructor(s *session) (*reconstructor, error) {
	procs, serverOps := s.emu.serverProcs()
	r := &reconstructor{
		s: s, procs: procs,
		servers:  make([]imageServer, len(procs)),
		roots:    make([]prefixRoots, len(procs)),
		outcomes: map[string]*recoveredOutcome{},
	}
	for pi, p := range procs {
		snap, ok := s.initial.ServerSnap(p)
		if !ok {
			return nil, &missingStoreError{proc: p}
		}
		sv := newImageServer(s.g.Ops, serverOps[p], s.initial.Dev[p])
		sv.off = r.keyLen
		r.keyLen += sv.n
		r.servers[pi] = sv
		r.roots[pi] = newPrefixRoots(snap)
	}
	r.key = make([]byte, r.keyLen)
	for _, p := range s.fs.Procs() {
		if _, ok := serverOps[p]; ok {
			continue
		}
		snap, ok := s.initial.ServerSnap(p)
		if !ok {
			return nil, &missingStoreError{proc: p}
		}
		r.others = append(r.others, p)
		r.otherSnaps = append(r.otherSnaps, snap)
	}
	return r, nil
}

// newImageServer classes the ops of one server — idx indexes ops, in trace
// order — into its image-key part. initial is the server's initial block
// device, nil on a vfs server.
func newImageServer(ops []*trace.Op, idx []int, initial *blockdev.Dev) imageServer {
	if initial == nil {
		initial = blockdev.New()
	}
	var sv imageServer
	slots := map[int64]int{}            // LBA -> slot
	classes := map[int]map[string]int{} // slot -> payload -> class
	maxClass := 1
	for _, n := range idx {
		switch p := ops[n].Payload.(type) {
		case vfs.Op:
			if p.Kind == vfs.OpSync {
				continue
			}
			sv.effects = append(sv.effects, imageOp{op: n, slot: len(sv.reps), class: 1})
			sv.reps = append(sv.reps, []int{-1, n})
		case blockdev.Op:
			if p.Kind != blockdev.OpWrite {
				continue
			}
			slot, ok := slots[p.LBA]
			if !ok {
				slot = len(sv.reps)
				slots[p.LBA] = slot
				classes[slot] = map[string]int{}
				sv.reps = append(sv.reps, []int{-1})
			}
			class := 0
			if init, ok := initial.View(p.LBA); !ok || !bytes.Equal(init, p.Data) {
				if class, ok = classes[slot][string(p.Data)]; !ok {
					class = len(sv.reps[slot])
					classes[slot][string(p.Data)] = class
					sv.reps[slot] = append(sv.reps[slot], n)
					maxClass = max(maxClass, class)
				}
			}
			sv.effects = append(sv.effects, imageOp{op: n, slot: slot, class: class})
		}
	}
	sv.width = bits.Len(uint(maxClass))
	sv.n = (len(sv.reps)*sv.width + 7) / 8
	return sv
}

// put writes the server's part of keep's image key into key.
func (sv *imageServer) put(key []byte, keep causality.Bitset) {
	part := key[sv.off : sv.off+sv.n]
	for _, e := range sv.effects {
		if !keep.Get(e.op) {
			continue
		}
		for b, i := 0, e.slot*sv.width; b < sv.width; b, i = b+1, i+1 {
			if e.class>>b&1 != 0 {
				part[i/8] |= 1 << (i % 8)
			} else {
				part[i/8] &^= 1 << (i % 8)
			}
		}
	}
}

// sequence returns, in seq's storage, the canonical kept sequence of the
// server's part of key: the representative op of every slot's class, in
// trace order.
func (sv *imageServer) sequence(key []byte, seq []int) []int {
	part, seq := key[sv.off:sv.off+sv.n], seq[:0]
	for slot, reps := range sv.reps {
		class := 0
		for b, i := 0, slot*sv.width; b < sv.width; b, i = b+1, i+1 {
			class |= int(part[i/8]>>(i%8)&1) << b
		}
		if class != 0 {
			seq = append(seq, reps[class])
		}
	}
	slices.Sort(seq)
	return seq
}

// imageKey returns the image key of keep, rebuilt only when keep is not the
// bitset it was last asked for. The bytes are the reconstructor's and stay
// valid until it is asked for another bitset.
func (r *reconstructor) imageKey(keep causality.Bitset) []byte {
	if len(keep) > 0 && &keep[0] == r.lastKeep {
		return r.key
	}
	clear(r.key)
	for pi := range r.servers {
		r.servers[pi].put(r.key, keep)
	}
	r.lastKeep = nil
	if len(keep) > 0 {
		r.lastKeep = &keep[0]
	}
	return r.key
}

// recoveredOutcome returns the recovery outcome of cs's image, memoised per
// image key: an image whose outcome is cached needs no reconstruction at
// all. On a miss it brings the live cluster to the image and runs recovery
// and mount, counting the recovery on recover/calls. Recovery and mount
// failures are themselves deterministic outcomes and are cached like
// successful mounts; a failed bring caches nothing.
func (r *reconstructor) recoveredOutcome(cs CrashState) (*recoveredOutcome, error) {
	key := r.imageKey(cs.Keep)
	if o, ok := r.outcomes[string(key)]; ok {
		return o, nil
	}
	if err := r.bring(cs); err != nil {
		return nil, err
	}
	r.s.ctrRecover.Inc()
	o := &recoveredOutcome{}
	if rerr := r.s.fs.Recover(); rerr != nil {
		o.recoverErr = rerr.Error()
	} else if tree, merr := r.s.fs.Mount(); merr != nil {
		o.mountErr = merr.Error()
	} else {
		o.tree = tree
		o.treeStr = tree.Serialize()
	}
	content := o.treeStr
	switch {
	case o.recoverErr != "":
		content = "UNRECOVERABLE: " + o.recoverErr
	case o.mountErr != "":
		content = "UNMOUNTABLE: " + o.mountErr
	}
	o.digest = StateDigest("crash", content)
	if len(r.outcomes) >= maxOutcomes {
		r.outcomes = map[string]*recoveredOutcome{}
	}
	r.outcomes[string(key)] = o
	return o, nil
}

// bring reconstructs cs's image on the live cluster and counts every
// restore and op apply it performs. It restores every server — an op server
// from the deepest prefix root of its canonical kept sequence, any other
// from the initial snapshot — and replays only the uncached suffixes. A
// failed restore or a panicking apply aborts it; the next bring starts
// over from restores again.
func (r *reconstructor) bring(cs CrashState) error {
	key := r.imageKey(cs.Keep)
	for pi := range r.procs {
		r.seq = r.servers[pi].sequence(key, r.seq)
		if err := r.bringServer(pi, r.seq); err != nil {
			return err
		}
	}
	for i, p := range r.others {
		if err := r.restore(p, r.otherSnaps[i]); err != nil {
			return err
		}
	}
	return nil
}

// restore puts snap back on server p and counts the restore.
func (r *reconstructor) restore(p string, snap pfs.ServerSnap) error {
	if !r.s.fs.RestoreServerSnap(p, snap) {
		return fmt.Errorf("paracrash: restore of %s failed", p)
	}
	r.s.countRestores(1)
	return nil
}

// bringServer rebuilds one server: restore the deepest prefix root along
// seq (the initial snapshot when none is cached) and apply the remaining
// ops, capturing a prefix root after each one. A panic from a backend
// apply path comes back as an error naming the server, which quarantines
// the state.
func (r *reconstructor) bringServer(pi int, seq []int) (err error) {
	defer func() {
		if pv := recover(); pv != nil {
			err = fmt.Errorf("panic applying ops on %s: %v", r.procs[pi], pv)
		}
	}()
	p, t := r.procs[pi], &r.roots[pi]
	node, k := 0, 0
	for ; k < len(seq); k++ {
		c, ok := t.child[rootEdge{node, seq[k]}]
		if !ok {
			break
		}
		node = c
	}
	if len(t.snaps)-1+len(seq)-k > maxPrefixRoots {
		// Clearing mid-sequence would leave cached suffixes unreachable, so
		// restart from the initial snapshot and rebuild from the root.
		*t = newPrefixRoots(t.snaps[0])
		node, k = 0, 0
	}
	if err := r.restore(p, t.snaps[node]); err != nil {
		return err
	}
	for ; k < len(seq); k++ {
		r.s.countReplayed(1)
		// An apply error means the op's effect is lost (crash semantics);
		// the prefix root still captures the deterministic "state after
		// attempting the ops so far".
		_ = r.s.fs.ApplyLowermost(r.s.g.Ops[seq[k]])
		snap, ok := r.s.fs.CaptureServer(p)
		if !ok {
			return fmt.Errorf("paracrash: capture of %s failed", p)
		}
		t.child[rootEdge{node, seq[k]}] = len(t.snaps)
		node = len(t.snaps)
		t.snaps = append(t.snaps, snap)
	}
	return nil
}
