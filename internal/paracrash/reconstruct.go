// Incremental O(delta) crash-state reconstruction — the explorer's only
// reconstruction engine.
//
// The vfs/blockdev substrates are persistent (O(1) snapshot and restore), so
// instead of rebuilding every crash state from the initial snapshot the
// reconstructor moves the live cluster *between* crash states by undoing and
// applying op deltas:
//
//   - Every server's reconstruction target is its kept-op subsequence (the
//     same per-server signature the greedy-TSP ordering minimises distance
//     over). A server whose signature is unchanged from the previous state
//     is not touched at all.
//   - While building a server's kept sequence, the reconstructor captures an
//     O(1) store snapshot after every applied op — a chain of prefix roots.
//     The chain is an undo log in snapshot form: "undoing" the ops that the
//     next crash state drops is restoring the longest prefix root the two
//     states share, and only the ops past that prefix are replayed. Under
//     TSP ordering adjacent states share long prefixes, so most transitions
//     are one O(1) restore plus a handful of op applies.
//
// Effort is counted where it happens: every server-store restore and every
// lowermost op apply bring performs lands in Stats.ServerRestores and
// Stats.OpsReplayed — including the repairs a recovery or legal-state replay
// forces on the next bring, and the shadow pipeline's reconstructions for
// class digests. Faulted retries, resumed verdicts and parallel workers
// therefore report the work they actually did, not a serial walk's.
//
// The engine's reference lives in test code: reference_test.go rebuilds every
// generated state on a fresh cluster (restore everything, replay every kept
// op in universe order) and requires the identical recovery outcome, and
// testdata/fingerprints.golden pins the reports' verdicts and state counts,
// and the effort of the serial cells.
package paracrash

import (
	"fmt"
	"strconv"
	"strings"

	"paracrash/internal/faultinject"
	"paracrash/internal/pfs"
)

// maxPrefixRoots bounds the per-server prefix-root cache. Each entry is an
// O(1) structurally-shared snapshot, so the bound exists only to keep
// divergence-path garbage from accumulating on very long runs. When a
// server's cache would overflow mid-build, it is cleared and the build
// restarts from the initial snapshot, preserving the invariant that cached
// prefixes are contiguous from the empty prefix.
const maxPrefixRoots = 4096

// dirtySig marks a server whose physical content is mid-build, was
// abandoned by a faulted build, or has not been brought to any crash state
// yet, and must be restored before reuse.
const dirtySig = "\x00dirty"

// reconstructor moves the live cluster between crash states in O(delta).
// One reconstructor serves one session (the primary's or a shard worker's
// clone); it owns the per-server physical signature tracking and the
// prefix-root caches.
type reconstructor struct {
	s *session

	procs     []string         // sorted servers with universe ops
	serverOps map[string][]int // proc -> universe node indices, in order

	initials []pfs.ServerSnap // per-proc initial store snapshot

	// others are the cluster's servers without universe ops: no crash state
	// ever changes them, but recovery and legal-state replay mutate the
	// whole cluster in place, so they need restoring (always to the initial
	// snapshot) when a mutation dirtied them.
	others      []string
	otherSnaps  []pfs.ServerSnap
	othersDirty bool

	// Physical state: what is actually on the cluster.
	phys  []string                    // per-proc signature currently applied
	roots []map[string]pfs.ServerSnap // per-proc prefix key -> captured root

	// keptMemo caches per-Keep kept sequences and their cumulative prefix
	// keys (many states share a Keep via distinct fronts, and the classifier
	// re-probes states repeatedly; building the key strings is the hottest
	// allocation in the whole walk).
	keptMemo map[string][]serverKept

	// outcomes caches the recovery outcome per Keep.Key(): recovery and
	// mount are pure functions of the kept set (the front only selects
	// legal-state sets), so the digest shadow pipeline and real verdicts of
	// states sharing a Keep run fsck+mount exactly once between them.
	outcomes map[string]*recoveredOutcome

	// lastKeep/lastKeepKey memoise the most recent Keep.Key() by slice
	// identity: one state's digest, reconstruction and verdict all
	// key off the same (read-only, never mutated in place) Keep bitset, so
	// the key is encoded once per state instead of once per lookup. Holding
	// the element pointer keeps the bitset alive, so the address cannot be
	// reused for different content while cached.
	lastKeep    *uint64
	lastKeepKey string
}

// keepKey returns cs.Keep.Key(), memoising the most recent bitset.
func (r *reconstructor) keepKey(cs CrashState) string {
	if len(cs.Keep) == 0 {
		return cs.Keep.Key()
	}
	if &cs.Keep[0] == r.lastKeep {
		return r.lastKeepKey
	}
	r.lastKeep = &cs.Keep[0]
	r.lastKeepKey = cs.Keep.Key()
	return r.lastKeepKey
}

// maxOutcomes bounds the recovered-outcome cache; entries hold mounted
// trees, so the bound keeps long runs from accumulating whole namespaces.
const maxOutcomes = 4096

// recoveredOutcome is the deterministic result of running recovery and
// mount on one kept set. Exactly one of recoverErr/mountErr/tree is set;
// the tree is read-only once cached (Mount builds fresh buffers and the
// library recovery tools copy before modifying).
type recoveredOutcome struct {
	recoverErr string // genuine fsck failure, the error text
	mountErr   string // genuine post-fsck mount failure, the error text
	tree       *pfs.Tree
	treeStr    string // memoised tree.Serialize()
}

// serverKept is one server's kept-op subsequence for a Keep, with the
// cumulative prefix keys ("n0," then "n0,n1," ...). keys[k] identifies the
// store state after applying kept[0..k]; the final key (or "" when nothing
// is kept) is the server's reconstruction signature.
type serverKept struct {
	kept []int
	keys []string
}

// sig returns the server's reconstruction signature.
func (sk serverKept) sig() string {
	if len(sk.keys) == 0 {
		return ""
	}
	return sk.keys[len(sk.keys)-1]
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

// newReconstructor builds the reconstruction state for s. It fails with a
// *missingStoreError when the initial snapshot lacks a store for some server.
func newReconstructor(s *session) (*reconstructor, error) {
	procs, serverOps := s.emu.serverProcs()
	r := &reconstructor{
		s: s, procs: procs, serverOps: serverOps,
		initials: make([]pfs.ServerSnap, len(procs)),
		phys:     make([]string, len(procs)),
		roots:    make([]map[string]pfs.ServerSnap, len(procs)),
		keptMemo: map[string][]serverKept{},
	}
	for pi, p := range procs {
		snap, ok := s.initial.ServerSnap(p)
		if !ok {
			return nil, &missingStoreError{proc: p}
		}
		r.initials[pi] = snap
		r.phys[pi] = dirtySig
		r.roots[pi] = map[string]pfs.ServerSnap{}
	}
	inProcs := map[string]bool{}
	for _, p := range procs {
		inProcs[p] = true
	}
	for _, p := range s.fs.Procs() {
		if inProcs[p] {
			continue
		}
		snap, ok := s.initial.ServerSnap(p)
		if !ok {
			return nil, &missingStoreError{proc: p}
		}
		r.others = append(r.others, p)
		r.otherSnaps = append(r.otherSnaps, snap)
	}
	r.outcomes = map[string]*recoveredOutcome{}
	return r, nil
}

// markAllDirty records that something mutated the whole cluster in place
// (recovery, legal-state replay): every server must be restored before the
// next crash state is trusted. Each repair is one O(1) restore — from a
// cached prefix root for op servers, from the initial snapshot for the
// rest — so marking is always sound and never more than O(servers) work.
func (r *reconstructor) markAllDirty() {
	for pi := range r.phys {
		r.phys[pi] = dirtySig
	}
	r.othersDirty = true
}

// recoveredOutcome brings the live cluster to cs and runs recovery and mount
// on it, memoising the result per kept set: a kept set whose outcome is
// cached needs no reconstruction at all. Injected faults surface as errors
// (nothing is cached); genuine recovery or mount failures are themselves
// deterministic outcomes and are cached like successful mounts.
func (r *reconstructor) recoveredOutcome(cs CrashState) (*recoveredOutcome, error) {
	kk := r.keepKey(cs)
	if o, ok := r.outcomes[kk]; ok {
		return o, nil
	}
	if err := r.bring(cs); err != nil {
		return nil, err
	}
	// Recovery mutates the server stores in place. Marking every server
	// dirty up front (rather than snapshotting and restoring the whole
	// cluster around the mutation) lets the next bring repair exactly the
	// servers the next state needs, each with one O(1) prefix-root restore —
	// and holds even when a fault or panic aborts recovery mid-way.
	r.markAllDirty()
	o := &recoveredOutcome{}
	if rerr := r.s.fs.Recover(); rerr != nil {
		if faultinject.Is(rerr) {
			return nil, rerr
		}
		o.recoverErr = rerr.Error()
	} else if tree, merr := r.s.fs.Mount(); merr != nil {
		if faultinject.Is(merr) {
			return nil, merr
		}
		o.mountErr = merr.Error()
	} else {
		o.tree = tree
		o.treeStr = tree.Serialize()
	}
	if len(r.outcomes) >= maxOutcomes {
		r.outcomes = map[string]*recoveredOutcome{}
	}
	r.outcomes[kk] = o
	return o, nil
}

// keptOf returns the per-server kept sequences of cs with their cumulative
// prefix keys, memoised per kept set: keptOf(cs)[pi].sig() is the final
// prefix key of server pi's kept sequence, "" when the server keeps
// nothing. The cached slices are read-only.
func (r *reconstructor) keptOf(cs CrashState) []serverKept {
	kk := r.keepKey(cs)
	if ks, ok := r.keptMemo[kk]; ok {
		return ks
	}
	ks := make([]serverKept, len(r.procs))
	for pi, p := range r.procs {
		var b strings.Builder
		sk := &ks[pi]
		for _, n := range r.serverOps[p] {
			if !cs.Keep.Get(n) {
				continue
			}
			sk.kept = append(sk.kept, n)
			b.WriteString(strconv.Itoa(n))
			b.WriteByte(',')
			sk.keys = append(sk.keys, b.String())
		}
	}
	if len(r.keptMemo) >= 1<<15 {
		r.keptMemo = map[string][]serverKept{}
	}
	r.keptMemo[kk] = ks
	return ks
}

// bring physically reconstructs cs on the live cluster, touching only
// servers whose signature differs from what is already applied, and counts
// every restore and op apply it performs. Injected faults abort with the
// touched server marked dirty, so a retry re-restores it from a cached
// prefix instead of trusting partial state.
func (r *reconstructor) bring(cs CrashState) error {
	ks := r.keptOf(cs)
	for pi := range r.procs {
		want := ks[pi].sig()
		if r.phys[pi] == want {
			continue
		}
		if err := r.bringServer(ks[pi], pi, want); err != nil {
			return err
		}
	}
	if r.othersDirty {
		for i, p := range r.others {
			if !r.s.fs.RestoreServerSnap(p, r.otherSnaps[i]) {
				return fmt.Errorf("paracrash: incremental restore of %s failed", p)
			}
			r.s.countRestores(1)
		}
		r.othersDirty = false
	}
	return nil
}

// bringServer rebuilds one server: restore the longest cached prefix root
// (the initial snapshot when none is cached) and apply the remaining kept
// ops, capturing a prefix root after each one. Panics from backend apply
// paths are quarantined into errors, leaving the server marked dirty.
func (r *reconstructor) bringServer(sk serverKept, pi int, want string) (err error) {
	defer func() {
		if pv := recover(); pv != nil {
			if fe, ok := faultinject.FromPanic(pv); ok {
				err = fe
			} else {
				err = fmt.Errorf("panic applying ops on %s: %v", r.procs[pi], pv)
			}
		}
	}()
	r.phys[pi] = dirtySig
	p := r.procs[pi]
	kept, keys := sk.kept, sk.keys
	base := r.initials[pi]
	last := 0
	for k := 1; k <= len(kept); k++ {
		snap, ok := r.roots[pi][keys[k-1]]
		if !ok {
			break
		}
		last, base = k, snap
	}
	if len(r.roots[pi])+(len(kept)-last) > maxPrefixRoots {
		// Clearing mid-chain would leave cached suffixes unreachable (the
		// prefix walk above stops at the first gap), so restart from the
		// initial snapshot and rebuild a contiguous chain.
		r.roots[pi] = map[string]pfs.ServerSnap{}
		base, last = r.initials[pi], 0
	}
	if !r.s.fs.RestoreServerSnap(p, base) {
		return fmt.Errorf("paracrash: incremental restore of %s failed", p)
	}
	r.s.countRestores(1)
	for k := last; k < len(kept); k++ {
		r.s.countReplayed(1)
		if aerr := r.s.fs.ApplyLowermost(r.s.g.Ops[kept[k]]); aerr != nil && faultinject.Is(aerr) {
			return aerr
		}
		// Genuine apply errors mean the op's effect is lost (crash
		// semantics); the prefix root still captures the deterministic
		// "state after attempting ops 0..k".
		if _, ok := r.roots[pi][keys[k]]; !ok {
			if snap, ok := r.s.fs.CaptureServer(p); ok {
				r.roots[pi][keys[k]] = snap
			}
		}
	}
	r.phys[pi] = want
	return nil
}
