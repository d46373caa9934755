// Crash-state reconstruction by prefix roots — the explorer's only
// reconstruction engine.
//
// The vfs/blockdev substrates are persistent (O(1) snapshot and restore), so
// a server's kept-op subsequence need not be replayed from the initial
// snapshot every time:
//
//   - While building a server's kept sequence, the reconstructor captures an
//     O(1) store snapshot after every applied op — a chain of prefix roots.
//     Reconstructing a crash state restores each server from the longest
//     prefix root its kept sequence shares with one built before, and only
//     the ops past that prefix are replayed.
//   - Every reconstruction restores every server. Recovery and legal-state
//     replay mutate the whole cluster in place, and one of them runs between
//     any two reconstructions, so there is no state left to reuse; a restore
//     is O(1) anyway. What the prefix roots save is op applies, and that
//     saving does not depend on the order states are visited in.
//
// Effort is counted where it happens: every server-store restore and every
// lowermost op apply bring performs lands in Stats.ServerRestores and
// Stats.OpsReplayed — including the reconstructions class lookups pay for. Faulted retries, resumed verdicts and parallel workers
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
	"sort"
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

// reconstructor brings the live cluster to crash states. One reconstructor
// serves one session (the primary's or a shard worker's clone); it owns the
// prefix-root caches.
type reconstructor struct {
	s *session

	procs     []string         // sorted servers with universe ops
	serverOps map[string][]int // proc -> universe node indices, in order

	initials []pfs.ServerSnap            // per-proc initial store snapshot
	roots    []map[string]pfs.ServerSnap // per-proc prefix key -> captured root

	// others are the cluster's servers without universe ops: no crash state
	// changes them, so every bring restores them to the initial snapshot.
	others     []string
	otherSnaps []pfs.ServerSnap

	// keptMemo caches per-Keep kept sequences and their cumulative prefix
	// keys (many states share a Keep via distinct fronts, and the classifier
	// re-probes states repeatedly; building the key strings is the hottest
	// allocation in the whole walk).
	keptMemo map[string][]serverKept

	// outcomes caches the recovery outcome per Keep.Key(): recovery and
	// mount are pure functions of the kept set (the front only selects
	// legal-state sets), so the class lookups and verdicts of states sharing
	// a Keep run fsck+mount exactly once between them.
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
// trees and the class digests, so the bound keeps long runs from
// accumulating whole namespaces.
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
	// digest is the StateDigest of the recovered content — the tree, or the
	// failure text — and the first part of the state's class key. Outcomes
	// that fail differently digest differently: their consequences differ.
	digest string
}

// serverKept is one server's kept-op subsequence for a Keep, with the
// cumulative prefix keys ("n0," then "n0,n1," ...). keys[k] identifies the
// store state after applying kept[0..k].
type serverKept struct {
	kept []int
	keys []string
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
		s: s, procs: procs, serverOps: serverOps,
		initials: make([]pfs.ServerSnap, len(procs)),
		roots:    make([]map[string]pfs.ServerSnap, len(procs)),
		keptMemo: map[string][]serverKept{},
	}
	for pi, p := range procs {
		snap, ok := s.initial.ServerSnap(p)
		if !ok {
			return nil, &missingStoreError{proc: p}
		}
		r.initials[pi] = snap
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
	r.outcomes[kk] = o
	return o, nil
}

// keptOf returns the per-server kept sequences of cs with their cumulative
// prefix keys, memoised per kept set. The cached slices are read-only.
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

// bring reconstructs cs on the live cluster and counts every restore and op
// apply it performs. It restores every server — an op server from the
// longest cached prefix root of its kept sequence, any other from the
// initial snapshot — and replays only the uncached suffixes. An injected
// fault aborts it; the retry's bring starts over from restores again.
func (r *reconstructor) bring(cs CrashState) error {
	ks := r.keptOf(cs)
	for pi := range r.procs {
		if err := r.bringServer(ks[pi], pi); err != nil {
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

// bringServer rebuilds one server: restore the longest cached prefix root
// (the initial snapshot when none is cached) and apply the remaining kept
// ops, capturing a prefix root after each one. Panics from backend apply
// paths are quarantined into errors.
func (r *reconstructor) bringServer(sk serverKept, pi int) (err error) {
	defer func() {
		if pv := recover(); pv != nil {
			if fe, ok := faultinject.FromPanic(pv); ok {
				err = fe
			} else {
				err = fmt.Errorf("panic applying ops on %s: %v", r.procs[pi], pv)
			}
		}
	}()
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
	if err := r.restore(p, base); err != nil {
		return err
	}
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
	return nil
}
