package paracrash

import (
	"reflect"
	"testing"

	"paracrash/internal/causality"
	"paracrash/internal/trace"
	"paracrash/internal/vfs"
)

// synthFixture builds a two-server trace whose "storage semantics" are
// decided by a programmable check function, letting the Table 1 truth
// tables be verified directly: op A on server a happens-before op B on
// server b, with no sync (so any subset of {A,B} is a feasible crash
// state).
func synthFixture() (*Emulator, causality.Bitset, int, int) {
	rec := trace.NewRecorder()
	a := rec.Record(trace.Op{Layer: trace.LayerLocalFS, Proc: "a", Name: "opA",
		Payload: vfs.Op{Kind: vfs.OpCreate, Path: "/A"}})
	m := rec.NewMsgID()
	rec.Record(trace.Op{Layer: trace.LayerLocalFS, Proc: "a", Name: "send", MsgID: m, IsSend: true})
	rec.Record(trace.Op{Layer: trace.LayerLocalFS, Proc: "b", Name: "recv", MsgID: m})
	b := rec.Record(trace.Op{Layer: trace.LayerLocalFS, Proc: "b", Name: "opB",
		Payload: vfs.Op{Kind: vfs.OpCreate, Path: "/B"}})
	g := causality.Build(rec.Ops())
	e := NewEmulator(g, causality.PersistConfig{
		Journal: map[string]vfs.JournalMode{"a": vfs.JournalData, "b": vfs.JournalData},
	})
	front := causality.NewBitset(g.Len())
	ai, _ := g.IndexOf(a.ID)
	bi, _ := g.IndexOf(b.ID)
	front.Set(ai)
	front.Set(bi)
	return e, front, ai, bi
}

// checkerFor builds a Check function that fails exactly the listed
// (hasA, hasB) combinations.
func checkerFor(ai, bi int, fail map[[2]bool]bool) func(CrashState) (bool, string) {
	return func(cs CrashState) (bool, string) {
		combo := [2]bool{cs.Keep.Get(ai), cs.Keep.Get(bi)}
		if fail[combo] {
			return false, "synthetic-failure"
		}
		return true, ""
	}
}

func TestClassifyReorderingTruthTable(t *testing.T) {
	// Table 1a: only (A lost, B persisted) fails -> reordering A -> B.
	e, front, ai, bi := synthFixture()
	c := NewClassifier(e, checkerFor(ai, bi, map[[2]bool]bool{{false, true}: true}), nil)
	cs := CrashState{Front: front, Keep: front.Clone(), Victims: []int{ai}}
	cs.Keep.Clear(ai)
	results := c.ClassifyState(cs, nil, "synthetic-failure")
	if len(results) != 1 {
		t.Fatalf("results = %+v", results)
	}
	pr := results[0]
	if pr.Kind != BugReordering || pr.A != ai || pr.B != bi {
		t.Fatalf("classified %v (%d -> %d), want reordering %d -> %d", pr.Kind, pr.A, pr.B, ai, bi)
	}
}

func TestClassifyAtomicityTruthTable(t *testing.T) {
	// Table 1b: both mixed states fail -> atomicity [A, B].
	e, front, ai, bi := synthFixture()
	c := NewClassifier(e, checkerFor(ai, bi, map[[2]bool]bool{
		{false, true}: true,
		{true, false}: true,
	}), nil)
	cs := CrashState{Front: front, Keep: front.Clone(), Victims: []int{ai}}
	cs.Keep.Clear(ai)
	results := c.ClassifyState(cs, nil, "synthetic-failure")
	if len(results) != 1 || results[0].Kind != BugAtomicity {
		t.Fatalf("results = %+v, want one atomicity pair", results)
	}
}

func TestClassifyNoPairWhenOnlyCutBroken(t *testing.T) {
	// If the state fails regardless of the victim (the cut itself is the
	// problem), no victim-caused pair may be reported.
	e, front, ai, bi := synthFixture()
	c := NewClassifier(e, checkerFor(ai, bi, map[[2]bool]bool{
		{false, true}: true,
		{true, true}:  true, // even the full state fails
	}), nil)
	cs := CrashState{Front: front, Keep: front.Clone(), Victims: []int{ai}}
	cs.Keep.Clear(ai)
	results := c.ClassifyState(cs, nil, "synthetic-failure")
	for _, pr := range results {
		if pr.Kind == BugReordering && pr.A == ai {
			t.Fatalf("victim blamed although the baseline cut fails too: %+v", pr)
		}
	}
}

// TestClassifyCulpritOutsideVictimClosure: an op the victim persists before
// is lost with it in every probe, so it is never the culprit, even in a
// state handed over with that op kept. Here B persists after A on one
// data-journaled server, and losing A fails whatever happens to B.
func TestClassifyCulpritOutsideVictimClosure(t *testing.T) {
	rec := trace.NewRecorder()
	a := rec.Record(trace.Op{Layer: trace.LayerLocalFS, Proc: "a", Name: "opA",
		Payload: vfs.Op{Kind: vfs.OpCreate, Path: "/A"}})
	b := rec.Record(trace.Op{Layer: trace.LayerLocalFS, Proc: "a", Name: "opB",
		Payload: vfs.Op{Kind: vfs.OpCreate, Path: "/B"}})
	g := causality.Build(rec.Ops())
	e := NewEmulator(g, causality.PersistConfig{Journal: map[string]vfs.JournalMode{"a": vfs.JournalData}})
	ai, _ := g.IndexOf(a.ID)
	bi, _ := g.IndexOf(b.ID)
	if !e.PO.PersistsBefore(ai, bi) {
		t.Fatal("fixture: A does not persist before B")
	}
	front := causality.NewBitset(g.Len())
	front.Set(ai)
	front.Set(bi)
	c := NewClassifier(e, checkerFor(ai, bi, map[[2]bool]bool{{false, false}: true, {false, true}: true}), nil)
	cs := CrashState{Front: front, Keep: front.Clone(), Victims: []int{ai}}
	cs.Keep.Clear(ai)
	if results := c.ClassifyState(cs, nil, "synthetic-failure"); len(results) != 0 {
		t.Fatalf("blamed an op in the victim's closure: %+v", results)
	}
}

// TestClassifierProbesAllocationFree: once a state's probes are cached,
// classifying it again sends nothing to the check and allocates only the
// result slice — candidates, cuts and probe lookups run in scratch words.
func TestClassifierProbesAllocationFree(t *testing.T) {
	e, front, ai, bi := synthFixture()
	checks := 0
	check := checkerFor(ai, bi, map[[2]bool]bool{{false, true}: true})
	c := NewClassifier(e, func(cs CrashState) (bool, string) {
		checks++
		return check(cs)
	}, nil)
	cs := CrashState{Front: front, Keep: front.Clone(), Victims: []int{ai}}
	cs.Keep.Clear(ai)
	first := c.ClassifyState(cs, nil, "synthetic-failure")
	probed := checks
	if len(first) != 1 || probed == 0 {
		t.Fatalf("results %+v after %d checks", first, probed)
	}
	var again []PairResult
	allocs := testing.AllocsPerRun(10, func() {
		again = c.ClassifyState(cs, nil, "synthetic-failure")
	})
	if !reflect.DeepEqual(again, first) {
		t.Fatalf("re-classified %+v, first %+v", again, first)
	}
	if checks != probed {
		t.Fatalf("re-classifying sent %d more probes to the check", checks-probed)
	}
	if allocs > 1 {
		t.Fatalf("re-classifying a cached state allocated %.0f times, want <= 1 (the result slice)", allocs)
	}
}

// TestClassifierProbeCacheConfirmsHits: the probe cache is keyed by a word
// hash, and a hit counts only when Equal confirms both the front and the
// keep set. Entries planted under every probe's hash, each differing from
// the probe in one of the two and carrying the opposite verdict, must not
// answer any probe.
func TestClassifierProbeCacheConfirmsHits(t *testing.T) {
	e, front, ai, bi := synthFixture()
	check := checkerFor(ai, bi, map[[2]bool]bool{{false, true}: true})
	var probes []CrashState
	clean := NewClassifier(e, func(cs CrashState) (bool, string) {
		probes = append(probes, cs)
		return check(cs)
	}, nil)
	cs := CrashState{Front: front, Keep: front.Clone(), Victims: []int{ai}}
	cs.Keep.Clear(ai)
	want := clean.ClassifyState(cs, nil, "synthetic-failure")
	if len(probes) < 2 {
		t.Fatalf("only %d probes", len(probes))
	}
	// No probe holds every node: the fixture's fronts hold two of four.
	all := causality.NewBitset(e.G.Len())
	for i := 0; i < e.G.Len(); i++ {
		all.Set(i)
	}
	for _, differ := range []string{"front", "keep"} {
		planted := NewClassifier(e, check, nil)
		for _, p := range probes {
			pass, _ := check(p)
			wrong := probeEntry{front: p.Front, keep: p.Keep, classifyCheck: classifyCheck{pass: !pass, state: "planted"}}
			if differ == "front" {
				wrong.front = all
			} else {
				wrong.keep = all
			}
			h := probeHash(p.Front, p.Keep)
			planted.probes[h] = append(planted.probes[h], wrong)
		}
		if got := planted.ClassifyState(cs, nil, "synthetic-failure"); !reflect.DeepEqual(got, want) {
			t.Errorf("entries differing in the %s planted under each probe's hash: %+v, want %+v", differ, got, want)
		}
	}
}

// chainFixture builds A → B → C on three servers (each op happens-before
// the next through a message, no syncs) with a front holding all three and
// a check that fails exactly when A is lost and C kept: for victim A, B is
// a candidate the search clears and C the culprit.
func chainFixture() (e *Emulator, front causality.Bitset, ai, bi, ci int, check func(CrashState) (bool, string)) {
	rec := trace.NewRecorder()
	op := func(proc, name, path string) *trace.Op {
		return rec.Record(trace.Op{Layer: trace.LayerLocalFS, Proc: proc, Name: name,
			Payload: vfs.Op{Kind: vfs.OpCreate, Path: path}})
	}
	send := func(from, to string) {
		m := rec.NewMsgID()
		rec.Record(trace.Op{Layer: trace.LayerLocalFS, Proc: from, Name: "send", MsgID: m, IsSend: true})
		rec.Record(trace.Op{Layer: trace.LayerLocalFS, Proc: to, Name: "recv", MsgID: m})
	}
	a := op("a", "opA", "/A")
	send("a", "b")
	b := op("b", "opB", "/B")
	send("b", "c")
	c := op("c", "opC", "/C")
	g := causality.Build(rec.Ops())
	e = NewEmulator(g, causality.PersistConfig{Journal: map[string]vfs.JournalMode{
		"a": vfs.JournalData, "b": vfs.JournalData, "c": vfs.JournalData,
	}})
	ai, _ = g.IndexOf(a.ID)
	bi, _ = g.IndexOf(b.ID)
	ci, _ = g.IndexOf(c.ID)
	front = causality.NewBitset(g.Len())
	front.Set(ai)
	front.Set(bi)
	front.Set(ci)
	check = func(cs CrashState) (bool, string) {
		if !cs.Keep.Get(ai) && cs.Keep.Get(ci) {
			return false, "synthetic-failure"
		}
		return true, ""
	}
	return e, front, ai, bi, ci, check
}

// TestClassifierMemoAnswersSameFrontAndVictim: a second state with the same
// front and victim but another keep set is answered by the culprit memo. It
// sends no probe to the check even with the probe cache emptied (without
// the memo the search would probe the culprit again), allocates at most its
// result slice, and classifies as a fresh classifier does.
func TestClassifierMemoAnswersSameFrontAndVictim(t *testing.T) {
	e, front, ai, bi, ci, check := chainFixture()
	checks := 0
	c := NewClassifier(e, func(cs CrashState) (bool, string) {
		checks++
		return check(cs)
	}, nil)
	first := CrashState{Front: front, Keep: front.Clone(), Victims: []int{ai}}
	first.Keep.Clear(ai)
	if got := c.ClassifyState(first, nil, "synthetic-failure"); len(got) != 1 || got[0].Kind != BugReordering || got[0].B != ci {
		t.Fatalf("first state classified %+v, want reordering %d -> %d", got, ai, ci)
	}
	if checks == 0 {
		t.Fatal("the first state sent no probe")
	}
	m := c.memoFor(front, front.Hash(), ai)
	if _, ok := m.culprit(ci); !ok || !m.cleared.Get(bi) || len(c.memo) != 1 {
		t.Fatalf("memo after the first state: cleared %v, culprits %+v, %d entries", m.cleared.Members(), m.culprits, len(c.memo))
	}

	second := CrashState{Front: front, Keep: causality.NewBitset(e.G.Len()), Victims: []int{ai}}
	second.Keep.Set(ci)
	want := NewClassifier(e, check, nil).ClassifyState(second, nil, "synthetic-failure")
	c.probes = map[uint64][]probeEntry{}
	checks = 0
	var got []PairResult
	allocs := testing.AllocsPerRun(10, func() {
		got = c.ClassifyState(second, nil, "synthetic-failure")
	})
	if checks != 0 {
		t.Fatalf("the second state sent %d probes to the check", checks)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("second state classified %+v, a fresh classifier %+v", got, want)
	}
	if allocs > 1 {
		t.Fatalf("the second state allocated %.0f times, want <= 1 (the result slice)", allocs)
	}
}

// TestClassifierMemoConfirmsHits: the culprit memo is keyed by a hash of
// the front and the victim, and an entry answers only when Equal confirms
// the front and the victim matches. Entries planted under the state's hash,
// differing in one of the two and lying either way — every candidate
// cleared, or every candidate a culprit of the other kind — must not answer.
func TestClassifierMemoConfirmsHits(t *testing.T) {
	e, front, ai, _, _, check := chainFixture()
	cs := CrashState{Front: front, Keep: front.Clone(), Victims: []int{ai}}
	cs.Keep.Clear(ai)
	want := NewClassifier(e, check, nil).ClassifyState(cs, nil, "synthetic-failure")
	if len(want) != 1 {
		t.Fatalf("fixture classified %+v, want one pair", want)
	}
	n := e.G.Len()
	all := causality.NewBitset(n)
	for i := 0; i < n; i++ {
		all.Set(i)
	}
	for _, differ := range []string{"front", "victim"} {
		for _, lie := range []string{"cleared", "failing"} {
			m := &culpritMemo{front: front, victim: ai, cleared: causality.NewBitset(n)}
			if differ == "front" {
				m.front = all
			} else {
				m.victim = ai + 1
			}
			if lie == "cleared" {
				copy(m.cleared, all)
			} else {
				for i := 0; i < n; i++ {
					m.culprits = append(m.culprits, culprit{b: i, kind: BugAtomicity, state: "planted"})
				}
			}
			planted := NewClassifier(e, check, nil)
			h := memoHash(front.Hash(), ai)
			planted.memo[h] = append(planted.memo[h], m)
			if got := planted.ClassifyState(cs, nil, "synthetic-failure"); !reflect.DeepEqual(got, want) {
				t.Errorf("an entry differing in the %s, planted with every candidate %s: %+v, want %+v", differ, lie, got, want)
			}
		}
	}
}

func TestBugSetDedupAndKnownBad(t *testing.T) {
	e, front, ai, bi := synthFixture()
	_ = e
	set := NewBugSet()
	pr := PairResult{Kind: BugReordering, A: ai, B: bi,
		ASig: "opA()@a", BSig: "opB()@b", BClass: "opB()@b"}
	b1 := set.Add(pr, "pfs", "fsx", "prog", "c")
	b2 := set.Add(pr, "pfs", "fsx", "prog", "c")
	if b1 != b2 || b1.States != 2 {
		t.Fatalf("dedup failed: %+v vs %+v", b1, b2)
	}
	if len(set.Bugs()) != 1 {
		t.Fatalf("Bugs() = %d entries", len(set.Bugs()))
	}
	// KnownBad matches the recorded scenario.
	bad := CrashState{Front: front, Keep: front.Clone()}
	bad.Keep.Clear(ai)
	if !set.KnownBad(bad) {
		t.Fatal("scenario with A lost and B kept should be known-bad")
	}
	good := CrashState{Front: front, Keep: front.Clone()}
	if set.KnownBad(good) {
		t.Fatal("fully persisted state must not be known-bad")
	}
	// Pruning asks this of every generated state.
	if allocs := testing.AllocsPerRun(10, func() { set.KnownBad(good) }); allocs != 0 {
		t.Fatalf("KnownBad allocated %.0f times", allocs)
	}
}

func TestBugSetLatestVictimWins(t *testing.T) {
	set := NewBugSet()
	set.Add(PairResult{Kind: BugReordering, A: 3, B: 9, ASig: "early", BSig: "culprit", BClass: "culprit"},
		"pfs", "fs", "p", "c")
	got := set.Add(PairResult{Kind: BugReordering, A: 7, B: 9, ASig: "late", BSig: "culprit", BClass: "culprit"},
		"pfs", "fs", "p", "c")
	if got.OpA != "late" {
		t.Fatalf("representative OpA = %q, want the causally latest victim", got.OpA)
	}
	set.Add(PairResult{Kind: BugReordering, A: 1, B: 9, ASig: "earliest", BSig: "culprit", BClass: "culprit"},
		"pfs", "fs", "p", "c")
	if set.Bugs()[0].OpA != "late" {
		t.Fatalf("earlier victim displaced the representative: %q", set.Bugs()[0].OpA)
	}
}

func TestOpSignatureForms(t *testing.T) {
	op := &trace.Op{Name: "pwrite", Proc: "storage/1", Tag: "chunk"}
	if got := OpSignature(op); got != "pwrite(chunk)@storage#1" {
		t.Errorf("OpSignature = %q", got)
	}
	if got := OpSignatureClass(op); got != "pwrite(chunk)@storage" {
		t.Errorf("OpSignatureClass = %q", got)
	}
	noTag := &trace.Op{Name: "rename", Proc: "meta/0", Path: "/a"}
	if got := OpSignatureClass(noTag); got != "rename(/a)@meta" {
		t.Errorf("path fallback = %q", got)
	}
}

// TestBugSetOrderStableOnSignatureTies pins the report order of bugs whose
// signatures tie: two in-flight atomicity groups can involve identically
// named op pairs and differ only in their consequence, and before the
// consequence tiebreak the order fell back to map iteration — serial runs of
// the same workload produced differently ordered (hence non-byte-identical)
// reports. Found by the fuzz campaign's differential oracle.
func TestBugSetOrderStableOnSignatureTies(t *testing.T) {
	build := func(flip bool) []string {
		a := PairResult{Kind: BugAtomicity, A: 1, B: 2, ASig: "append(x)@s#1", BSig: "append(x)@s#0",
			BClass: "append(x)@s", GroupKey: "inflight|op-a"}
		b := PairResult{Kind: BugAtomicity, A: 3, B: 4, ASig: "append(x)@s#1", BSig: "append(x)@s#0",
			BClass: "append(x)@s", GroupKey: "inflight|op-b"}
		set := NewBugSet()
		if flip {
			set.Add(b, "pfs", "fs", "prog", "consequence B")
			set.Add(a, "pfs", "fs", "prog", "consequence A")
		} else {
			set.Add(a, "pfs", "fs", "prog", "consequence A")
			set.Add(b, "pfs", "fs", "prog", "consequence B")
		}
		var out []string
		for _, bug := range set.Bugs() {
			out = append(out, bug.Signature()+"|"+bug.Consequence)
		}
		return out
	}
	want := build(false)
	for i := 0; i < 50; i++ {
		for _, flip := range []bool{false, true} {
			if got := build(flip); !reflect.DeepEqual(got, want) {
				t.Fatalf("bug order unstable (flip=%v iteration %d):\n got %v\nwant %v", flip, i, got, want)
			}
		}
	}
}

// TestBugSetOrderStableOnFullFieldTies pins the order when even the
// consequence and state count tie and only the group key differs — two
// in-flight groups over creats of different paths can produce bugs whose
// every printed field except Group is identical. The group key, unique
// within a set, is the final tiebreak. Found by the fuzz campaign's
// differential oracle at seed 52 on glusterfs.
func TestBugSetOrderStableOnFullFieldTies(t *testing.T) {
	build := func(flip bool) []string {
		a := PairResult{Kind: BugAtomicity, A: 1, B: 2, ASig: "setxattr(xattr)@brick#0", BSig: "creat(file)@brick#0",
			BClass: "creat(file)@brick", GroupKey: "inflight|creat(/f1)@client/0"}
		b := PairResult{Kind: BugAtomicity, A: 3, B: 4, ASig: "setxattr(xattr)@brick#0", BSig: "creat(file)@brick#0",
			BClass: "creat(file)@brick", GroupKey: "inflight|creat(/dir0/f2)@client/0"}
		set := NewBugSet()
		if flip {
			set.Add(b, "pfs", "fs", "prog", "same consequence")
			set.Add(a, "pfs", "fs", "prog", "same consequence")
		} else {
			set.Add(a, "pfs", "fs", "prog", "same consequence")
			set.Add(b, "pfs", "fs", "prog", "same consequence")
		}
		var out []string
		for _, bug := range set.Bugs() {
			out = append(out, bug.Group)
		}
		return out
	}
	want := build(false)
	for i := 0; i < 50; i++ {
		for _, flip := range []bool{false, true} {
			if got := build(flip); !reflect.DeepEqual(got, want) {
				t.Fatalf("bug order unstable (flip=%v iteration %d):\n got %v\nwant %v", flip, i, got, want)
			}
		}
	}
}

// TestCauseKeyStableAcrossVictimRepresentatives pins that CauseKey does not
// depend on which states a strategy classified: brute force seeing victims
// {inode, log} and pruning seeing only {log} for the same culprit must agree
// on the cause identity. Found by the fuzz campaign's pruning oracle (lustre,
// append+pwrite): the two strategies reported different victim halves of the
// atomicity pair for one underlying bug.
func TestCauseKeyStableAcrossVictimRepresentatives(t *testing.T) {
	culprit := PairResult{Kind: BugAtomicity, B: 9, BSig: "scsi_write(data)@server#0", BClass: "scsi_write(data)@server"}
	brute := NewBugSet()
	a := culprit
	a.A, a.ASig = 3, "scsi_write(inode)@server#0"
	brute.Add(a, "pfs", "fs", "p", "c")
	b := culprit
	b.A, b.ASig = 1, "scsi_write(log)@server#0"
	brute.Add(b, "pfs", "fs", "p", "c")

	pruned := NewBugSet()
	pruned.Add(b, "pfs", "fs", "p", "c")

	bk, pk := brute.Bugs()[0].CauseKey(), pruned.Bugs()[0].CauseKey()
	if bk != pk {
		t.Fatalf("cause identity depends on classified states: brute %q vs pruned %q", bk, pk)
	}
	// In-flight groups key on the parent op, not the representative pair.
	inflight := NewBugSet()
	pr := PairResult{Kind: BugAtomicity, A: 1, B: 2, ASig: "append(x)@s#1", BSig: "append(x)@s#0",
		BClass: "append(x)@s", GroupKey: "inflight|op-a"}
	inflight.Add(pr, "pfs", "fs", "p", "c")
	if got := inflight.Bugs()[0].CauseKey(); got != "atomicity|pfs|inflight|op-a" {
		t.Fatalf("in-flight cause key = %q", got)
	}
}
