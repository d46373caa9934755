package pfs

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"paracrash/internal/trace"
	"paracrash/internal/vfs"
)

func TestStripeRangeSingleStripe(t *testing.T) {
	st := StripeRange(0, []byte("abc"), 2, 128, 0)
	if len(st) != 1 || st[0].Server != 0 || st[0].LocalOffset != 0 {
		t.Fatalf("single stripe: %+v", st)
	}
}

func TestStripeRangeRoundRobin(t *testing.T) {
	data := bytes.Repeat([]byte("x"), 300)
	st := StripeRange(0, data, 2, 128, 0)
	if len(st) != 3 {
		t.Fatalf("stripes = %d, want 3", len(st))
	}
	// Stripe 0 -> server 0 local 0; stripe 1 -> server 1 local 0;
	// stripe 2 -> server 0 local 128.
	want := []struct {
		srv   int
		local int64
	}{{0, 0}, {1, 0}, {0, 128}}
	for i, w := range want {
		if st[i].Server != w.srv || st[i].LocalOffset != w.local {
			t.Errorf("stripe %d = server %d local %d, want %d/%d",
				i, st[i].Server, st[i].LocalOffset, w.srv, w.local)
		}
	}
}

func TestStripeRangeWithBaseAndOffset(t *testing.T) {
	// A write at offset 128 with base 1 lands on server (1+1)%3 = 2.
	st := StripeRange(128, []byte("yz"), 3, 128, 1)
	if len(st) != 1 || st[0].Server != 2 || st[0].LocalOffset != 0 {
		t.Fatalf("offset stripe: %+v", st)
	}
	// Mid-stripe offsets keep the in-stripe position.
	st = StripeRange(130, []byte("q"), 3, 128, 1)
	if st[0].Server != 2 || st[0].LocalOffset != 2 {
		t.Fatalf("mid-stripe: %+v", st)
	}
}

// TestQuickStripeRoundTrip: striping a random byte string across random
// server counts and reassembling yields the original content.
func TestQuickStripeRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw, ssRaw, baseRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%5) + 1
		stripeSize := int64(ssRaw%60) + 4
		base := int(baseRaw) % n
		data := make([]byte, r.Intn(400)+1)
		r.Read(data)

		chunks := make([][]byte, n)
		for _, st := range StripeRange(0, data, n, stripeSize, base) {
			end := st.LocalOffset + int64(len(st.Data))
			if int64(len(chunks[st.Server])) < end {
				grown := make([]byte, end)
				copy(grown, chunks[st.Server])
				chunks[st.Server] = grown
			}
			copy(chunks[st.Server][st.LocalOffset:], st.Data)
		}
		out := ReassembleFile(n, stripeSize, base, func(srv int) []byte { return chunks[srv] })
		return bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickUnstripeSizeMatches: the size derived from chunk lengths equals
// the written extent.
func TestQuickUnstripeSizeMatches(t *testing.T) {
	f := func(seed int64, nRaw, ssRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw%5) + 1
		stripeSize := int64(ssRaw%60) + 4
		size := r.Intn(500) + 1
		data := make([]byte, size)
		lens := make([]int64, n)
		for _, st := range StripeRange(0, data, n, stripeSize, 0) {
			if end := st.LocalOffset + int64(len(st.Data)); end > lens[st.Server] {
				lens[st.Server] = end
			}
		}
		return UnstripeSize(lens, n, stripeSize, 0) == int64(size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeSerializeAndDiff(t *testing.T) {
	a, b := NewTree(), NewTree()
	a.AddDir("/d")
	a.AddFile("/d/f", []byte("x"))
	b.AddDir("/d")
	b.AddFile("/d/f", []byte("x"))
	if a.Serialize() != b.Serialize() || a.Hash() != b.Hash() {
		t.Fatal("identical trees serialize differently")
	}
	if d := a.Diff(b); d != "" {
		t.Fatalf("diff of identical trees: %q", d)
	}
	b.AddFile("/d/g", []byte("y"))
	if a.Serialize() == b.Serialize() {
		t.Fatal("different trees serialize identically")
	}
	if d := b.Diff(a); !strings.Contains(d, "/d/g missing") {
		t.Fatalf("diff = %q", d)
	}
	if d := a.Diff(b); !strings.Contains(d, "/d/g unexpected") {
		t.Fatalf("reverse diff = %q", d)
	}
}

func TestClusterSnapshotRestore(t *testing.T) {
	rec := trace.NewRecorder()
	c := NewCluster(DefaultConfig(), rec, []string{"s/0", "s/1"})
	must(t, c.FSServer("s/0").FS.Create("/a"))
	snap := c.Snapshot()
	must(t, c.FSServer("s/0").FS.WriteAt("/a", 0, []byte("x")))
	must(t, c.FSServer("s/1").FS.Create("/b"))
	c.Restore(snap)
	if sz, _ := c.FSServer("s/0").FS.Size("/a"); sz != 0 {
		t.Fatal("restore did not reset server 0")
	}
	if c.FSServer("s/1").FS.Exists("/b") {
		t.Fatal("restore did not reset server 1")
	}
	// Partial restore touches only the named server.
	must(t, c.FSServer("s/0").FS.WriteAt("/a", 0, []byte("x")))
	must(t, c.FSServer("s/1").FS.Create("/b"))
	s1, _ := snap.ServerSnap("s/1")
	if !c.RestoreServerSnap("s/1", s1) {
		t.Fatal("RestoreServerSnap refused s/1")
	}
	if sz, _ := c.FSServer("s/0").FS.Size("/a"); sz != 1 {
		t.Fatal("RestoreServerSnap touched the wrong server")
	}
	if c.FSServer("s/1").FS.Exists("/b") {
		t.Fatal("RestoreServerSnap did not reset the named server")
	}
}

func TestRPCRecordsCausality(t *testing.T) {
	rec := trace.NewRecorder()
	c := NewCluster(DefaultConfig(), rec, []string{"srv/0"})
	clientOp := c.RecordClientOp("client/0", "creat", "/f", "", 0, nil)
	var serverOp *trace.Op
	c.RPC("client/0", "srv/0", func() {
		serverOp = rec.Record(trace.Op{Layer: trace.LayerLocalFS, Proc: "srv/0", Name: "creat", Path: "/f"})
	})
	c.PopClient("client/0")

	ops := rec.Ops()
	if len(ops) != 6 { // client op, send, recv, server op, reply send, reply recv
		t.Fatalf("op count = %d: %v", len(ops), ops)
	}
	// The server op's ancestor chain reaches the client op.
	cur := serverOp
	found := false
	for cur != nil && cur.Parent > 0 {
		if cur.Parent == clientOp.ID {
			found = true
			break
		}
		var next *trace.Op
		for _, o := range ops {
			if o.ID == cur.Parent {
				next = o
				break
			}
		}
		cur = next
	}
	if !found {
		t.Fatal("server op does not chain to the client op")
	}
}

func TestApplyLowermost(t *testing.T) {
	rec := trace.NewRecorder()
	c := NewCluster(DefaultConfig(), rec, []string{"s/0"})
	op := &trace.Op{Proc: "s/0", Layer: trace.LayerLocalFS,
		Payload: vfs.Op{Kind: vfs.OpCreate, Path: "/f"}}
	if err := c.ApplyLowermost(op); err != nil {
		t.Fatal(err)
	}
	if !c.FSServer("s/0").FS.Exists("/f") {
		t.Fatal("payload not applied")
	}
	bad := &trace.Op{Proc: "nope", Layer: trace.LayerLocalFS, Payload: vfs.Op{Kind: vfs.OpCreate, Path: "/f"}}
	if err := c.ApplyLowermost(bad); err == nil {
		t.Fatal("unknown proc must error")
	}
	noPayload := &trace.Op{Proc: "s/0", Layer: trace.LayerLocalFS}
	if err := c.ApplyLowermost(noPayload); err == nil {
		t.Fatal("missing payload must error")
	}
}

func TestTagHint(t *testing.T) {
	rec := trace.NewRecorder()
	c := NewCluster(DefaultConfig(), rec, []string{"s/0"})
	if got := c.DataTag("chunk"); got != "chunk" {
		t.Fatalf("default tag = %q", got)
	}
	c.SetTagHint("h5:data:/d")
	if got := c.DataTag("chunk"); got != "h5:data:/d" {
		t.Fatalf("hinted tag = %q", got)
	}
	c.SetTagHint("")
	if got := c.DataTag("chunk"); got != "chunk" {
		t.Fatalf("cleared tag = %q", got)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
