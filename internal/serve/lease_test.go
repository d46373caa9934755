package serve

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	core "paracrash/internal/paracrash"
)

// testLeaseDir builds a lease dir with a controllable clock.
func testLeaseDir(t *testing.T) (*LeaseDir, *time.Time) {
	t.Helper()
	ld, err := NewLeaseDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	ld.now = func() time.Time { return now }
	return ld, &now
}

func TestLeaseClaimRenewRelease(t *testing.T) {
	ld, now := testLeaseDir(t)

	l, err := ld.Claim("job-shard-0", "w1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if l.Epoch != 1 || l.Owner != "w1" {
		t.Fatalf("fresh claim: %+v", l)
	}

	// A second worker is refused while the lease is live.
	if _, err := ld.Claim("job-shard-0", "w2", time.Second); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("second claim: got %v, want ErrLeaseHeld", err)
	}

	// The owner renews; the deadline moves.
	*now = now.Add(500 * time.Millisecond)
	before := l.Expires
	if err := ld.Renew(l, time.Second); err != nil {
		t.Fatal(err)
	}
	if !l.Expires.After(before) {
		t.Fatal("renew did not extend the deadline")
	}

	// Re-claiming our own live lease refreshes it instead of failing.
	l2, err := ld.Claim("job-shard-0", "w1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Epoch != 1 {
		t.Fatalf("self re-claim bumped epoch to %d", l2.Epoch)
	}

	if err := ld.Release(l2); err != nil {
		t.Fatal(err)
	}
	if _, err := ld.read(ld.path("job-shard-0")); !os.IsNotExist(err) {
		t.Fatalf("lease survived release: %v", err)
	}
	// Releasing again is idempotent.
	if err := ld.Release(l2); err != nil {
		t.Fatal(err)
	}
}

func TestLeaseExpiryReclaim(t *testing.T) {
	ld, now := testLeaseDir(t)

	l1, err := ld.Claim("job-shard-1", "w1", time.Second)
	if err != nil {
		t.Fatal(err)
	}

	// Not yet expired: reclaim refused.
	*now = now.Add(900 * time.Millisecond)
	if _, err := ld.Claim("job-shard-1", "w2", time.Second); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("early reclaim: got %v", err)
	}

	// Past the TTL: w2 reclaims with a bumped epoch.
	*now = now.Add(200 * time.Millisecond)
	l2, err := ld.Claim("job-shard-1", "w2", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Epoch != 2 || l2.Owner != "w2" {
		t.Fatalf("reclaim: %+v", l2)
	}

	// The presumed-dead worker wakes up: its renewal and release both fail
	// with ErrLeaseLost and leave w2's lease untouched.
	if err := ld.Renew(l1, time.Second); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale renew: got %v", err)
	}
	if err := ld.Release(l1); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale release: got %v", err)
	}
	if cur, err := ld.read(ld.path("job-shard-1")); err != nil || cur.Owner != "w2" || cur.Epoch != 2 {
		t.Fatalf("lease after stale ops: %+v err=%v", cur, err)
	}
}

// TestLeaseClaimRace: many workers race for the same fresh task; exactly one
// claim must succeed (the O_EXCL guarantee).
func TestLeaseClaimRace(t *testing.T) {
	ld, err := NewLeaseDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const racers = 16
	var wg sync.WaitGroup
	wins := make(chan string, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := ld.Claim("hot-task", string(rune('a'+i)), time.Minute); err == nil {
				wins <- string(rune('a' + i))
			}
		}(i)
	}
	wg.Wait()
	close(wins)
	var winners []string
	for w := range wins {
		winners = append(winners, w)
	}
	if len(winners) != 1 {
		t.Fatalf("%d workers won the claim race: %v", len(winners), winners)
	}
}

// TestShardRecordRoundTrip: task and result records survive the write/list/
// read cycle, version-skewed records are skipped, and RemoveShardFiles
// clears every per-job artifact.
func TestShardRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	req := JobRequest{Kind: JobKindExplore, FS: "ext4", Program: "CR", Mode: "pruning"}
	for i := 0; i < 2; i++ {
		if err := WriteShardTask(dir, ShardTask{Job: "j-ab", Shard: core.ShardSpec{Index: i, Count: 2}, Request: req}); err != nil {
			t.Fatal(err)
		}
	}
	// A corrupt task file must be skipped, not fatal.
	if err := os.WriteFile(filepath.Join(dir, "task-zzz-shard-0.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	tasks, err := ListShardTasks(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 2 || tasks[0].Shard.Index != 0 || tasks[1].Shard.Index != 1 {
		t.Fatalf("tasks: %+v", tasks)
	}
	if tasks[0].Request.FS != "ext4" {
		t.Fatalf("request did not round-trip: %+v", tasks[0].Request)
	}

	if _, ok, err := ReadShardResult(dir, "j-ab", 0); ok || err != nil {
		t.Fatalf("missing result: ok=%v err=%v", ok, err)
	}
	res := ShardResult{Job: "j-ab", Shard: core.ShardSpec{Index: 0, Count: 2}, Worker: "w1", Epoch: 1,
		Report: &core.ShardReport{Shard: core.ShardSpec{Index: 0, Count: 2}, Config: "cfg", StatesGenerated: 7}}
	if err := WriteShardResult(dir, res); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadShardResult(dir, "j-ab", 0)
	if err != nil || !ok {
		t.Fatalf("read result: ok=%v err=%v", ok, err)
	}
	if got.Report.StatesGenerated != 7 || got.Worker != "w1" {
		t.Fatalf("result did not round-trip: %+v", got)
	}

	RemoveShardFiles(dir, "j-ab", 2)
	tasks, _ = ListShardTasks(dir)
	if len(tasks) != 0 {
		t.Fatalf("tasks survived removal: %+v", tasks)
	}
	if _, ok, _ := ReadShardResult(dir, "j-ab", 0); ok {
		t.Fatal("result survived removal")
	}
}
