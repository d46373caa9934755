package serve

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"paracrash/internal/obs"
)

// TestRecordNames: every kind's name is the one the daemon has always
// written, and parses back to the same kind, ID, job and shard; names no
// kind produces are no record.
func TestRecordNames(t *testing.T) {
	const job = "j-0a1b2c3d4e5f"
	for _, c := range []struct {
		kind  recordKind
		id    string
		name  string
		shard int
	}{
		{kindJob, job, "job-j-0a1b2c3d4e5f.json", -1},
		{kindJournal, job, "ckpt-j-0a1b2c3d4e5f.jsonl", -1},
		{kindTask, shardID(job, 3), "task-j-0a1b2c3d4e5f-shard-3.json", 3},
		{kindResult, shardID(job, 0), "result-j-0a1b2c3d4e5f-shard-0.json", 0},
		{kindShardJournal, shardID(job, 12), "ckpt-j-0a1b2c3d4e5f-shard-12.jsonl", 12},
		{kindLease, shardID(job, 1), "lease-j-0a1b2c3d4e5f-shard-1.json", 1},
	} {
		if got := c.kind.name(c.id); got != c.name {
			t.Errorf("%s: name(%q) = %q, want %q", records[c.kind].what, c.id, got, c.name)
		}
		rec, ok := parseRecord(c.name)
		if want := (record{kind: c.kind, id: c.id, job: job, shard: c.shard}); !ok || rec != want {
			t.Errorf("parseRecord(%q) = %+v, %v; want %+v", c.name, rec, ok, want)
		}
	}
	// The ID is sanitized once, by the name function.
	if got := kindTask.name(shardID("a/b", 2)); got != "task-a_b-shard-2.json" {
		t.Errorf("unsanitized job: %q", got)
	}
	// A lease may name a task that is no shard's: it is a lease of no job.
	if rec, ok := parseRecord("lease-warmup.json"); !ok || rec.kind != kindLease || rec.job != "" || rec.shard != -1 {
		t.Errorf("lease on a plain task: %+v, %v", rec, ok)
	}
	for _, name := range []string{
		"job-j-1.json.tmp", ".ckpt-j-1.jsonl", QuarantineDirName, "job-.json",
		"task-j-1.json", "result-j-1-shard-01.json", "task-j-1-shard--1.json",
		"result-j-1-shard-x.json", "job-a.b.json", "lease-j-1-shard-0.jsonl", "README",
	} {
		if rec, ok := parseRecord(name); ok {
			t.Errorf("parseRecord(%q) = %+v, want no record", name, rec)
		}
	}
}

// TestRemoveShardFilesMatchesFsck: RemoveShardFiles removes exactly the
// shard files fsck's ownership pass attributes to the job. The job's own
// journal is attributed too, but it is the job's run that removes it.
func TestRemoveShardFilesMatchesFsck(t *testing.T) {
	dir := t.TempDir()
	ld, err := NewLeaseDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range []string{"j-done", "j-live"} {
		st := JobDone
		if job == "j-live" {
			st = JobRunning
		}
		writeFixture(t, dir, kindJob.name(job), jobFixture(t, job, st))
		writeFixture(t, dir, kindJournal.name(job), journalFixture([]string{"a"}, ""))
		for i := 0; i < 2; i++ {
			if err := WriteShardTask(dir, ShardTask{Job: job, Shard: shardSpec(i, 2)}); err != nil {
				t.Fatal(err)
			}
			if err := WriteShardResult(dir, ShardResult{Job: job, Shard: shardSpec(i, 2)}); err != nil {
				t.Fatal(err)
			}
			writeFixture(t, dir, kindShardJournal.name(shardID(job, i)), journalFixture([]string{"b"}, ""))
			if _, err := ld.Claim(shardID(job, i), "w1", time.Hour); err != nil {
				t.Fatal(err)
			}
		}
	}

	rep, err := Fsck(dir, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var attributed []string
	for _, p := range rep.Problems {
		if p.Category != ProblemStaleShardFiles {
			t.Errorf("unexpected finding %+v", p)
		}
		if p.Path != kindJournal.name("j-done") {
			attributed = append(attributed, p.Path)
		}
	}
	if len(attributed) != 8 {
		t.Errorf("fsck attributes %d shard files to j-done, want 8: %v", len(attributed), attributed)
	}

	before := dirNames(t, dir)
	RemoveShardFiles(dir, "j-done", 2)
	after := dirNames(t, dir)
	var removed []string
	for _, name := range before {
		if !slices.Contains(after, name) {
			removed = append(removed, name)
		}
	}
	if !slices.Equal(removed, attributed) {
		t.Errorf("RemoveShardFiles removed %v, fsck attributes %v", removed, attributed)
	}
}

// dirNames lists dir, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		out = append(out, e.Name())
	}
	return out
}

// TestWatchFilters: a worker's inbox is woken by a task's arrival and a
// lease's removal, and the coordinator by a result's arrival; no other
// record kind, arriving or removed, wakes either.
func TestWatchFilters(t *testing.T) {
	const job = "j-1"
	st, _ := OpenStore("")
	s := NewScheduler(SchedulerConfig{}, st, obs.NewRun())
	var onResult func(dirEvent)
	s.watchDir = func(_ string, on func(dirEvent)) (*dirWatcher, error) {
		onResult = on
		return nil, nil
	}
	s.watchResults()
	wake, unregister := s.awaitResults(job)
	defer unregister()

	for k := range records {
		kind := recordKind(k)
		id := job
		if records[k].id != byJob {
			id = shardID(job, 1)
		}
		for _, removed := range []bool{false, true} {
			ev := dirEvent{name: kind.name(id), removed: removed}
			b := inbox{wake: make(chan struct{}, 1)}
			b.on(ev)
			tasks, _ := b.take()
			worker := len(b.wake) == 1
			wantWorker := (kind == kindTask && !removed) || (kind == kindLease && removed)
			if worker != wantWorker {
				t.Errorf("%s (removed=%t): worker woken %t, want %t", ev.name, removed, worker, wantWorker)
			}
			if wantWorker && !slices.Equal(tasks, []string{kindTask.name(id)}) {
				t.Errorf("%s (removed=%t): inbox holds %v", ev.name, removed, tasks)
			}

			onResult(ev)
			coordinator := false
			select {
			case <-wake:
				coordinator = true
			default:
			}
			if want := kind == kindResult && !removed; coordinator != want {
				t.Errorf("%s (removed=%t): coordinator woken %t, want %t", ev.name, removed, coordinator, want)
			}
		}
	}
}

// docFile matches a row of OPERATIONS.md's file table: its first cell is
// the backtick-quoted name pattern.
var docFile = regexp.MustCompile("^\\| `([^`]+)` \\|")

// TestLayoutDocumented holds docs/OPERATIONS.md §1's table of the shared
// directory to the record table, in both directions.
func TestLayoutDocumented(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "### Files in the shared directory\n")
	if !ok {
		t.Fatal("OPERATIONS.md has no \"Files in the shared directory\" section")
	}
	section, _, _ = strings.Cut(section, "\n#")
	var documented []string
	for _, line := range strings.Split(section, "\n") {
		if m := docFile.FindStringSubmatch(line); m != nil {
			documented = append(documented, m[1])
		}
	}
	var kinds []string
	for _, r := range records {
		id := "<id>"
		if r.id != byJob {
			id += shardSep + "<i>"
		}
		kinds = append(kinds, r.prefix+id+r.suffix)
	}
	for _, p := range kinds {
		if !slices.Contains(documented, p) {
			t.Errorf("record kind %s is not in OPERATIONS.md's table", p)
		}
	}
	for _, p := range documented {
		if !slices.Contains(kinds, p) {
			t.Errorf("OPERATIONS.md's table lists %s, which is no record kind", p)
		}
	}
	if len(documented) != len(kinds) {
		t.Errorf("OPERATIONS.md's table has %d rows for %d record kinds", len(documented), len(kinds))
	}
}
