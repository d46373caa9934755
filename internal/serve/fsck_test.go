package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"paracrash/internal/exps"
	"paracrash/internal/obs"
	core "paracrash/internal/paracrash"
	"paracrash/internal/workloads"
)

// shardSpec abbreviates the fixture shard identity.
func shardSpec(index, count int) core.ShardSpec {
	return core.ShardSpec{Index: index, Count: count}
}

// fsckNow is the fixed clock every fsck fixture is judged against.
var fsckNow = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

// writeFixture drops raw bytes into the state dir under test.
func writeFixture(t *testing.T, dir, name, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// jobFixture renders a parseable job record in state st.
func jobFixture(t *testing.T, id string, st JobState) string {
	t.Helper()
	data, err := json.Marshal(Job{Version: JobVersion, ID: id, State: st, CreatedAt: fsckNow})
	if err != nil {
		t.Fatal(err)
	}
	return string(data) + "\n"
}

// leaseFixture renders a parseable lease expiring at exp.
func leaseFixture(t *testing.T, task, owner string, epoch int, exp time.Time) string {
	t.Helper()
	data, err := json.Marshal(Lease{Task: task, Owner: owner, Epoch: epoch, Expires: exp})
	if err != nil {
		t.Fatal(err)
	}
	return string(data) + "\n"
}

// journalFixture renders a checkpoint journal: a header line plus one
// record per key (hex-encoded, as the engine writes keys), optionally
// ending with a torn (unterminated) tail.
func journalFixture(keys []string, tornTail string) string {
	out := `{"version":1,"config":"test"}` + "\n"
	for _, k := range keys {
		out += fmt.Sprintf(`{"key":"%x","consistent":true}`+"\n", k)
	}
	return out + tornTail
}

// TestFsckRepairTaxonomy drives serve.Fsck over one corrupted state
// directory per damage class and asserts the classification, the
// repair-vs-quarantine decision, and that a repaired directory re-scans
// clean.
func TestFsckRepairTaxonomy(t *testing.T) {
	taskJSON := func(job string, shard int) string {
		data, _ := json.Marshal(ShardTask{Version: FleetVersion, Job: job, Shard: shardSpec(shard, 2)})
		return string(data) + "\n"
	}
	resultJSON := func(job string, shard int) string {
		data, _ := json.Marshal(ShardResult{Version: FleetVersion, Job: job, Shard: shardSpec(shard, 2), Worker: "w1", Epoch: 1})
		return string(data) + "\n"
	}

	cases := []struct {
		name string
		// seed populates the directory; returns nothing.
		seed func(t *testing.T, dir string)
		// category/action expected for the (single) problem of interest.
		category string
		action   string
		// gone lists files that must be absent after repair; kept lists
		// files that must survive untouched.
		gone []string
		kept []string
		// quarantined lists files that must appear under quarantine/.
		quarantined []string
	}{
		{
			name: "orphan tmp from interrupted atomic replace",
			seed: func(t *testing.T, dir string) {
				writeFixture(t, dir, "job-j-1.json", jobFixture(t, "j-1", JobDone))
				writeFixture(t, dir, "job-j-1.json.tmp", `{"version":1,"id":"j-`)
			},
			category: ProblemOrphanTmp,
			action:   ActionRemoved,
			gone:     []string{"job-j-1.json.tmp"},
			kept:     []string{"job-j-1.json"},
		},
		{
			name: "torn job record is quarantined, not destroyed",
			seed: func(t *testing.T, dir string) {
				writeFixture(t, dir, "job-j-2.json", `{"version":1,"id":"j-2","state":"run`)
			},
			category:    ProblemTornJobRecord,
			action:      ActionQuarantined,
			gone:        []string{"job-j-2.json"},
			quarantined: []string{"job-j-2.json"},
		},
		{
			name: "version-skewed job record is quarantined",
			seed: func(t *testing.T, dir string) {
				writeFixture(t, dir, "job-j-3.json", `{"version":99,"id":"j-3","state":"done"}`+"\n")
			},
			category:    ProblemVersionSkew,
			action:      ActionQuarantined,
			gone:        []string{"job-j-3.json"},
			quarantined: []string{"job-j-3.json"},
		},
		{
			name: "malformed lease is removed",
			seed: func(t *testing.T, dir string) {
				writeFixture(t, dir, "lease-j-4-shard-0.json", `{"task":"j-4-sh`)
			},
			category: ProblemMalformedLease,
			action:   ActionRemoved,
			gone:     []string{"lease-j-4-shard-0.json"},
		},
		{
			name: "stale lease epoch (expired claim of a live job) is removed",
			seed: func(t *testing.T, dir string) {
				writeFixture(t, dir, "job-j-5.json", jobFixture(t, "j-5", JobRunning))
				writeFixture(t, dir, "lease-j-5-shard-0.json",
					leaseFixture(t, "j-5-shard-0", "w-dead", 3, fsckNow.Add(-time.Minute)))
			},
			category: ProblemStaleLease,
			action:   ActionRemoved,
			gone:     []string{"lease-j-5-shard-0.json"},
			kept:     []string{"job-j-5.json"},
		},
		{
			name: "torn journal tail is truncated by rewrite",
			seed: func(t *testing.T, dir string) {
				writeFixture(t, dir, "job-j-6.json", jobFixture(t, "j-6", JobRunning))
				writeFixture(t, dir, "ckpt-j-6.jsonl", journalFixture([]string{"a", "b"}, `{"key":"c","consis`))
			},
			category: ProblemTornJournalTail,
			action:   ActionRewritten,
			kept:     []string{"ckpt-j-6.jsonl", "job-j-6.json"},
		},
		{
			name: "duplicate shard verdict is deduplicated by rewrite",
			seed: func(t *testing.T, dir string) {
				writeFixture(t, dir, "job-j-7.json", jobFixture(t, "j-7", JobRunning))
				writeFixture(t, dir, "ckpt-j-7-shard-0.jsonl", journalFixture([]string{"a", "b", "a"}, ""))
			},
			category: ProblemDuplicateJournalRecord,
			action:   ActionRewritten,
			kept:     []string{"ckpt-j-7-shard-0.jsonl", "job-j-7.json"},
		},
		{
			name: "journal with unreadable header is quarantined",
			seed: func(t *testing.T, dir string) {
				writeFixture(t, dir, "job-j-8.json", jobFixture(t, "j-8", JobRunning))
				writeFixture(t, dir, "ckpt-j-8.jsonl", "not json at all\n")
			},
			category:    ProblemUnreadableJournal,
			action:      ActionQuarantined,
			gone:        []string{"ckpt-j-8.jsonl"},
			quarantined: []string{"ckpt-j-8.jsonl"},
			kept:        []string{"job-j-8.json"},
		},
		{
			name: "damaged shard task is removed (coordinator rewrites it)",
			seed: func(t *testing.T, dir string) {
				writeFixture(t, dir, "job-j-9.json", jobFixture(t, "j-9", JobRunning))
				writeFixture(t, dir, "task-j-9-shard-0.json", `{"version":1,"job":"j-9","sh`)
			},
			category: ProblemDamagedShardTask,
			action:   ActionRemoved,
			gone:     []string{"task-j-9-shard-0.json"},
		},
		{
			name: "damaged shard result is removed (worker recomputes it)",
			seed: func(t *testing.T, dir string) {
				writeFixture(t, dir, "job-j-10.json", jobFixture(t, "j-10", JobRunning))
				writeFixture(t, dir, "result-j-10-shard-1.json", `{"version":7,"job":"j-10"}`+"\n")
			},
			category: ProblemDamagedShardResult,
			action:   ActionRemoved,
			gone:     []string{"result-j-10-shard-1.json"},
		},
		{
			name: "half-merged shard debris of a terminal job is removed",
			seed: func(t *testing.T, dir string) {
				writeFixture(t, dir, "job-j-11.json", jobFixture(t, "j-11", JobDone))
				writeFixture(t, dir, "task-j-11-shard-0.json", taskJSON("j-11", 0))
				writeFixture(t, dir, "result-j-11-shard-0.json", resultJSON("j-11", 0))
				writeFixture(t, dir, "ckpt-j-11-shard-0.jsonl", journalFixture([]string{"a"}, ""))
				writeFixture(t, dir, "lease-j-11-shard-0.json",
					leaseFixture(t, "j-11-shard-0", "w1", 1, fsckNow.Add(time.Hour)))
			},
			category: ProblemStaleShardFiles,
			action:   ActionRemoved,
			gone: []string{
				"task-j-11-shard-0.json", "result-j-11-shard-0.json",
				"ckpt-j-11-shard-0.jsonl", "lease-j-11-shard-0.json",
			},
			kept: []string{"job-j-11.json"},
		},
		{
			name: "orphan shard result (job record lost) is quarantined as evidence",
			seed: func(t *testing.T, dir string) {
				writeFixture(t, dir, "result-j-ghost-shard-0.json", resultJSON("j-ghost", 0))
			},
			category:    ProblemOrphanShardFiles,
			action:      ActionQuarantined,
			gone:        []string{"result-j-ghost-shard-0.json"},
			quarantined: []string{"result-j-ghost-shard-0.json"},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.seed(t, dir)

			// Dry run first: same classification, nothing changed.
			dry, err := Fsck(dir, FsckOptions{Now: fsckNow})
			if err != nil {
				t.Fatalf("dry-run fsck: %v", err)
			}
			if dry.Clean {
				t.Fatalf("dry run reported clean; want %s finding", tc.category)
			}
			found := false
			for _, p := range dry.Problems {
				if p.Category == tc.category {
					found = true
					if p.Action != ActionDetected {
						t.Errorf("dry-run action for %s = %q, want %q", p.Path, p.Action, ActionDetected)
					}
				}
			}
			if !found {
				t.Fatalf("dry run found %v, want a %s finding", dry.Problems, tc.category)
			}
			if dry.Repaired != 0 || dry.Quarantined != 0 {
				t.Fatalf("dry run claims repairs: %+v", dry)
			}
			for _, name := range append(append([]string{}, tc.gone...), tc.kept...) {
				if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
					t.Fatalf("dry run touched %s: %v", name, err)
				}
			}

			// Repair run: the expected action lands on the expected category.
			rep, err := Fsck(dir, FsckOptions{Repair: true, Now: fsckNow})
			if err != nil {
				t.Fatalf("repair fsck: %v", err)
			}
			found = false
			for _, p := range rep.Problems {
				if p.Category == tc.category {
					found = true
					if p.Action != tc.action {
						t.Errorf("repair action for %s = %q, want %q (%s)", p.Path, p.Action, tc.action, p.Detail)
					}
				}
			}
			if !found {
				t.Fatalf("repair run found %v, want a %s finding", rep.Problems, tc.category)
			}
			for _, name := range tc.gone {
				if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
					t.Errorf("%s still present after repair", name)
				}
			}
			for _, name := range tc.kept {
				if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
					t.Errorf("%s damaged by repair: %v", name, err)
				}
			}
			for _, name := range tc.quarantined {
				if _, err := os.Stat(filepath.Join(dir, QuarantineDirName, name)); err != nil {
					t.Errorf("%s not in quarantine after repair: %v", name, err)
				}
			}
			if (rep.Quarantined > 0) != (tc.action == ActionQuarantined) {
				t.Errorf("quarantined=%d for action %s", rep.Quarantined, tc.action)
			}
			if rep.Degraded() != (tc.action == ActionQuarantined) {
				t.Errorf("Degraded() = %t for action %s", rep.Degraded(), tc.action)
			}

			// A repaired directory re-scans clean.
			again, err := Fsck(dir, FsckOptions{Now: fsckNow})
			if err != nil {
				t.Fatalf("post-repair fsck: %v", err)
			}
			if !again.Clean {
				t.Fatalf("directory not clean after repair: %v", again.Problems)
			}
		})
	}
}

// TestFsckJournalRewriteContent pins the byte-level result of a journal
// repair: the torn tail and the duplicate record are gone, the header and
// first occurrences survive verbatim, and the file is newline-terminated
// so subsequent appends stay well-formed.
func TestFsckJournalRewriteContent(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "job-j-1.json", jobFixture(t, "j-1", JobRunning))
	writeFixture(t, dir, "ckpt-j-1.jsonl", journalFixture([]string{"a", "b", "a"}, `{"key":"c","cons`))

	rep, err := Fsck(dir, FsckOptions{Repair: true, Now: fsckNow})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired == 0 {
		t.Fatalf("no repairs recorded: %+v", rep)
	}
	got, err := os.ReadFile(filepath.Join(dir, "ckpt-j-1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	want := journalFixture([]string{"a", "b"}, "")
	if string(got) != want {
		t.Fatalf("rewritten journal = %q, want %q", got, want)
	}
}

// TestFsckTornNewline: a journal whose last record lost its newline is
// torn to fsck as it is to resume; the repair keeps the complete record
// and terminates it, so a later append cannot glue onto it.
func TestFsckTornNewline(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "job-j-1.json", jobFixture(t, "j-1", JobRunning))
	full := journalFixture([]string{"a", "b"}, "")
	writeFixture(t, dir, "ckpt-j-1.jsonl", strings.TrimSuffix(full, "\n"))
	rep, err := Fsck(dir, FsckOptions{Repair: true, Now: fsckNow})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) != 1 || rep.Problems[0].Category != ProblemTornJournalTail {
		t.Fatalf("problems = %+v, want one %s", rep.Problems, ProblemTornJournalTail)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "ckpt-j-1.jsonl")); err != nil || string(got) != full {
		t.Fatalf("rewritten journal = %q (%v), want %q", got, err, full)
	}
}

// TestFsckCleanOnEngineJournals: the journals the engine writes read clean
// to fsck — among them gpfs/H5-resize, whose binary keys once collided
// into duplicates when JSON mangled them.
func TestFsckCleanOnEngineJournals(t *testing.T) {
	dir := t.TempDir()
	for i, cell := range [][2]string{{"beegfs", "ARVR"}, {"gpfs", "H5-resize"}, {"orangefs", "H5-parallel-create"}} {
		id := fmt.Sprintf("j-%d", i)
		writeFixture(t, dir, "job-"+id+".json", jobFixture(t, id, JobRunning))
		prog, err := exps.ProgramByName(cell[1])
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.Checkpoint = core.OpenCheckpoint(filepath.Join(dir, "ckpt-"+id+".jsonl"))
		if _, err := exps.RunOne(cell[0], prog, opts, workloads.DefaultH5Params(), exps.ConfigFor(cell[0])); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Fsck(dir, FsckOptions{Now: fsckNow})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean {
		t.Fatalf("engine journals are not clean: %+v", rep.Problems)
	}
}

// TestFsckCleanDirectory asserts the healthy cases: a live fleet directory
// mid-job, a missing directory, and an empty one are all clean.
func TestFsckCleanDirectory(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "job-j-1.json", jobFixture(t, "j-1", JobRunning))
	writeFixture(t, dir, "task-j-1-shard-0.json", func() string {
		data, _ := json.Marshal(ShardTask{Version: FleetVersion, Job: "j-1", Shard: shardSpec(0, 1)})
		return string(data) + "\n"
	}())
	writeFixture(t, dir, "ckpt-j-1-shard-0.jsonl", journalFixture([]string{"a", "b"}, ""))
	writeFixture(t, dir, "lease-j-1-shard-0.json",
		leaseFixture(t, "j-1-shard-0", "w1", 1, fsckNow.Add(time.Hour)))
	writeFixture(t, dir, "job-j-0.json", jobFixture(t, "j-0", JobDone))

	for name, d := range map[string]string{
		"live fleet dir": dir,
		"missing dir":    filepath.Join(dir, "nope"),
		"empty dir":      t.TempDir(),
	} {
		rep, err := Fsck(d, FsckOptions{Now: fsckNow})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Clean {
			t.Fatalf("%s: not clean: %v", name, rep.Problems)
		}
	}
}

// TestReadyzFsckGate exercises the daemon-facing surface of the fsck
// report: /healthz carries the summary and turns "degraded" on
// quarantines, and /readyz flips to 503 so orchestrators route around a
// daemon that lost state.
func TestReadyzFsckGate(t *testing.T) {
	st, _ := OpenStore("")
	run := obs.NewRun()
	s := NewScheduler(SchedulerConfig{MaxConcurrent: 1, QueueDepth: 4}, st, run)
	s.Start()
	defer s.Drain(context.Background())
	api := NewServer(s, st, run)
	srv := httptest.NewServer(api)
	defer srv.Close()

	get := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	// No fsck report yet (memory-only daemon): ready, no fsck block.
	if code, body := get("/readyz"); code != http.StatusOK || body["ready"] != true {
		t.Fatalf("/readyz before fsck = %d %v", code, body)
	}
	if _, body := get("/healthz"); body["fsck"] != nil {
		t.Fatalf("/healthz carries fsck block without a report: %v", body)
	}

	// Clean startup fsck: still ready, summary visible.
	api.SetFsck(&FsckReport{Version: FsckVersion, Repair: true, Clean: true})
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after clean fsck = %d", code)
	}
	code, body := get("/healthz")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("/healthz after clean fsck = %d %v", code, body)
	}
	if f, ok := body["fsck"].(map[string]any); !ok || f["clean"] != true {
		t.Fatalf("/healthz fsck block = %v", body["fsck"])
	}

	// Quarantines degrade: /healthz says so, /readyz fails.
	api.SetFsck(&FsckReport{
		Version: FsckVersion, Repair: true, Quarantined: 2,
		Problems: []FsckProblem{
			{Path: "job-j-1.json", Category: ProblemTornJobRecord, Action: ActionQuarantined},
			{Path: "ckpt-j-2.jsonl", Category: ProblemUnreadableJournal, Action: ActionQuarantined},
		},
	})
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || body["ready"] == true {
		t.Fatalf("/readyz degraded = %d %v", code, body)
	}
	if _, body := get("/healthz"); body["status"] != "degraded" {
		t.Fatalf("/healthz degraded status = %v", body["status"])
	}
}
