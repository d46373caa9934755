package paracrash_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paracrash/internal/exps"
	"paracrash/internal/obs"
	"paracrash/internal/paracrash"
	"paracrash/internal/workloads"
)

// TestJournalResumeComplete holds the journal and the shard wire form to
// every paper program on all six backends at k = 1: the journal reads
// clean (what fsck checks); resuming it warns nothing, takes every record
// (so every key restored) and at least one per state the writing run
// judged, and reproduces the report; and a 2-shard merge of JSON
// round-tripped reports digests no state the shards shipped.
func TestJournalResumeComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("66 cells")
	}
	for _, backend := range exps.FSNames() {
		for _, prog := range exps.Programs() {
			t.Run(backend+"/"+prog.Name, func(t *testing.T) {
				h5p := workloads.DefaultH5Params()
				conf := exps.ConfigFor(backend)
				path := filepath.Join(t.TempDir(), "ckpt.jsonl")
				opts := paracrash.DefaultOptions()
				opts.Checkpoint = paracrash.OpenCheckpoint(path)
				fresh, err := exps.RunOne(backend, prog, opts, h5p, conf)
				if err != nil {
					t.Fatal(err)
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				j, err := paracrash.ReadJournal(data)
				if err != nil || j.Torn != "" || j.Duplicates != 0 {
					t.Fatalf("journal does not read clean: err=%v torn=%q duplicates=%d", err, j.Torn, j.Duplicates)
				}

				ckpt := paracrash.OpenCheckpoint(path)
				opts.Checkpoint = ckpt
				resumed, err := exps.RunOne(backend, prog, opts, h5p, conf)
				if err != nil {
					t.Fatal(err)
				}
				if w := ckpt.Warnings(); len(w) != 0 {
					t.Errorf("resume warnings: %v", w)
				}
				// A record whose key did not restore byte for byte would be
				// missed, and its state judged again.
				if n := resumed.Stats.StatesResumed; n != len(j.Verdicts) || n < fresh.Stats.StatesChecked {
					t.Errorf("resumed %d verdicts from %d records; the writing run judged %d states", n, len(j.Verdicts), fresh.Stats.StatesChecked)
				}
				if ff, rf := exps.ReportFingerprint(fresh), exps.ReportFingerprint(resumed); ff != rf {
					t.Errorf("resumed report differs:\n--- fresh ---\n%s--- resumed ---\n%s", ff, rf)
				}

				reports := make([]*paracrash.ShardReport, 2)
				sopts := paracrash.DefaultOptions()
				for i := range reports {
					sr, err := exps.Spec{FS: backend, Program: prog, Options: sopts, H5: h5p, Config: conf}.RunShard(context.Background(), paracrash.ShardSpec{Index: i, Count: 2})
					if err != nil {
						t.Fatal(err)
					}
					reports[i] = wireRoundTrip(t, sr)
				}
				// A shipped key that did not restore would miss the merge's
				// lookup and be digested again, which checkMergeDigests
				// catches.
				run := obs.NewRun()
				sopts.Obs = run
				merged, err := exps.Spec{FS: backend, Program: prog, Options: sopts, H5: h5p, Config: conf}.Merge(context.Background(), reports)
				if err != nil {
					t.Fatal(err)
				}
				checkMergeDigests(t, run, reports)
				if ff, mf := exps.ReportFingerprint(fresh), exps.ReportFingerprint(merged); ff != mf {
					t.Errorf("merged report differs:\n--- fresh ---\n%s--- merged ---\n%s", ff, mf)
				}
			})
		}
	}
}

// TestResumeStaleAcrossH5Params: a journal written for one H5 parameter set
// must not resume into a run with another — the traced ops differ, so the
// run identity differs — and the resumed run must report what a fresh run
// does. Neither the workload name nor any option tells the two apart.
func TestResumeStaleAcrossH5Params(t *testing.T) {
	prog, err := exps.ProgramByName("H5-delete")
	if err != nil {
		t.Fatal(err)
	}
	conf := exps.ConfigFor("gpfs")
	small, large := workloads.DefaultH5Params(), workloads.DefaultH5Params()
	small.Rows, small.Cols = 4, 4
	large.Rows, large.Cols = 6, 6
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")

	opts := paracrash.DefaultOptions()
	opts.Checkpoint = paracrash.OpenCheckpoint(path)
	if _, err := exps.RunOne("gpfs", prog, opts, small, conf); err != nil {
		t.Fatal(err)
	}
	ckpt := paracrash.OpenCheckpoint(path)
	opts.Checkpoint = ckpt
	stale, err := exps.RunOne("gpfs", prog, opts, large, conf)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := exps.RunOne("gpfs", prog, paracrash.DefaultOptions(), large, conf)
	if err != nil {
		t.Fatal(err)
	}
	if w := strings.Join(ckpt.Warnings(), "\n"); !strings.Contains(w, "different configuration") {
		t.Errorf("no config-mismatch warning, got %q", w)
	}
	if ckpt.Resumed() != 0 {
		t.Errorf("resumed %d verdicts written under other H5 params", ckpt.Resumed())
	}
	if sf, ff := exps.ReportFingerprint(stale), exps.ReportFingerprint(fresh); sf != ff {
		t.Errorf("report over a stale journal differs from a fresh run:\n--- stale ---\n%s--- fresh ---\n%s", sf, ff)
	}
}

// TestShardMergeRefusesOtherH5Params: shard reports judged under one H5
// parameter set are refused by a merge under another.
func TestShardMergeRefusesOtherH5Params(t *testing.T) {
	prog, err := exps.ProgramByName("H5-delete")
	if err != nil {
		t.Fatal(err)
	}
	conf := exps.ConfigFor("gpfs")
	opts := paracrash.DefaultOptions()
	small, large := workloads.DefaultH5Params(), workloads.DefaultH5Params()
	large.Rows, large.Cols = 6, 6
	var reports []*paracrash.ShardReport
	for i := 0; i < 2; i++ {
		sr, err := exps.Spec{FS: "gpfs", Program: prog, Options: opts, H5: small, Config: conf}.RunShard(context.Background(), paracrash.ShardSpec{Index: i, Count: 2})
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, sr)
	}
	_, err = exps.Spec{FS: "gpfs", Program: prog, Options: opts, H5: large, Config: conf}.Merge(context.Background(), reports)
	if err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Errorf("merge across H5 params: got %v, want a configuration mismatch", err)
	}
}
