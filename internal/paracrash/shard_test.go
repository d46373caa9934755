package paracrash_test

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"paracrash/internal/exps"
	"paracrash/internal/obs"
	"paracrash/internal/paracrash"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

// runShards judges every shard of a count-way partition on fresh clusters
// (each shard in its own process in production; fresh FileSystem instances
// here give the same isolation) and returns the reports.
func runShards(t *testing.T, backend string, prog *workloads.Program, opts paracrash.Options, count int) []*paracrash.ShardReport {
	t.Helper()
	reports := make([]*paracrash.ShardReport, count)
	for i := 0; i < count; i++ {
		fs, err := exps.NewFS(backend, exps.ConfigFor(backend), trace.NewRecorder())
		if err != nil {
			t.Fatal(err)
		}
		sr, err := paracrash.RunShard(context.Background(), fs, nil, prog, opts, paracrash.ShardSpec{Index: i, Count: count})
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, count, err)
		}
		reports[i] = wireRoundTrip(t, sr)
	}
	return reports
}

// wireRoundTrip passes a shard report through encoding/json, as the
// fleet's result files do.
func wireRoundTrip(t *testing.T, sr *paracrash.ShardReport) *paracrash.ShardReport {
	t.Helper()
	data, err := json.Marshal(sr)
	if err != nil {
		t.Fatal(err)
	}
	back := new(paracrash.ShardReport)
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	return back
}

// mergeShards merges shard reports on a fresh cluster.
func mergeShards(t *testing.T, backend string, prog *workloads.Program, opts paracrash.Options, reports []*paracrash.ShardReport) *paracrash.Report {
	t.Helper()
	fs, err := exps.NewFS(backend, exps.ConfigFor(backend), trace.NewRecorder())
	if err != nil {
		t.Fatal(err)
	}
	run := obs.NewRun()
	opts.Obs = run
	rep, err := paracrash.MergeShards(context.Background(), fs, nil, prog, opts, reports)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	checkMergeDigests(t, run, reports)
	return rep
}

// checkMergeDigests holds a merge to digesting only what no shard shipped:
// every shipped verdict carries its class key, so the merge's class-digest
// restores are classifier probes outside the generated space
// (restores/digest <= restores/probe). A state whose digest failed ships
// without a class key, and the merge digests it.
func checkMergeDigests(t *testing.T, run *obs.Run, reports []*paracrash.ShardReport) {
	t.Helper()
	for _, sr := range reports {
		for _, v := range sr.Verdicts {
			if v.Class == "" && v.Skipped {
				return
			}
		}
	}
	if d, p := run.Counter("restores/digest").Value(), run.Counter("restores/probe").Value(); d > p {
		t.Errorf("merge digested shipped states: restores/digest %d > restores/probe %d", d, p)
	}
}

// TestShardMergeEquivalence is the fleet's byte-identity oracle: on every
// backend, judging the crash-state space as a 3-way shard partition on
// separate clusters and merging the reports must reproduce the standalone
// serial report exactly — ReportFingerprint covers verdicts, stat charges,
// class counts and the bug set.
func TestShardMergeEquivalence(t *testing.T) {
	progs := incrementalPrograms(t)
	for _, backend := range exps.FSNames() {
		for _, prog := range progs[:2] {
			for _, mode := range []paracrash.Mode{paracrash.ModeBrute, paracrash.ModePruning} {
				t.Run(backend+"/"+prog.Name()+"/"+mode.String(), func(t *testing.T) {
					opts := paracrash.DefaultOptions()
					opts.Mode = mode
					standalone := runEngine(t, backend, prog, mode)
					merged := mergeShards(t, backend, prog, opts, runShards(t, backend, prog, opts, 3))
					if sf, mf := exps.ReportFingerprint(standalone), exps.ReportFingerprint(merged); sf != mf {
						t.Errorf("3-shard fleet report differs from standalone:\n--- standalone ---\n%s--- fleet ---\n%s", sf, mf)
					}
				})
			}
		}
	}
}

// TestShardMergeEquivalenceKnobs re-runs the byte-identity oracle on one
// backend with the partition width varied: a single-shard partition (the
// degenerate fleet) and a wide one must both merge to the standalone
// fingerprint.
func TestShardMergeEquivalenceKnobs(t *testing.T) {
	prog := workloads.Generate(workloads.GenConfig{Seed: 11, Ops: 5, Files: 2, Dirs: 1, WithFsync: true})
	backend := "beegfs"
	cases := []struct {
		name   string
		shards int
	}{
		{"single-shard", 1},
		{"many-shards", 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := paracrash.DefaultOptions()
			fs, err := exps.NewFS(backend, exps.ConfigFor(backend), trace.NewRecorder())
			if err != nil {
				t.Fatal(err)
			}
			standalone, err := paracrash.Run(fs, nil, prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			reports := runShards(t, backend, prog, opts, tc.shards)
			merged := mergeShards(t, backend, prog, opts, reports)
			if sf, mf := exps.ReportFingerprint(standalone), exps.ReportFingerprint(merged); sf != mf {
				t.Errorf("fleet report differs from standalone:\n--- standalone ---\n%s--- fleet ---\n%s", sf, mf)
			}
			// StatesChecked counts reconstructed states only: class members
			// attributed from a representative carry a verdict but no check.
			checked, verdicts := 0, 0
			for _, sr := range reports {
				if sr.Stats.StatesChecked > len(sr.Verdicts) {
					t.Errorf("shard %s: StatesChecked %d exceeds its %d verdicts", sr.Shard, sr.Stats.StatesChecked, len(sr.Verdicts))
				}
				checked += sr.Stats.StatesChecked
				verdicts += len(sr.Verdicts)
			}
			if checked >= verdicts {
				t.Errorf("class members counted as checked: %d checked, %d verdicts", checked, verdicts)
			}
		})
	}
}

// TestShardMergeValidation: MergeShards must refuse partitions that are not
// complete, consistent and configuration-compatible instead of delivering a
// silently partial report.
func TestShardMergeValidation(t *testing.T) {
	prog := workloads.Generate(workloads.GenConfig{Seed: 11, Ops: 4, Files: 2, Dirs: 1, WithFsync: true})
	backend := "lustre"
	opts := paracrash.DefaultOptions()
	reports := runShards(t, backend, prog, opts, 2)

	merge := func(opts paracrash.Options, reports []*paracrash.ShardReport) error {
		fs, err := exps.NewFS(backend, exps.ConfigFor(backend), trace.NewRecorder())
		if err != nil {
			t.Fatal(err)
		}
		_, err = paracrash.MergeShards(context.Background(), fs, nil, prog, opts, reports)
		return err
	}

	if err := merge(opts, nil); err == nil || !strings.Contains(err.Error(), "no shard reports") {
		t.Errorf("empty merge: got %v", err)
	}
	if err := merge(opts, reports[:1]); err == nil || !strings.Contains(err.Error(), "missing report") {
		t.Errorf("incomplete partition: got %v", err)
	}
	if err := merge(opts, []*paracrash.ShardReport{reports[0], reports[0]}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate shard: got %v", err)
	}

	other := opts
	other.Mode = paracrash.ModeBrute
	if err := merge(other, reports); err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Errorf("config mismatch: got %v", err)
	}

	mixed := runShards(t, backend, prog, opts, 3)
	if err := merge(opts, []*paracrash.ShardReport{reports[0], mixed[1]}); err == nil || !strings.Contains(err.Error(), "partition") {
		t.Errorf("count mismatch: got %v", err)
	}

	bad := *reports[1]
	bad.StatesGenerated++
	if err := merge(opts, []*paracrash.ShardReport{reports[0], &bad}); err == nil || !strings.Contains(err.Error(), "generated") {
		t.Errorf("generated-space mismatch: got %v", err)
	}

	if err := (paracrash.ShardSpec{Index: 2, Count: 2}).Validate(); err == nil {
		t.Error("out-of-range shard index validated")
	}
	if err := (paracrash.ShardSpec{Index: 0, Count: 0}).Validate(); err == nil {
		t.Error("zero shard count validated")
	}

	fs, err := exps.NewFS(backend, exps.ConfigFor(backend), trace.NewRecorder())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := paracrash.RunShard(context.Background(), fs, nil, prog, opts, paracrash.ShardSpec{Index: 3, Count: 3}); err == nil {
		t.Error("RunShard accepted an out-of-range shard spec")
	}
}

// TestShardChaosResume: a shard worker killed mid-shard and restarted from
// its shard-scoped checkpoint journal (the fleet's lease-reclaim path) must
// converge to a report whose merge is byte-identical to a standalone run,
// with every round resuming the previous round's journal.
func TestShardChaosResume(t *testing.T) {
	prog := workloads.Generate(workloads.GenConfig{Seed: 11, Ops: 5, Files: 2, Dirs: 1, WithFsync: true})
	backend := "lustre"
	opts := paracrash.DefaultOptions()
	base := runEngine(t, backend, prog, paracrash.ModePruning)
	baseFP := exps.ReportFingerprint(base)

	const count = 3
	victim := 1 // the shard that gets chaos-killed
	reports := make([]*paracrash.ShardReport, count)
	for i := 0; i < count; i++ {
		if i == victim {
			continue
		}
		fs, err := exps.NewFS(backend, exps.ConfigFor(backend), trace.NewRecorder())
		if err != nil {
			t.Fatal(err)
		}
		sr, err := paracrash.RunShard(context.Background(), fs, nil, prog, opts, paracrash.ShardSpec{Index: i, Count: count})
		if err != nil {
			t.Fatal(err)
		}
		reports[i] = sr
	}

	path := filepath.Join(t.TempDir(), "ckpt-shard.jsonl")
	deadline := 2 * time.Millisecond
	kills := 0
	for attempt := 0; ; attempt++ {
		if attempt > 60 {
			t.Fatal("shard chaos run did not converge in 60 kill/resume rounds")
		}
		fs, err := exps.NewFS(backend, exps.ConfigFor(backend), trace.NewRecorder())
		if err != nil {
			t.Fatal(err)
		}
		ropts := opts
		ropts.Checkpoint = paracrash.OpenCheckpoint(path)
		ropts.Checkpoint.Every = 1

		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		sr, err := paracrash.RunShard(ctx, fs, nil, prog, ropts, paracrash.ShardSpec{Index: victim, Count: count})
		cancel()
		if err == nil {
			reports[victim] = sr
			break
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("chaos round %d died with a non-deadline error: %v", attempt, err)
		}
		kills++
		deadline += deadline / 2
	}

	merged := mergeShards(t, backend, prog, opts, reports)
	if mf := exps.ReportFingerprint(merged); mf != baseFP {
		t.Errorf("chaos-resumed shard merge differs after %d kills:\n--- standalone ---\n%s--- fleet ---\n%s", kills, baseFP, mf)
	} else {
		t.Logf("survived %d mid-shard kills", kills)
	}
}

// TestShardCheckpointScoping: a shard journal must not resume into a
// different shard of the partition (the fingerprint carries the shard spec),
// so a reclaiming worker can never poison its shard with a neighbour's
// frontier.
func TestShardCheckpointScoping(t *testing.T) {
	prog := workloads.Generate(workloads.GenConfig{Seed: 11, Ops: 4, Files: 2, Dirs: 1, WithFsync: true})
	backend := "lustre"
	opts := paracrash.DefaultOptions()
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")

	run := func(index int) *paracrash.Checkpoint {
		t.Helper()
		fs, err := exps.NewFS(backend, exps.ConfigFor(backend), trace.NewRecorder())
		if err != nil {
			t.Fatal(err)
		}
		ropts := opts
		ropts.Checkpoint = paracrash.OpenCheckpoint(path)
		ropts.Checkpoint.Every = 1
		if _, err := paracrash.RunShard(context.Background(), fs, nil, prog, ropts, paracrash.ShardSpec{Index: index, Count: 2}); err != nil {
			t.Fatal(err)
		}
		return ropts.Checkpoint
	}

	first := run(0)
	if first.Resumed() != 0 {
		t.Fatalf("fresh shard run resumed %d verdicts", first.Resumed())
	}
	cross := run(1)
	if cross.Resumed() != 0 {
		t.Errorf("shard 1 resumed %d verdicts from shard 0's journal", cross.Resumed())
	}
	again := run(1)
	if again.Resumed() == 0 {
		t.Error("shard 1 did not resume its own journal")
	}
}
