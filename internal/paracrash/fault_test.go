package paracrash_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"paracrash/internal/exps"
	"paracrash/internal/faultinject"
	"paracrash/internal/obs"
	"paracrash/internal/paracrash"
	"paracrash/internal/workloads"
)

// runWithOpts runs one beegfs/ARVR cell through exps and fingerprints the
// report, so faulted and checkpointed runs compare against the plain ones.
func runWithOpts(t *testing.T, ctx context.Context, opts paracrash.Options) (string, error) {
	t.Helper()
	prog, err := exps.ProgramByName("ARVR")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := exps.RunOneContext(ctx, "beegfs", prog, opts, workloads.DefaultH5Params(), exps.ConfigFor("beegfs"))
	if err != nil {
		return "", err
	}
	return exps.ReportFingerprint(rep), nil
}

// TestFaultTransparency is the harness's headline property: with bounded
// per-point fault quotas (the default MaxPerPoint=1) and the default retry
// policy, injected faults are fully transparent — every mode and worker
// count reproduces the unfaulted report byte-for-byte, serial or parallel,
// because fault decisions are schedule-independent and retries heal them.
func TestFaultTransparency(t *testing.T) {
	type cell struct {
		mode    paracrash.Mode
		workers int
	}
	cells := []cell{
		{paracrash.ModeBrute, 1},
		{paracrash.ModePruning, 1},
		{paracrash.ModePruning, 4},
	}
	var totalInjected int64
	for _, c := range cells {
		t.Run(c.mode.String()+"/workers="+itoa(c.workers), func(t *testing.T) {
			base := paracrash.DefaultOptions()
			base.Mode = c.mode
			base.Workers = c.workers
			baseFP, err := runWithOpts(t, nil, base)
			if err != nil {
				t.Fatal(err)
			}

			faulted := base
			// A fresh plan per run: quotas are per-plan state, and reusing a
			// plan across runs would change the second run's fault weather.
			plan := faultinject.New(faultinject.Config{Seed: 99, Rate: 0.3})
			faulted.Faults = plan
			faultedFP, err := runWithOpts(t, nil, faulted)
			if err != nil {
				t.Fatalf("faulted run errored instead of healing: %v", err)
			}
			totalInjected += plan.Injected()
			if faultedFP != baseFP {
				t.Errorf("faulted report differs from unfaulted baseline:\n--- base ---\n%s--- faulted ---\n%s", baseFP, faultedFP)
			}
		})
	}
	if totalInjected == 0 {
		t.Fatal("no faults were injected across any cell; the transparency test is vacuous")
	}
	t.Logf("healed %d injected faults across %d cells", totalInjected, len(cells))
}

// TestHardFaultsQuarantine models a fault that never heals: an unbounded
// quota on the reconstruction site. The run must complete without error,
// quarantining the poisoned states as Skipped instead of aborting.
func TestHardFaultsQuarantine(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run("workers="+itoa(workers), func(t *testing.T) {
			prog, err := exps.ProgramByName("ARVR")
			if err != nil {
				t.Fatal(err)
			}
			opts := paracrash.DefaultOptions()
			opts.Workers = workers
			opts.Retry = paracrash.RetryPolicy{MaxAttempts: 2, Backoff: time.Microsecond}
			opts.Faults = faultinject.New(faultinject.Config{
				Seed: 1, Rate: 1, Kinds: []faultinject.Kind{faultinject.KindErr},
				Sites: []string{"pfs/apply"}, MaxPerPoint: 1 << 30,
			})
			rep, err := exps.RunOne("beegfs", prog, opts, workloads.DefaultH5Params(), exps.ConfigFor("beegfs"))
			if err != nil {
				t.Fatalf("hard faults aborted the run: %v", err)
			}
			if len(rep.Skipped) == 0 {
				t.Fatal("hard faults on pfs/apply produced no quarantined states")
			}
			for _, sk := range rep.Skipped {
				if sk.Reason == "" {
					t.Fatalf("quarantined state %v has no reason", sk.Victims)
				}
			}
			t.Logf("run completed with %d quarantined states", len(rep.Skipped))
		})
	}
}

// TestHardFaultsDeterministic: even a fully poisoned run is deterministic —
// serial and parallel explorations quarantine the same states and produce
// identical reports.
func TestHardFaultsDeterministic(t *testing.T) {
	run := func(workers int) string {
		opts := paracrash.DefaultOptions()
		opts.Workers = workers
		opts.Retry = paracrash.RetryPolicy{MaxAttempts: 2, Backoff: time.Microsecond}
		opts.Faults = faultinject.New(faultinject.Config{
			Seed: 5, Rate: 1, Kinds: []faultinject.Kind{faultinject.KindErr},
			Sites: []string{"pfs/apply"}, MaxPerPoint: 1 << 30,
		})
		fp, err := runWithOpts(t, nil, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return fp
	}
	serial, parallel := run(1), run(4)
	if serial != parallel {
		t.Errorf("poisoned runs diverge:\n--- serial ---\n%s--- workers=4 ---\n%s", serial, parallel)
	}
}

// TestCheckpointResumeIdentical: a second run over a completed journal must
// resume every verdict and still produce the identical report.
func TestCheckpointResumeIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	opts := paracrash.DefaultOptions()
	opts.Checkpoint = paracrash.OpenCheckpoint(path)
	first, err := runWithOpts(t, nil, opts)
	if err != nil {
		t.Fatal(err)
	}

	opts2 := paracrash.DefaultOptions()
	ckpt := paracrash.OpenCheckpoint(path)
	opts2.Checkpoint = ckpt
	second, err := runWithOpts(t, nil, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Errorf("resumed report differs:\n--- first ---\n%s--- resumed ---\n%s", first, second)
	}
	if ckpt.Resumed() == 0 {
		t.Fatal("second run resumed no verdicts from a complete journal")
	}
	if w := ckpt.Warnings(); len(w) != 0 {
		t.Fatalf("unexpected resume warnings: %v", w)
	}
	t.Logf("resumed %d verdicts", ckpt.Resumed())
}

// runARVR runs the beegfs/ARVR cell and returns the report.
func runARVR(t *testing.T, opts paracrash.Options) *paracrash.Report {
	t.Helper()
	prog, err := exps.ProgramByName("ARVR")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := exps.RunOne("beegfs", prog, opts, workloads.DefaultH5Params(), exps.ConfigFor("beegfs"))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCheckpointResumeMeasuresEffort: a run over a complete journal takes
// its verdicts from the journal, says so in StatesResumed, and does less
// physical work than the run that wrote it — the restores it reports are
// the ones it performed, not the ones a fresh walk would have.
func TestCheckpointResumeMeasuresEffort(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	opts := paracrash.DefaultOptions()
	opts.Checkpoint = paracrash.OpenCheckpoint(path)
	fresh := runARVR(t, opts)
	opts.Checkpoint = paracrash.OpenCheckpoint(path)
	resumed := runARVR(t, opts)

	if fresh.Stats.StatesResumed != 0 {
		t.Errorf("fresh run reports %d resumed verdicts", fresh.Stats.StatesResumed)
	}
	if resumed.Stats.StatesResumed == 0 {
		t.Error("resumed run reports no resumed verdicts")
	}
	if resumed.Stats.ServerRestores >= fresh.Stats.ServerRestores {
		t.Errorf("resumed run restored %d servers, fresh run %d: resuming saved no work",
			resumed.Stats.ServerRestores, fresh.Stats.ServerRestores)
	}
	if exps.ReportFingerprint(resumed) != exps.ReportFingerprint(fresh) {
		t.Error("resumed report differs from the fresh one")
	}
}

// TestParallelJournalsShardVerdicts: the shard of a Workers=2 run journals
// what it judges, as fleet shards do — a record for every state it judged
// on its own, not only the walk's one per class — and that journal resumes
// at any worker count to the serial report.
func TestParallelJournalsShardVerdicts(t *testing.T) {
	serial := exps.ReportFingerprint(runARVR(t, paracrash.DefaultOptions()))
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	opts := paracrash.DefaultOptions()
	opts.Workers = 2
	opts.Checkpoint = paracrash.OpenCheckpoint(path)
	opts.Checkpoint.Every = 1
	opts.Obs = obs.NewRun()
	runARVR(t, opts)
	judged := opts.Obs.Summary().Counters["worker/states/checked"]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	j, err := paracrash.ReadJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if judged == 0 || int64(len(j.Verdicts)) < judged {
		t.Fatalf("journal holds %d records; the shards judged %d states on their own", len(j.Verdicts), judged)
	}

	for _, workers := range []int{1, 4} {
		resume := filepath.Join(t.TempDir(), "ckpt.jsonl")
		if err := os.WriteFile(resume, data, 0o644); err != nil {
			t.Fatal(err)
		}
		opts := paracrash.DefaultOptions()
		opts.Workers = workers
		opts.Checkpoint = paracrash.OpenCheckpoint(resume)
		rep := runARVR(t, opts)
		if fp := exps.ReportFingerprint(rep); fp != serial {
			t.Errorf("workers=%d: resumed report differs from the serial one:\n--- serial ---\n%s--- resumed ---\n%s", workers, serial, fp)
		}
		if rep.Stats.StatesResumed == 0 {
			t.Errorf("workers=%d: resumed no verdicts from the Workers=2 journal", workers)
		}
	}
}

// TestCheckpointResumeAcrossRepresentative: a journal holding a record
// per state — what a run that judged every state on its own wrote, here the
// per-state reference — resumes into the engine, because check consults
// the class before the journal: the resumed run reproduces a fresh run.
func TestCheckpointResumeAcrossRepresentative(t *testing.T) {
	prog, err := exps.ProgramByName("ARVR")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	writer := paracrash.DefaultOptions()
	writer.Checkpoint = paracrash.OpenCheckpoint(path)
	fs, w, lib := emulatorCell(t, "beegfs", prog)
	if _, _, err := paracrash.ReferenceRun(fs, lib, w, writer); err != nil {
		t.Fatal(err)
	}

	reader := paracrash.DefaultOptions()
	fresh := runARVR(t, reader)
	ckpt := paracrash.OpenCheckpoint(path)
	reader.Checkpoint = ckpt
	got := runARVR(t, reader)
	if w := ckpt.Warnings(); len(w) != 0 || ckpt.Resumed() <= fresh.Stats.StatesChecked {
		t.Errorf("resumed %d verdicts (a fresh run checks %d states), warnings %v", ckpt.Resumed(), fresh.Stats.StatesChecked, w)
	}
	if fp, want := exps.ReportFingerprint(got), exps.ReportFingerprint(fresh); fp != want {
		t.Errorf("resumed report differs from a fresh run:\n--- fresh ---\n%s--- resumed ---\n%s", want, fp)
	}
}

// TestChaosResumeDeterminism is the `make chaos` gate: a run under random
// injected faults is repeatedly killed mid-flight (context deadline) and
// resumed from its checkpoint journal; the eventual report must be
// byte-identical to an uninterrupted, unfaulted run. Covers serial and
// parallel exploration.
func TestChaosResumeDeterminism(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run("workers="+itoa(workers), func(t *testing.T) {
			base := paracrash.DefaultOptions()
			base.Workers = workers
			baseFP, err := runWithOpts(t, nil, base)
			if err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(t.TempDir(), "ckpt.jsonl")
			deadline := 2 * time.Millisecond
			kills := 0
			var finalFP string
			var resumedTotal int
			for attempt := 0; ; attempt++ {
				if attempt > 60 {
					t.Fatal("chaos run did not converge in 60 kill/resume rounds")
				}
				opts := paracrash.DefaultOptions()
				opts.Workers = workers
				opts.Checkpoint = paracrash.OpenCheckpoint(path)
				opts.Checkpoint.Every = 1 // journal every verdict so each round makes progress
				// Same seed every round: each fresh plan replays the same
				// fault weather, which retries then heal.
				opts.Faults = faultinject.New(faultinject.Config{Seed: 7, Rate: 0.25})

				ctx, cancel := context.WithTimeout(context.Background(), deadline)
				fp, err := runWithOpts(t, ctx, opts)
				cancel()
				if err == nil {
					finalFP = fp
					resumedTotal = opts.Checkpoint.Resumed()
					break
				}
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("chaos round %d died with a non-deadline error: %v", attempt, err)
				}
				kills++
				deadline += deadline / 2 // back off so the run eventually finishes
			}
			if finalFP != baseFP {
				t.Errorf("chaos-resumed report differs from clean baseline after %d kills:\n--- base ---\n%s--- chaos ---\n%s",
					kills, baseFP, finalFP)
			}
			t.Logf("survived %d mid-run kills; final run resumed %d journaled verdicts", kills, resumedTotal)
		})
	}
}

// TestCancelMidMergeNoLeak cancels a latency-faulted parallel run
// — the faults stretch the merge window — and asserts all goroutines drain.
func TestCancelMidMergeNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	opts := paracrash.DefaultOptions()
	opts.Workers = 4
	opts.Faults = faultinject.New(faultinject.Config{
		Seed: 3, Rate: 1, Kinds: []faultinject.Kind{faultinject.KindLatency},
		MaxPerPoint: 1 << 30, Latency: time.Millisecond,
	})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := runWithOpts(t, ctx, opts)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond) // let workers start publishing to the merge
	cancel()

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want nil or context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run did not return")
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
