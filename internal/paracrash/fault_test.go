package paracrash_test

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"paracrash/internal/exps"
	"paracrash/internal/paracrash"
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

// runWithOpts runs one beegfs/ARVR cell through exps and fingerprints the
// report, so checkpointed and interrupted runs compare against the plain
// ones.
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

// panicOnStorage1 wraps fs so that every apply on BeeGFS's second storage
// server panics: a hard fault that never heals.
func panicOnStorage1(fs pfs.FileSystem) pfs.FileSystem {
	return paracrash.PanicOnApply(fs, func(op *trace.Op) bool { return op.Proc == "storage/1" })
}

// runARVROn runs the beegfs/ARVR cell on its backend as wrap wraps it.
func runARVROn(t *testing.T, ctx context.Context, wrap func(pfs.FileSystem) pfs.FileSystem, opts paracrash.Options) (*paracrash.Report, error) {
	t.Helper()
	prog, err := exps.ProgramByName("ARVR")
	if err != nil {
		t.Fatal(err)
	}
	fs, w, lib := emulatorCell(t, "beegfs", prog)
	return paracrash.RunContext(ctx, wrap(fs), lib, w, opts)
}

// TestHardFaultsQuarantine runs on a backend whose every apply on one
// server panics. The run must complete without error, quarantining each
// state that needs that server's ops as Skipped at its first attempt, with
// the server and the panic text in its reason, and judging the rest. Its
// one subtest pins Options.Workers at 1, which every value now equals.
func TestHardFaultsQuarantine(t *testing.T) {
	t.Run("workers=1", func(t *testing.T) {
		opts := paracrash.DefaultOptions()
		opts.Workers = 1
		rep, err := runARVROn(t, context.Background(), panicOnStorage1, opts)
		if err != nil {
			t.Fatalf("a panicking backend aborted the run: %v", err)
		}
		if len(rep.Skipped) == 0 {
			t.Fatal("panics applying storage/1 ops quarantined no state")
		}
		if judged := rep.Stats.StatesChecked + rep.Stats.StatesDeduped; judged <= len(rep.Skipped) {
			t.Fatalf("%d states judged, all %d quarantined: the test needs states on both sides", judged, len(rep.Skipped))
		}
		const prefix = "quarantined: panic applying ops on storage/1: backend bug applying "
		for _, sk := range rep.Skipped {
			if !strings.HasPrefix(sk.Reason, prefix) {
				t.Fatalf("quarantined state %v has reason %q, want prefix %q", sk.Victims, sk.Reason, prefix)
			}
		}
		t.Logf("run completed with %d quarantined states", len(rep.Skipped))
	})
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

// TestChaosResumeDeterminism is the `make chaos` gate: a run is repeatedly
// killed mid-flight (context deadline) and resumed from its checkpoint
// journal; the eventual report must be byte-identical to an uninterrupted
// run. Its one subtest pins Options.Workers at 1, which every value now
// equals.
func TestChaosResumeDeterminism(t *testing.T) {
	t.Run("workers=1", func(t *testing.T) {
		base := paracrash.DefaultOptions()
		base.Workers = 1
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
			opts.Workers = 1
			opts.Checkpoint = paracrash.OpenCheckpoint(path)
			opts.Checkpoint.Every = 1 // journal every verdict so each round makes progress

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
