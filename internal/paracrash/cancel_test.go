package paracrash_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"paracrash/internal/paracrash"
	"paracrash/internal/pfs"
	"paracrash/internal/pfs/beegfs"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

// newCancelFS builds the ARVR/BeeGFS cell used by the cancellation tests.
func newCancelFS(t *testing.T) pfs.FileSystem {
	t.Helper()
	return beegfs.New(pfs.DefaultConfig(), trace.NewRecorder())
}

func TestRunContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := paracrash.RunContext(ctx, newCancelFS(t), nil, workloads.ARVR(), paracrash.DefaultOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunContextNilMatchesRun(t *testing.T) {
	opts := paracrash.DefaultOptions()
	want, err := paracrash.Run(newCancelFS(t), nil, workloads.ARVR(), opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := paracrash.RunContext(nil, newCancelFS(t), nil, workloads.ARVR(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Bugs) != len(want.Bugs) || got.Inconsistent != want.Inconsistent {
		t.Fatalf("paracrash.RunContext(nil) report (bugs=%d, inconsistent=%d) differs from Run (bugs=%d, inconsistent=%d)",
			len(got.Bugs), got.Inconsistent, len(want.Bugs), want.Inconsistent)
	}
}

// TestRunContextDeadline bounds a run by deadline: the run must return
// promptly with the deadline error (or nil when it beat the clock).
func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	opts := paracrash.DefaultOptions()
	opts.Mode = paracrash.ModeBrute
	opts.Emulator.K = 2
	start := time.Now()
	if _, err := paracrash.RunContext(ctx, newCancelFS(t), nil, workloads.ARVR(), opts); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want nil or context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline-bounded run took %v", elapsed)
	}
}
