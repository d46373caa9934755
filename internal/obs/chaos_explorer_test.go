package obs_test

import (
	"testing"
	"time"

	"paracrash/internal/exps"
	"paracrash/internal/obs"
	"paracrash/internal/paracrash"
	"paracrash/internal/workloads"
)

// wedgedSink blocks every write until released.
type wedgedSink struct{ release chan struct{} }

func (s *wedgedSink) WriteMetrics([]obs.Metric) error {
	<-s.release
	return nil
}

// TestChaosExplorerUnaffectedByWedgedSink is the end-to-end chaos claim:
// an exploration whose obs run feeds a router with a wedged sink and a
// fast sampling loop produces the identical verdict, in comparable time,
// to a run with no telemetry at all — the hot path never waits on a sink.
func TestChaosExplorerUnaffectedByWedgedSink(t *testing.T) {
	prog, err := exps.ProgramByName("ARVR")
	if err != nil {
		t.Fatal(err)
	}
	h5p := workloads.DefaultH5Params()

	baseOpts := paracrash.DefaultOptions()
	baseOpts.Mode = paracrash.ModePruning
	clean, err := exps.RunOne("beegfs", prog, baseOpts, h5p, exps.ConfigFor("beegfs"))
	if err != nil {
		t.Fatal(err)
	}

	run := obs.NewRun()
	router := obs.NewRouter()
	router.DrainTimeout = 50 * time.Millisecond
	router.Attach("chaos-job", run)
	wedged := &wedgedSink{release: make(chan struct{})}
	defer close(wedged.release)
	router.AddSink(wedged)
	router.Start(time.Millisecond) // aggressive sampling against the wedged sink

	opts := baseOpts
	opts.Obs = run
	start := time.Now()
	chaotic, err := exps.RunOne("beegfs", prog, opts, h5p, exps.ConfigFor("beegfs"))
	elapsed := time.Since(start)
	// Overflow the wedged sink's bounded queue deterministically: the run
	// itself may finish in a handful of sampling ticks.
	for i := 0; i < 16; i++ {
		router.Publish()
	}
	router.Close()
	if err != nil {
		t.Fatal(err)
	}

	if elapsed > 30*time.Second {
		t.Fatalf("exploration under a wedged sink took %v — telemetry stalled the hot path", elapsed)
	}
	if got, want := exps.ReportFingerprint(chaotic), exps.ReportFingerprint(clean); got != want {
		t.Fatalf("wedged-sink run changed the verdict:\n got %q\nwant %q", got, want)
	}
	if router.Dropped() == 0 {
		t.Fatal("sampling loop never dropped a batch despite a wedged sink — the non-blocking path was not exercised")
	}
}
