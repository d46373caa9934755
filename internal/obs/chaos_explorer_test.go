package obs_test

import (
	"io"
	"testing"

	"paracrash/internal/exps"
	"paracrash/internal/obs"
	"paracrash/internal/paracrash"
	"paracrash/internal/workloads"
)

// TestChaosExplorerUnaffectedByScraping is the end-to-end passivity claim
// on the one telemetry path: an exploration whose run another goroutine
// scrapes in a tight loop (Router.Sample rendered as the /metrics
// exposition) produces the same report as a run nobody observes. The cell
// has both layers, so the scraper overlaps every phase of the pipeline.
func TestChaosExplorerUnaffectedByScraping(t *testing.T) {
	prog, err := exps.ProgramByName("H5-create")
	if err != nil {
		t.Fatal(err)
	}
	h5p := workloads.DefaultH5Params()

	baseOpts := paracrash.DefaultOptions()
	baseOpts.Mode = paracrash.ModeBrute
	clean, err := exps.RunOne("gpfs", prog, baseOpts, h5p, exps.ConfigFor("gpfs"))
	if err != nil {
		t.Fatal(err)
	}

	run := obs.NewRun()
	router := obs.NewRouter()
	router.Attach("chaos-job", run)
	scraping, stop, stopped := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for i := 0; ; i++ {
			if err := obs.WritePrometheus(io.Discard, router.Sample()); err != nil {
				t.Error(err)
			}
			if i == 0 {
				close(scraping)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	<-scraping // the scraper is looping before the exploration starts

	opts := baseOpts
	opts.Obs = run
	scraped, err := exps.RunOne("gpfs", prog, opts, h5p, exps.ConfigFor("gpfs"))
	close(stop)
	<-stopped
	if err != nil {
		t.Fatal(err)
	}
	if got, want := exps.ReportFingerprint(scraped), exps.ReportFingerprint(clean); got != want {
		t.Fatalf("scraped run changed the verdict:\n got %q\nwant %q", got, want)
	}
}
