package paracrash_test

import (
	"testing"

	"paracrash/internal/exps"
	"paracrash/internal/paracrash"
	"paracrash/internal/workloads"
)

// runCell runs one (program, file system) cell with Options.Workers set to
// workers and returns the report.
func runCell(t *testing.T, fsName, progName string, mode paracrash.Mode, workers int) *paracrash.Report {
	t.Helper()
	prog, err := exps.ProgramByName(progName)
	if err != nil {
		t.Fatal(err)
	}
	opts := paracrash.DefaultOptions()
	opts.Mode = mode
	opts.Workers = workers
	rep, err := exps.RunOne(fsName, prog, opts, workloads.DefaultH5Params(), exps.ConfigFor(fsName))
	if err != nil {
		t.Fatalf("RunOne(%s on %s, workers=%d): %v", progName, fsName, workers, err)
	}
	return rep
}

// TestParallelMatchesSerial: a run that asks for parallel workers is the
// serial run. Options.Workers is accepted and ignored — exploration is
// serial, and parallelism is the fleet's — so on every backend and a
// representative workload mix, runs at Workers 0 (once one per CPU), 2, 4
// and 64 (far above some cells' state counts) produce the Workers=1
// report: the same ReportFingerprint and the same Stats, effort counts
// included, wall time aside.
func TestParallelMatchesSerial(t *testing.T) {
	type cell struct {
		prog string
		mode paracrash.Mode
	}
	cells := []cell{
		{"ARVR", paracrash.ModeBrute},
		{"ARVR", paracrash.ModePruning},
		{"WAL", paracrash.ModePruning},
		{"H5-create", paracrash.ModePruning},
	}
	for _, fsName := range exps.FSNames() {
		for _, c := range cells {
			t.Run(fsName+"/"+c.prog+"/"+c.mode.String(), func(t *testing.T) {
				serial := runCell(t, fsName, c.prog, c.mode, 1)
				serial.Stats.Duration = 0
				for _, workers := range []int{0, 2, 4, 64} {
					rep := runCell(t, fsName, c.prog, c.mode, workers)
					if fp, want := exps.ReportFingerprint(rep), exps.ReportFingerprint(serial); fp != want {
						t.Errorf("workers=%d: fingerprint differs:\n--- workers=1 ---\n%s--- workers=%d ---\n%s", workers, want, workers, fp)
					}
					if rep.Stats.Duration = 0; rep.Stats != serial.Stats {
						t.Errorf("workers=%d: stats %+v, workers=1 %+v", workers, rep.Stats, serial.Stats)
					}
				}
			})
		}
	}
}
