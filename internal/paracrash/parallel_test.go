package paracrash_test

import (
	"regexp"
	"testing"

	"paracrash/internal/exps"
	"paracrash/internal/paracrash"
	"paracrash/internal/workloads"
)

// effortRE matches the effort line of Report.Format — legal-set sizes,
// restores, op replays and wall-clock time — the part of a report that
// legitimately differs between runs of one configuration.
var effortRE = regexp.MustCompile(`(?m)^legal states: .*$`)

// runFingerprinted runs one (program, file system) cell and returns both the
// structural fingerprint and the rendered report with effort masked.
func runFingerprinted(t *testing.T, fsName, progName string, mode paracrash.Mode, workers int) (string, string) {
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
	return exps.ReportFingerprint(rep), effortRE.ReplaceAllString(rep.Format(), "legal states: <effort>")
}

// TestParallelMatchesSerial is the parallel engine's contract: for every
// backend and a representative workload mix, a 4-worker exploration must
// produce a report identical to the serial engine's — same crash states, same
// bugs with the same dedup keys, same state counts, same rendered text modulo
// the effort line.
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
			name := fsName + "/" + c.prog + "/" + c.mode.String()
			t.Run(name, func(t *testing.T) {
				serialFP, serialTxt := runFingerprinted(t, fsName, c.prog, c.mode, 1)
				parFP, parTxt := runFingerprinted(t, fsName, c.prog, c.mode, 4)
				if serialFP != parFP {
					t.Errorf("fingerprint mismatch:\n--- serial ---\n%s--- workers=4 ---\n%s", serialFP, parFP)
				}
				if serialTxt != parTxt {
					t.Errorf("Format mismatch:\n--- serial ---\n%s--- workers=4 ---\n%s", serialTxt, parTxt)
				}
			})
		}
	}
}

// TestParallelDecodeMemos runs the two backends that memoise metadata
// decodes (gpfs blocks, orangefs DB pages) at Workers=2: every worker's
// clone keeps its own memo, so the run must be race-free under -race and
// report what the serial run reports.
func TestParallelDecodeMemos(t *testing.T) {
	for _, fsName := range []string{"gpfs", "orangefs"} {
		serialFP, _ := runFingerprinted(t, fsName, "ARVR", paracrash.ModeBrute, 1)
		if fp, _ := runFingerprinted(t, fsName, "ARVR", paracrash.ModeBrute, 2); fp != serialFP {
			t.Errorf("%s: Workers=2 fingerprint differs from serial", fsName)
		}
	}
}

// TestParallelWorkerCounts varies the worker count on one cell: any N must
// reproduce the serial report, including N far above the state count.
func TestParallelWorkerCounts(t *testing.T) {
	serialFP, _ := runFingerprinted(t, "beegfs", "ARVR", paracrash.ModeBrute, 1)
	for _, w := range []int{2, 3, 8, 64} {
		fp, _ := runFingerprinted(t, "beegfs", "ARVR", paracrash.ModeBrute, w)
		if fp != serialFP {
			t.Errorf("workers=%d: fingerprint differs from serial", w)
		}
	}
}
