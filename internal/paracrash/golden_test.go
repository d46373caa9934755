package paracrash_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"paracrash/internal/exps"
	"paracrash/internal/paracrash"
	"paracrash/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with the current output")

// goldenModes are the two exploration strategies every golden cell runs.
var goldenModes = []paracrash.Mode{paracrash.ModeBrute, paracrash.ModePruning}

// TestIncrementalGoldenFingerprints pins the report of every cell of the
// differential matrix (6 backends × incrementalPrograms × 2 modes), plus
// H5-create on every backend so the top-down library branch of the verdict
// is covered: the ReportFingerprint hash (verdicts and state
// counts) and the measured restores and op replays on every line. A hash
// diff means report bytes moved; an effort diff means the engine does
// different work, which a change must name beforehand.
func TestIncrementalGoldenFingerprints(t *testing.T) {
	h5, err := exps.ProgramByName("H5-create")
	if err != nil {
		t.Fatal(err)
	}
	progs := incrementalPrograms(t)
	var buf bytes.Buffer
	for _, backend := range exps.FSNames() {
		for _, mode := range goldenModes {
			for _, prog := range progs {
				rep := runEngine(t, backend, prog, mode)
				goldenLine(&buf, backend, prog.Name(), mode, rep)
			}
			opts := paracrash.DefaultOptions()
			opts.Mode = mode
			rep, err := exps.RunOne(backend, h5, opts, workloads.DefaultH5Params(), exps.ConfigFor(backend))
			if err != nil {
				t.Fatalf("%s/%s: %v", backend, h5.Name, err)
			}
			goldenLine(&buf, backend, h5.Name, mode, rep)
		}
	}

	golden := filepath.Join("testdata", "fingerprints.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/paracrash -run TestIncrementalGoldenFingerprints -update` to create it)", err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Errorf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("report fingerprints drifted from %s (%d lines, golden has %d)", golden, len(gl), len(wl))
	}
}

// goldenLine writes one cell: the ReportFingerprint hash and the effort
// counts. Cell names end in "/workers=1", as the committed lines do.
func goldenLine(buf *bytes.Buffer, backend, prog string, mode paracrash.Mode, rep *paracrash.Report) {
	fmt.Fprintf(buf, "%s/%s/%s/workers=1 %x restores=%d replayed=%d\n", backend, prog, mode,
		sha256.Sum256([]byte(exps.ReportFingerprint(rep))), rep.Stats.ServerRestores, rep.Stats.OpsReplayed)
}
