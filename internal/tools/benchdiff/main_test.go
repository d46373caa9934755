package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchdiff executable:
// when the marker variable is set, the process runs benchdiff's real entry
// point instead of the test suite, so tests can verify actual exit codes
// by re-executing themselves.
func TestMain(m *testing.M) {
	if os.Getenv("PARACRASH_BENCHDIFF_UNDER_TEST") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// execBenchdiff re-executes the test binary as benchdiff with the given
// args and returns the combined output and exit code.
func execBenchdiff(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PARACRASH_BENCHDIFF_UNDER_TEST=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	exitErr, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("re-exec benchdiff: %v\n%s", err, out)
	}
	return string(out), exitErr.ExitCode()
}

// cell builds one synthetic record JSON fragment in the shape files written
// before the "incremental" knob was retired carry (the committed baselines).
func cell(prog, fs, mode string, workers int, sps, rps float64) string {
	return fmt.Sprintf(`{"program":%q,"fs":%q,"mode":%q,"workers":%d,"representative":true,"incremental":true,"states_per_sec":%g,"restores_per_state":%g}`,
		prog, fs, mode, workers, sps, rps)
}

// writeSummary writes a synthetic BENCH_*.json with the given record
// fragments and returns its path.
func writeSummary(t *testing.T, dir, name string, records ...string) string {
	t.Helper()
	doc := `{"generated_at":"2026-01-01T00:00:00Z","records":[` + strings.Join(records, ",") + `]}`
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGateFixtures(t *testing.T) {
	baselineCells := []string{
		cell("ARVR", "beegfs", "brute-force", 1, 1000, 0.5),
		cell("CR", "ext4", "pruning", 1, 2000, 1.0),
	}
	cases := []struct {
		name     string
		newCells []string
		args     []string
		wantExit int
		wantOut  string // substring of combined output
	}{
		{
			name: "within tolerance passes",
			newCells: []string{
				cell("ARVR", "beegfs", "brute-force", 1, 950, 0.5),
				cell("CR", "ext4", "pruning", 1, 1900, 1.05),
			},
			wantExit: 0,
			wantOut:  "no cell regressed",
		},
		{
			name: "states_per_sec regression fails",
			newCells: []string{
				cell("ARVR", "beegfs", "brute-force", 1, 700, 0.5), // -30% > 20% tolerance
				cell("CR", "ext4", "pruning", 1, 2000, 1.0),
			},
			wantExit: 1,
			wantOut:  "FAIL: ARVR/beegfs/brute-force/workers=1/rep=true states_per_sec",
		},
		{
			name: "restores_per_state increase fails",
			newCells: []string{
				cell("ARVR", "beegfs", "brute-force", 1, 1000, 0.8), // +60% restores
				cell("CR", "ext4", "pruning", 1, 2000, 1.0),
			},
			wantExit: 1,
			wantOut:  "restores_per_state",
		},
		{
			name: "improvement passes",
			newCells: []string{
				cell("ARVR", "beegfs", "brute-force", 1, 5000, 0.1),
				cell("CR", "ext4", "pruning", 1, 9000, 0.2),
			},
			wantExit: 0,
			wantOut:  "no cell regressed",
		},
		{
			name: "new cell is a note, not a violation",
			newCells: []string{
				cell("ARVR", "beegfs", "brute-force", 1, 1000, 0.5),
				cell("CR", "ext4", "pruning", 1, 2000, 1.0),
				cell("WAL", "glusterfs", "pruning", 1, 3000, 0.3),
			},
			wantExit: 0,
			wantOut:  "note: new cell WAL/glusterfs/pruning/workers=1/rep=true",
		},
		{
			name: "missing cell fails the gate",
			newCells: []string{
				cell("ARVR", "beegfs", "brute-force", 1, 1000, 0.5),
			},
			wantExit: 1,
			wantOut:  "FAIL: cell CR/ext4/pruning/workers=1/rep=true missing",
		},
		{
			name: "declared subset tolerates missing cells",
			newCells: []string{
				cell("ARVR", "beegfs", "brute-force", 1, 1000, 0.5),
			},
			args:     []string{"-subset", "fast"},
			wantExit: 0,
			wantOut:  `not in the "fast" subset`,
		},
		{
			name: "subset still gates the cells it has",
			newCells: []string{
				cell("ARVR", "beegfs", "brute-force", 1, 100, 0.5),
			},
			args:     []string{"-subset", "fast"},
			wantExit: 1,
			wantOut:  "states_per_sec",
		},
		{
			name: "wider tolerance forgives the regression",
			newCells: []string{
				cell("ARVR", "beegfs", "brute-force", 1, 700, 0.5),
				cell("CR", "ext4", "pruning", 1, 2000, 1.0),
			},
			args:     []string{"-max-regress", "0.5"},
			wantExit: 0,
			wantOut:  "no cell regressed",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			base := writeSummary(t, dir, "BENCH_0001.json", baselineCells...)
			fresh := writeSummary(t, dir, "fresh.json", tc.newCells...)
			args := append([]string{"-gate", "-baseline", base}, tc.args...)
			args = append(args, fresh)
			out, code := execBenchdiff(t, args...)
			if code != tc.wantExit {
				t.Fatalf("exit = %d, want %d\noutput:\n%s", code, tc.wantExit, out)
			}
			if !strings.Contains(out, tc.wantOut) {
				t.Fatalf("output missing %q:\n%s", tc.wantOut, out)
			}
		})
	}
}

// TestGateAcrossRetiredIncrementalField: fresh records no longer carry
// "incremental", committed baselines do. A fresh cell must still pair with
// its pre-change baseline cell — pass within tolerance, fail on a regression
// — and the baseline's retired full-restore cell must not count as missing.
func TestGateAcrossRetiredIncrementalField(t *testing.T) {
	fresh := func(sps float64) string {
		return fmt.Sprintf(`{"program":"ARVR","fs":"beegfs","mode":"brute-force","workers":1,"representative":true,"states_per_sec":%g,"restores_per_state":0.5}`, sps)
	}
	legacy := `{"program":"ARVR","fs":"beegfs","mode":"brute-force","workers":1,"representative":true,"incremental":false,"states_per_sec":300,"restores_per_state":5}`
	for _, tc := range []struct {
		name     string
		sps      float64
		wantExit int
		wantOut  string
	}{
		{"matches", 950, 0, "no cell regressed"},
		{"regression still fails", 700, 1, "FAIL: ARVR/beegfs/brute-force/workers=1/rep=true states_per_sec"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			base := writeSummary(t, dir, "BENCH_0001.json", legacy, cell("ARVR", "beegfs", "brute-force", 1, 1000, 0.5))
			out, code := execBenchdiff(t, "-gate", "-baseline", base, writeSummary(t, dir, "fresh.json", fresh(tc.sps)))
			if code != tc.wantExit || !strings.Contains(out, tc.wantOut) {
				t.Fatalf("exit = %d, want %d with %q\noutput:\n%s", code, tc.wantExit, tc.wantOut, out)
			}
			if strings.Contains(out, "note: new cell") || strings.Contains(out, "missing") {
				t.Fatalf("fresh cell did not pair with its baseline cell:\n%s", out)
			}
		})
	}
}

func TestWarnModeNeverFails(t *testing.T) {
	dir := t.TempDir()
	base := writeSummary(t, dir, "BENCH_0001.json",
		cell("ARVR", "beegfs", "brute-force", 1, 1000, 0.5))
	fresh := writeSummary(t, dir, "fresh.json",
		cell("ARVR", "beegfs", "brute-force", 1, 100, 5.0)) // massive regression
	out, code := execBenchdiff(t, "-baseline", base, fresh)
	if code != 0 {
		t.Fatalf("warn mode exit = %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "WARN:") {
		t.Fatalf("warn mode output missing WARN:\n%s", out)
	}
}

func TestUsageAndIOErrorsExit2(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		args []string
	}{
		{"no positional arg", []string{"-gate"}},
		{"two positional args", []string{"a.json", "b.json"}},
		{"negative tolerance", []string{"-max-regress", "-1", "x.json"}},
		{"missing new file", []string{"-baseline", filepath.Join(dir, "nope.json"), filepath.Join(dir, "also-nope.json")}},
		{"unknown flag", []string{"-bogus", "x.json"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, code := execBenchdiff(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit = %d, want 2\n%s", code, out)
			}
		})
	}
}

func TestLatestBaselineDiscovery(t *testing.T) {
	dir := t.TempDir()
	writeSummary(t, dir, "BENCH_0001.json", cell("ARVR", "beegfs", "brute-force", 1, 500, 0.5))
	writeSummary(t, dir, "BENCH_0002.json", cell("ARVR", "beegfs", "brute-force", 1, 1000, 0.5))
	fresh := writeSummary(t, dir, "BENCH_0003.json", cell("ARVR", "beegfs", "brute-force", 1, 990, 0.5))
	out, code := execBenchdiff(t, "-gate", "-dir", dir, fresh)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out)
	}
	// Must have compared against 0002 (the latest other), not 0001: vs 0001
	// the fresh run would be +98%, vs 0002 it is -1%.
	if !strings.Contains(out, "BENCH_0002.json") {
		t.Fatalf("baseline was not the latest committed file:\n%s", out)
	}
}

func TestNoBaselinePasses(t *testing.T) {
	dir := t.TempDir()
	fresh := writeSummary(t, dir, "BENCH_0001.json", cell("ARVR", "beegfs", "brute-force", 1, 1000, 0.5))
	out, code := execBenchdiff(t, "-gate", "-dir", dir, fresh)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "nothing to compare") {
		t.Fatalf("output missing no-baseline note:\n%s", out)
	}
}

// writeSummaryFleet writes a synthetic BENCH_*.json carrying a fleet cell
// alongside one engine record.
func writeSummaryFleet(t *testing.T, dir, name, fleet string, records ...string) string {
	t.Helper()
	doc := `{"generated_at":"2026-01-01T00:00:00Z","records":[` + strings.Join(records, ",") + `],"fleet":` + fleet + `}`
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// fleetCell builds a synthetic fleet record fragment.
func fleetCell(workers, tenants, shards int, jps float64) string {
	return fmt.Sprintf(`{"workers":%d,"tenants":%d,"shards":%d,"jobs_per_sec":%g}`, workers, tenants, shards, jps)
}

func TestFleetCellGate(t *testing.T) {
	rec := cell("ARVR", "beegfs", "brute-force", 1, 1000, 0.5)

	t.Run("baseline without fleet cell passes", func(t *testing.T) {
		dir := t.TempDir()
		writeSummary(t, dir, "BENCH_0001.json", rec)
		fresh := writeSummaryFleet(t, dir, "BENCH_0002.json", fleetCell(3, 2, 2, 50), rec)
		out, code := execBenchdiff(t, "-gate", "-dir", dir, fresh)
		if code != 0 {
			t.Fatalf("exit = %d, want 0\n%s", code, out)
		}
		if !strings.Contains(out, "new fleet cell") {
			t.Fatalf("output missing new-fleet note:\n%s", out)
		}
	})

	t.Run("fleet throughput regression fails the gate", func(t *testing.T) {
		dir := t.TempDir()
		writeSummaryFleet(t, dir, "BENCH_0001.json", fleetCell(3, 2, 2, 100), rec)
		fresh := writeSummaryFleet(t, dir, "BENCH_0002.json", fleetCell(3, 2, 2, 40), rec)
		out, code := execBenchdiff(t, "-gate", "-max-regress", "0.5", "-dir", dir, fresh)
		if code != 1 {
			t.Fatalf("exit = %d, want 1\n%s", code, out)
		}
		if !strings.Contains(out, "fleet jobs_per_sec") {
			t.Fatalf("output missing fleet violation:\n%s", out)
		}
	})

	t.Run("reshaped fleet is not compared", func(t *testing.T) {
		dir := t.TempDir()
		writeSummaryFleet(t, dir, "BENCH_0001.json", fleetCell(3, 2, 2, 100), rec)
		fresh := writeSummaryFleet(t, dir, "BENCH_0002.json", fleetCell(8, 4, 4, 10), rec)
		out, code := execBenchdiff(t, "-gate", "-dir", dir, fresh)
		if code != 0 {
			t.Fatalf("exit = %d, want 0\n%s", code, out)
		}
		if !strings.Contains(out, "reshaped") {
			t.Fatalf("output missing reshape note:\n%s", out)
		}
	})

	t.Run("dropped fleet cell fails the gate", func(t *testing.T) {
		dir := t.TempDir()
		writeSummaryFleet(t, dir, "BENCH_0001.json", fleetCell(3, 2, 2, 100), rec)
		fresh := writeSummary(t, dir, "BENCH_0002.json", rec)
		out, code := execBenchdiff(t, "-gate", "-dir", dir, fresh)
		if code != 1 {
			t.Fatalf("exit = %d, want 1\n%s", code, out)
		}
	})
}
