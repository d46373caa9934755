package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"paracrash/internal/hdf5"
)

// TestMain doubles the test binary as the CLI when the re-exec marker is
// set, so output and exit codes can be tested without building a separate
// binary.
func TestMain(m *testing.M) {
	if os.Getenv("PARACRASH_CLI_UNDER_TEST") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI re-executes the test binary as h5inspect with args and returns its
// exit code, stdout and stderr.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PARACRASH_CLI_UNDER_TEST=1")
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if exitErr, ok := err.(*exec.ExitError); ok {
		code = exitErr.ExitCode()
	} else if err != nil {
		t.Fatalf("running CLI: %v", err)
	}
	return code, stdout.String(), stderr.String()
}

// TestDemoImageObjectMap: with no argument the tool prints the object map of
// the built-in two-group image as valid JSON, one entry per library
// structure, both datasets among them.
func TestDemoImageObjectMap(t *testing.T) {
	code, stdout, stderr := runCLI(t)
	if code != 0 {
		t.Fatalf("exit code %d; stderr: %s", code, stderr)
	}
	var got []hdf5.ObjectExtent
	if err := json.Unmarshal([]byte(stdout), &got); err != nil {
		t.Fatalf("stdout is not a JSON object map: %v\n%s", err, stdout)
	}
	want, err := hdf5.Inspect(demoImage())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("got %d objects, want %d", len(got), len(want))
	}
	paths := map[string]bool{}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("object %d = %+v, want %+v", i, got[i], want[i])
		}
		paths[got[i].Path] = true
	}
	for _, p := range []string{"/", "/g1/d1", "/g2/d2"} {
		if !paths[p] {
			t.Errorf("object map has no entry for %s", p)
		}
	}
}

// TestCheckPrintsLogicalState: -check appends the h5check logical state,
// naming both datasets, after the object map.
func TestCheckPrintsLogicalState(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-check")
	if code != 0 {
		t.Fatalf("exit code %d; stderr: %s", code, stderr)
	}
	_, state, ok := strings.Cut(stdout, "\nh5check logical state:\n")
	if !ok {
		t.Fatalf("no logical-state section in:\n%s", stdout)
	}
	if want := hdf5.Parse(demoImage(), false).Serialize(); state != want {
		t.Errorf("logical state:\n%s\nwant:\n%s", state, want)
	}
	for _, p := range []string{"/g1/d1", "/g2/d2"} {
		if !strings.Contains(state, p) {
			t.Errorf("logical state does not name %s:\n%s", p, state)
		}
	}
}

// TestUnreadablePath: a path that cannot be read is exit 1 with the tool's
// prefix on stderr and nothing on stdout.
func TestUnreadablePath(t *testing.T) {
	code, stdout, stderr := runCLI(t, filepath.Join(t.TempDir(), "missing.h5"))
	if code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	if !strings.HasPrefix(stderr, "h5inspect:") {
		t.Errorf("stderr %q lacks the h5inspect: prefix", stderr)
	}
	if stdout != "" {
		t.Errorf("stdout not empty: %s", stdout)
	}
}
