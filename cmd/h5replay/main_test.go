package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"paracrash/internal/exps"
	"paracrash/internal/stack"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
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

// runCLI re-executes the test binary as h5replay with args and returns its
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

// recordTrace runs a paper program on a backend in-process and writes its
// trace, encoded by internal/trace, where `paracrash -dump-trace` would.
func recordTrace(t *testing.T, fsName, progName string) (string, []*trace.Op) {
	t.Helper()
	prog, err := exps.ProgramByName(progName)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := exps.Spec{FS: fsName, Program: prog, H5: workloads.DefaultH5Params(), Config: exps.ConfigFor(fsName)}.TraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	ops, err := trace.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, ops
}

func TestMissingTraceFlag(t *testing.T) {
	code, stdout, stderr := runCLI(t)
	if code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, "-trace is required") {
		t.Errorf("stderr %q does not ask for -trace", stderr)
	}
	if stdout != "" {
		t.Errorf("stdout not empty: %s", stdout)
	}
}

// TestNoLibraryOperations: a POSIX program's trace has nothing to replay.
func TestNoLibraryOperations(t *testing.T) {
	path, _ := recordTrace(t, "ext4", "ARVR")
	code, _, stderr := runCLI(t, "-trace", path)
	if code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	if !strings.Contains(stderr, "no library operations") {
		t.Errorf("stderr %q does not say the trace has no library operations", stderr)
	}
}

// TestReplayMatchesLibrary: the tool's output for an H5-create trace is the
// operation count and then exactly what stack.Library.Replay makes of the
// same operations over the same starting image.
func TestReplayMatchesLibrary(t *testing.T) {
	path, ops := recordTrace(t, "beegfs", "H5-create")
	libOps := trace.Filter(ops, func(o *trace.Op) bool { return o.Layer == trace.LayerIOLib })
	if len(libOps) == 0 {
		t.Fatal("H5-create recorded no library operations")
	}
	lib := stack.NewLibrary(stack.DialectHDF5, "/test.h5")
	lib.SeedImage(standardPreamble())
	state, err := lib.Replay(libOps)
	if err != nil {
		t.Fatal(err)
	}

	code, stdout, stderr := runCLI(t, "-trace", path)
	if code != 0 {
		t.Fatalf("exit code %d; stderr: %s", code, stderr)
	}
	if want := fmt.Sprintf("replayed %d library operations:\n%s", len(libOps), state); stdout != want {
		t.Errorf("stdout:\n%s\nwant:\n%s", stdout, want)
	}
	if !strings.Contains(stdout, "/g1/dnew") {
		t.Errorf("replayed state lacks the dataset H5-create adds:\n%s", stdout)
	}
}
