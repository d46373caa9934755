package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"paracrash/internal/exps"
	"paracrash/internal/obs"
	core "paracrash/internal/paracrash"
	"paracrash/internal/serve"
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

// runCLI re-executes the test binary as the paracrash CLI with args and
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

// TestCLIFlagValidation checks that every invalid knob reaches stderr
// with exit code 2.
func TestCLIFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantMsg string
	}{
		{"zero k", []string{"-k", "0"}, "-k must be >= 1"},
		{"negative servers", []string{"-servers", "-4"}, "-servers must be >= 0"},
		{"negative stripe", []string{"-stripe", "-8"}, "-stripe must be >= 0"},
		{"zero clients", []string{"-clients", "0"}, "-clients must be >= 1"},
		{"too many clients", []string{"-program", "H5-parallel-create", "-clients", "17"}, "-clients must be <= 16"},
		{"negative rows", []string{"-program", "H5-resize", "-rows", "-1"}, "-rows must be >= 0"},
		{"negative cols", []string{"-program", "H5-resize", "-cols", "-1"}, "-cols must be >= 0"},
		{"negative resize rows", []string{"-program", "H5-resize", "-resize-rows", "-3"}, "-resize-rows must be >= 0"},
		{"negative resize cols", []string{"-program", "H5-resize", "-resize-cols", "-2"}, "-resize-cols must be >= 0"},
		{"unknown program", []string{"-program", "NOPE"}, "unknown program"},
		{"unknown mode", []string{"-fs", "ext4", "-program", "CR", "-mode", "bogus"}, "unknown mode"},
		{"retired optimized mode", []string{"-fs", "ext4", "-program", "CR", "-mode", "optimized"}, `mode "optimized" is retired`},
		{"unknown model", []string{"-fs", "ext4", "-program", "CR", "-pfs-model", "bogus"}, "unknown"},
		{"unknown flag", []string{"-definitely-not-a-flag"}, "flag provided but not defined"},
		{"positional args", []string{"stray", "args"}, "unexpected arguments"},
		{"remote with local-only flag", []string{"-remote", "localhost:1", "-servers", "8"}, "local-only"},
		// The four fault-plane flags are removed: any use of them, local or
		// beside -remote, is refused as an undefined flag.
		{"negative retries", []string{"-retries", "-1"}, "flag provided but not defined: -retries"},
		{"negative retry backoff", []string{"-retry-backoff", "-5ms"}, "flag provided but not defined: -retry-backoff"},
		{"malformed retry backoff", []string{"-retry-backoff", "soon"}, "flag provided but not defined: -retry-backoff"},
		{"fault rate above one", []string{"-fault-rate", "1.5"}, "flag provided but not defined: -fault-rate"},
		{"negative fault rate", []string{"-fault-rate", "-0.1"}, "flag provided but not defined: -fault-rate"},
		{"malformed fault rate", []string{"-fault-rate", "often"}, "flag provided but not defined: -fault-rate"},
		{"remote with fault rate", []string{"-remote", "localhost:1", "-fault-rate", "0.5"}, "flag provided but not defined: -fault-rate"},
		{"remote with retries", []string{"-remote", "localhost:1", "-retries", "2"}, "flag provided but not defined: -retries"},
		{"remote with retry-backoff", []string{"-remote", "localhost:1", "-retry-backoff", "5ms"}, "flag provided but not defined: -retry-backoff"},
		{"remote with fault-seed", []string{"-remote", "localhost:1", "-fault-seed", "7"}, "flag provided but not defined: -fault-seed"},
		{"remote with resume", []string{"-remote", "localhost:1", "-resume", "ckpt.jsonl"}, "local-only"},
		{"retired no-representative flag", []string{"-no-representative"}, "flag provided but not defined"},
		{"retired representative flag", []string{"-representative=false"}, "flag provided but not defined"},
		{"remote with metrics", []string{"-remote", "localhost:1", "-metrics", "out.json"}, "local-only"},
		{"remote with progress", []string{"-remote", "localhost:1", "-progress"}, "local-only"},
		{"remote with progress-jsonl", []string{"-remote", "localhost:1", "-progress-jsonl", "p.jsonl"}, "local-only"},
		{"remote with pprof", []string{"-remote", "localhost:1", "-pprof", "localhost:0"}, "local-only"},
		{"retired sink flag", []string{"-sink", "stdout"}, "flag provided but not defined: -sink"},
		{"one server on beegfs", []string{"-fs", "beegfs", "-program", "ARVR", "-servers", "1"}, "-servers must be >= 2"},
		{"one server on orangefs", []string{"-fs", "orangefs", "-program", "ARVR", "-servers", "1"}, "-servers must be >= 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit code %d, want 2; stderr: %s", code, stderr)
			}
			if !strings.Contains(stderr, tc.wantMsg) {
				t.Fatalf("stderr %q does not contain %q", stderr, tc.wantMsg)
			}
		})
	}
}

// TestCLICleanRun keeps the zero-exit path honest: a valid local run on
// the clean ext4/CR cell exits 0 and reports its classes.
func TestCLICleanRun(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-fs", "ext4", "-program", "CR")
	if code != 0 {
		t.Fatalf("exit code %d, want 0; stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "\nrepresentative: ") {
		t.Fatalf("no class line printed:\n%s", stdout)
	}
}

// TestCLIResume runs the same cell twice against one checkpoint journal:
// both runs exit 0 and the second reports the verdicts it resumed.
func TestCLIResume(t *testing.T) {
	ckpt := t.TempDir() + "/ckpt.jsonl"
	args := []string{"-fs", "ext4", "-program", "CR", "-resume", ckpt}
	code, _, stderr := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("first run exit code %d; stderr: %s", code, stderr)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("first run left no checkpoint journal: %v", err)
	}
	code, _, stderr = runCLI(t, args...)
	if code != 0 {
		t.Fatalf("second run exit code %d; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "resumed") || strings.Contains(stderr, "resumed 0 verdicts") {
		t.Fatalf("second run did not report resumed verdicts; stderr: %s", stderr)
	}
}

// TestCapWarnings: each cap the emulator flags becomes one line naming it;
// an uncapped run says nothing.
func TestCapWarnings(t *testing.T) {
	cfg := core.DefaultOptions().Emulator
	run := obs.NewRun()
	if w := capWarnings(run, cfg); len(w) != 0 {
		t.Fatalf("uncapped run warned: %q", w)
	}
	run.Counter("emulate/states-capped").Inc()
	if w := capWarnings(run, cfg); len(w) != 1 || !strings.Contains(w[0], "MaxStates=200000") {
		t.Fatalf("states cap: %q", w)
	}
	run.Counter("emulate/fronts-capped").Inc()
	if w := capWarnings(run, cfg); len(w) != 2 || !strings.Contains(w[1], "MaxFronts=20000") {
		t.Fatalf("both caps: %q", w)
	}
}

// TestExitCode: bugs exit 1 whether or not states were quarantined; a run
// without bugs exits 3 when it quarantined a state and 0 otherwise.
func TestExitCode(t *testing.T) {
	skipped := []core.SkippedState{{Reason: "quarantined: panic"}}
	bugs := []*core.Bug{{}}
	for _, tc := range []struct {
		rep  core.Report
		want int
	}{
		{core.Report{}, 0},
		{core.Report{Bugs: bugs}, 1},
		{core.Report{Bugs: bugs, Skipped: skipped}, 1},
		{core.Report{Skipped: skipped}, 3},
	} {
		if got := exitCode(&tc.rep); got != tc.want {
			t.Errorf("%d bugs, %d quarantined: exit %d, want %d", len(tc.rep.Bugs), len(tc.rep.Skipped), got, tc.want)
		}
	}
}

// parseArgs resolves a command line in-process, as main does.
func parseArgs(args ...string) (*invocation, error) {
	fl := flag.NewFlagSet("paracrash", flag.ContinueOnError)
	fl.SetOutput(io.Discard)
	inv := newInvocation(fl)
	if err := fl.Parse(args); err != nil {
		return nil, err
	}
	return inv, inv.resolve(fl)
}

// TestRequestSameLocalAndRemote: one command line builds one job request,
// with or without -remote, and the local run executes the spec the daemon
// would assemble from it, or both refuse the command line. A zero H5 knob
// means the default on both paths: -rows 0 traces the default workload.
func TestRequestSameLocalAndRemote(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-fs", "beegfs", "-program", "H5-resize", "-rows", "0"},
		{"-fs", "lustre", "-program", "H5-resize", "-resize-rows", "10", "-resize-cols", "10", "-mode", "brute", "-k", "2"},
		{"-fs", "gpfs", "-program", "CDF-create", "-pfs-model", "commit", "-lib-model", "causal"},
		{"-program", "H5-parallel-create", "-clients", "4", "-cols", "0"},
		{"-k", "0"},
		{"-clients", "0"},
		{"-rows", "-1"},
		{"-program", "NOPE"},
	} {
		local, lerr := parseArgs(args...)
		remote, rerr := parseArgs(append(args, "-remote", "localhost:1")...)
		if (lerr == nil) != (rerr == nil) {
			t.Errorf("%v: local error %v, remote error %v", args, lerr, rerr)
			continue
		}
		if lerr != nil {
			if lerr.Error() != rerr.Error() {
				t.Errorf("%v: refused as %q locally, %q remotely", args, lerr, rerr)
			}
			continue
		}
		if local.req != remote.req {
			t.Errorf("%v: local request %+v, remote request %+v", args, local.req, remote.req)
			continue
		}
		daemon, err := remote.req.Spec()
		if err != nil {
			t.Fatal(err)
		}
		got := local.spec
		if got.Program.Name != daemon.Program.Name {
			t.Errorf("%v: local program %s, daemon program %s", args, got.Program.Name, daemon.Program.Name)
		}
		got.Program, daemon.Program = exps.Program{}, exps.Program{}
		if !reflect.DeepEqual(got, daemon) {
			t.Errorf("%v: local spec %+v, daemon spec %+v", args, got, daemon)
		}
	}
	for _, refused := range [][]string{{"-k", "0"}, {"-clients", "0"}} {
		if _, err := parseArgs(refused...); err == nil {
			t.Errorf("%v accepted", refused)
		}
	}

	trace := func(args ...string) []byte {
		t.Helper()
		inv, err := parseArgs(args...)
		if err != nil {
			t.Fatal(err)
		}
		dump, err := inv.spec.TraceJSON()
		if err != nil {
			t.Fatal(err)
		}
		return dump
	}
	if !bytes.Equal(trace("-fs", "beegfs", "-program", "H5-resize", "-rows", "0"), trace("-fs", "beegfs", "-program", "H5-resize")) {
		t.Error("-rows 0 traces another workload than the default rows")
	}
}

// TestRemoteFlagsFromTable: the flags a -remote run accepts are the job
// request's flags and the client's, no more, and every request flag is
// named as a JobRequest JSON field (flagError relies on it).
func TestRemoteFlagsFromTable(t *testing.T) {
	var req serve.JobRequest
	fields := map[string]bool{}
	for i := 0; i < reflect.TypeOf(req).NumField(); i++ {
		name, _, _ := strings.Cut(reflect.TypeOf(req).Field(i).Tag.Get("json"), ",")
		fields[name] = true
	}
	fl := flag.NewFlagSet("", flag.ContinueOnError)
	requestFlags(fl, &req)
	want := map[string]bool{"remote": true, "api-key": true, "json": true, "v": true}
	fl.VisitAll(func(f *flag.Flag) {
		want[f.Name] = true
		if !fields[strings.ReplaceAll(f.Name, "-", "_")] {
			t.Errorf("-%s names no JobRequest field", f.Name)
		}
	})
	if got := newInvocation(flag.NewFlagSet("", flag.ContinueOnError)).remoteFlags; !reflect.DeepEqual(got, want) {
		t.Fatalf("remote flags %v, want %v", got, want)
	}
}
