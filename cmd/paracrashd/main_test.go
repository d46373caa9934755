package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain doubles the test binary as the daemon when the re-exec marker is
// set, so flag handling, exit codes and the signal-driven shutdown can be
// tested without building a separate binary.
func TestMain(m *testing.M) {
	if os.Getenv("PARACRASHD_UNDER_TEST") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemonCmd returns the test binary re-executed as paracrashd with args.
func daemonCmd(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PARACRASHD_UNDER_TEST=1")
	return cmd
}

// runCLI runs paracrashd with args to completion and returns its exit code,
// stdout and stderr.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := daemonCmd(args...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if exitErr, ok := err.(*exec.ExitError); ok {
		code = exitErr.ExitCode()
	} else if err != nil {
		t.Fatalf("running paracrashd: %v", err)
	}
	return code, stdout.String(), stderr.String()
}

// TestFlagErrors: every invalid flag combination exits 2 with its message
// before a daemon starts or a directory is touched.
func TestFlagErrors(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name    string
		args    []string
		wantMsg string
	}{
		{"max-jobs zero", []string{"-max-jobs", "0"}, "-max-jobs and -queue-depth must be >= 1"},
		{"repair without fsck", []string{"-repair", "-results", dir}, "-repair only applies with -fsck"},
		{"fsck without results", []string{"-fsck"}, "-fsck requires -results"},
		{"unknown role", []string{"-role", "bogus"}, `unknown -role "bogus"`},
		{"coordinator without results", []string{"-role", "coordinator", "-addr", "localhost:0"}, "-role coordinator requires -results"},
		{"stray argument", []string{"stray"}, "unexpected arguments"},
		{"retired sink flag", []string{"-sink", "stdout"}, "flag provided but not defined: -sink"},
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
				t.Fatalf("stdout not empty: %s", stdout)
			}
		})
	}
}

// fsckReport is the part of the -fsck JSON report these tests read.
type fsckReport struct {
	Clean       bool `json:"clean"`
	Quarantined int  `json:"quarantined"`
}

// runFsck runs -fsck (with -repair when repair is set) over dir and returns
// the exit code and the parsed report.
func runFsck(t *testing.T, dir string, repair bool) (int, fsckReport) {
	t.Helper()
	args := []string{"-fsck", "-results", dir}
	if repair {
		args = append(args, "-repair")
	}
	code, stdout, stderr := runCLI(t, args...)
	var rep fsckReport
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("fsck printed no JSON report (%v); stdout %q, stderr %q", err, stdout, stderr)
	}
	return code, rep
}

// TestFsckMode: an empty state directory checks clean (exit 0); one holding
// a truncated job record is reported (exit 1) and left alone by a read-only
// scan; -repair quarantines it, after which the directory checks clean.
func TestFsckMode(t *testing.T) {
	dir := t.TempDir()
	if code, rep := runFsck(t, dir, false); code != 0 || !rep.Clean {
		t.Fatalf("empty directory: exit %d, report %+v; want 0 and clean", code, rep)
	}

	torn := filepath.Join(dir, "job-j-1.json")
	if err := os.WriteFile(torn, []byte(`{"version":1,"id":"j-1","state":"run`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, rep := runFsck(t, dir, false); code != 1 || rep.Clean {
		t.Fatalf("truncated record: exit %d, report %+v; want 1 and not clean", code, rep)
	}
	if _, err := os.Stat(torn); err != nil {
		t.Fatalf("read-only scan touched the record: %v", err)
	}
	if _, rep := runFsck(t, dir, true); rep.Quarantined != 1 {
		t.Fatalf("-repair quarantined %d records, want 1", rep.Quarantined)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("repaired record still in place (stat err = %v)", err)
	}
	if code, rep := runFsck(t, dir, false); code != 0 || !rep.Clean {
		t.Fatalf("after repair: exit %d, report %+v; want 0 and clean", code, rep)
	}
}

// freeAddr returns a localhost address nothing is listening on.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestStandaloneDaemon starts a standalone daemon, submits one job over
// HTTP, reads it back done, and stops the daemon with SIGTERM: it must
// drain, print "stopped" and exit 0.
func TestStandaloneDaemon(t *testing.T) {
	addr := freeAddr(t)
	cmd := daemonCmd("-addr", addr, "-results", t.TempDir())
	// A file, not a buffer: the daemon writes it while the test reads it.
	logPath := filepath.Join(t.TempDir(), "stderr")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close()
	cmd.Stderr = logFile
	stderr := func() string {
		data, _ := os.ReadFile(logPath)
		return string(data)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var waitErr error
	exited := make(chan struct{})
	go func() { waitErr = cmd.Wait(); close(exited) }()
	defer func() {
		select {
		case <-exited:
		default:
			_ = cmd.Process.Kill()
			<-exited
		}
	}()

	base := "http://" + addr
	client := &http.Client{Timeout: 5 * time.Second}
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
			if ok() {
				return
			}
		}
		t.Fatalf("timed out waiting for %s; daemon stderr:\n%s", what, stderr())
	}
	waitFor("the listener", func() bool {
		resp, err := client.Get(base + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})

	resp, err := client.Post(base+"/v1/jobs", "application/json", strings.NewReader(`{"fs":"ext4","program":"CR"}`))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || job.ID == "" {
		t.Fatalf("submit: status %d, job %+v, err %v", resp.StatusCode, job, err)
	}
	waitFor("the job to finish", func() bool {
		resp, err := client.Get(base + "/v1/jobs/" + job.ID)
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		if json.NewDecoder(resp.Body).Decode(&job) != nil {
			return false
		}
		if job.State == "failed" || job.State == "canceled" {
			t.Fatalf("job ended %s", job.State)
		}
		return job.State == "done"
	})

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
		if waitErr != nil {
			t.Fatalf("daemon exited with %v; stderr:\n%s", waitErr, stderr())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not stop after SIGTERM; stderr:\n%s", stderr())
	}
	for _, want := range []string{"draining", "stopped"} {
		if !strings.Contains(stderr(), want) {
			t.Errorf("daemon stderr lacks %q:\n%s", want, stderr())
		}
	}
}

// TestWorkerEndpoint: a worker serves its own run on -addr, so /metrics
// carries the fleet counters it keeps; a worker whose address is taken
// exits 2 at start-up with the listen error.
func TestWorkerEndpoint(t *testing.T) {
	dir := t.TempDir()
	addr := freeAddr(t)
	cmd := daemonCmd("-role", "worker", "-results", dir, "-addr", addr)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-exited:
		case <-time.After(10 * time.Second):
			_ = cmd.Process.Kill()
			<-exited
		}
	}()

	client := &http.Client{Timeout: 5 * time.Second}
	var body string
	for deadline := time.Now().Add(30 * time.Second); !strings.Contains(body, "paracrash_fleet_dir_scans_total"); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("worker /metrics never showed paracrash_fleet_dir_scans_total; last body:\n%s", body)
		}
		resp, err := client.Get("http://" + addr + "/metrics")
		if err != nil {
			continue
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		body = string(data)
	}

	// The first worker holds addr now.
	code, _, errOut := runCLI(t, "-role", "worker", "-results", dir, "-addr", addr)
	if code != 2 {
		t.Fatalf("second worker on a taken address: exit %d, want 2; stderr: %s", code, errOut)
	}
	if !strings.Contains(errOut, "listen") || !strings.Contains(errOut, addr) {
		t.Fatalf("second worker's stderr does not name the listen error on %s: %s", addr, errOut)
	}
}
