package serve

// The self-check gate: the checker turned on itself. The test binary
// doubles as a miniature daemon (TestMain scenario mode) that recovers a
// state directory with Fsck, resumes or submits one fleet explore job and
// prints a machine-readable transcript. The driver enumerates every
// registered statefs crash point, runs the scenario with that point armed
// (the process kills itself at the exact instant the simulated crash
// lands), then runs it again for recovery — asserting the crash actually
// fired (exit code), that no acknowledged job was lost, and that the
// recovered report is byte-identical to an uncrashed run's.
//
// Transcript protocol, one record per line on stdout:
//
//	FSCK problems=<n> repaired=<n> quarantined=<n>
//	HAVE <job-id> <state>     (one per job record loaded after fsck)
//	ACK <job-id>              (the job is durably accepted)
//	REPORT <sha256>           (hash of the final report fingerprint)
//	DONE
import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"paracrash/internal/exps"
	"paracrash/internal/statefs"
)

// Environment markers that flip the test binary into scenario mode.
// envSelfCheckScenario selects the scenario, envSelfCheckDir its state
// directory.
const (
	envSelfCheckScenario = "PARACRASH_SELFCHECK_SCENARIO"
	envSelfCheckDir      = "PARACRASH_SELFCHECK_DIR"

	scenarioSelfCheck   = "1"      // the self-check daemon below
	scenarioFleetWorker = "worker" // a bare fleet worker (TestWakeupCrossProcess)
)

// selfCheckRequest is the one job every scenario run executes: small
// enough to finish in tens of milliseconds, sharded so every fleet
// persistence site (tasks, leases, results, shard journals) is traversed.
var selfCheckRequest = JobRequest{Kind: JobKindExplore, FS: "ext4", Program: "CR", Mode: "pruning"}

// TestMain doubles the test binary as the self-check scenario daemon. Run
// as a test binary it is the package's goroutine-leak gate: once every test
// has run, the goroutine count must fall back to its value before them
// within 5 s, or the binary writes every live goroutine to stderr and fails.
func TestMain(m *testing.M) {
	switch os.Getenv(envSelfCheckScenario) {
	case scenarioSelfCheck:
		runSelfCheckScenario()
	case scenarioFleetWorker:
		runFleetWorkerScenario()
	default:
		before := runtime.NumGoroutine()
		code := m.Run()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			time.Sleep(20 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutines after the tests, %d before\n", after, before)
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			code = 1
		}
		os.Exit(code)
	}
}

// runFleetWorkerScenario is a worker process at production cadences, as
// `paracrashd -role worker` runs one, until its parent kills it.
func runFleetWorkerScenario() {
	w, err := NewFleetWorker(FleetWorkerConfig{Dir: os.Getenv(envSelfCheckDir), ID: "xproc"})
	if err != nil {
		scenarioFatalf("worker: %v", err)
	}
	_ = w.Run(context.Background())
}

// scenarioFatalf aborts a scenario subprocess with a diagnosable message.
func scenarioFatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "selfcheck scenario: "+format+"\n", args...)
	os.Exit(3)
}

// runSelfCheckScenario is one daemon lifetime: fsck-with-repair, load the
// store, resume the interrupted job (or submit a fresh one), run it on an
// in-process two-shard fleet and report the result. A crash point armed
// via statefs environment variables kills the process partway through;
// the next lifetime must recover.
func runSelfCheckScenario() {
	dir := os.Getenv(envSelfCheckDir)
	if dir == "" {
		scenarioFatalf("%s not set", envSelfCheckDir)
	}

	rep, err := Fsck(dir, FsckOptions{Repair: true})
	if err != nil {
		scenarioFatalf("fsck: %v", err)
	}
	fmt.Printf("FSCK problems=%d repaired=%d quarantined=%d\n", len(rep.Problems), rep.Repaired, rep.Quarantined)
	if rep.Quarantined > 0 {
		// The scenario only crashes at statefs crash points, whose debris is
		// always reconstructible; quarantine means the repair taxonomy has a
		// hole. Degrade loudly.
		scenarioFatalf("fsck quarantined %d record(s): %+v", rep.Quarantined, rep.Problems)
	}

	st, warns := OpenStore(dir)
	if len(warns) > 0 {
		scenarioFatalf("store still dirty after fsck: %v", warns)
	}
	jobs := st.List()
	for _, j := range jobs {
		fmt.Printf("HAVE %s %s\n", j.ID, j.State)
	}

	// Deterministically traverse the lease-renew site. Shards on a fast rig
	// finish inside one heartbeat tick, so renewal-by-heartbeat is not
	// guaranteed to happen — claim, renew and release a warmup lease
	// through the very same statefs sites the worker heartbeat uses, so
	// the crash-point sweep always finds them armed on a live write.
	ld, err := NewLeaseDir(dir)
	if err != nil {
		scenarioFatalf("lease dir: %v", err)
	}
	warmup, err := ld.Claim("selfcheck-warmup", "w1", 2*time.Second)
	if err != nil {
		scenarioFatalf("warmup claim: %v", err)
	}
	if err := ld.Renew(warmup, 2*time.Second); err != nil {
		scenarioFatalf("warmup renew: %v", err)
	}
	if err := ld.Release(warmup); err != nil {
		scenarioFatalf("warmup release: %v", err)
	}

	sched := NewScheduler(SchedulerConfig{
		MaxConcurrent: 1,
		Fleet:         &FleetConfig{Shards: 2, Poll: 2 * time.Millisecond},
	}, st, nil)
	sched.Start()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	worker, err := NewFleetWorker(FleetWorkerConfig{
		// The fixed ID makes a post-crash restart look like the same worker
		// coming back, exercising the idempotent lease re-claim path; the
		// 1ms heartbeat guarantees lease renewals happen during any shard.
		Dir: dir, ID: "w1",
		LeaseTTL: 2 * time.Second, Heartbeat: time.Millisecond, Poll: time.Millisecond,
	})
	if err != nil {
		scenarioFatalf("worker: %v", err)
	}
	go func() { _ = worker.Run(ctx) }()

	var id string
	switch {
	case len(jobs) > 1:
		scenarioFatalf("scenario owns one job, found %d", len(jobs))
	case len(jobs) == 1 && jobs[0].State.Terminal():
		// The previous lifetime crashed after the job's terminal record
		// landed (e.g. job-record@post-rename on the done persist): nothing
		// to recover, just report.
		j := jobs[0]
		if j.State != JobDone || j.Report == nil {
			scenarioFatalf("job %s recovered in state %s: %s", j.ID, j.State, j.Error)
		}
		reportAndExit(sched, cancel, j)
	case len(jobs) == 1:
		// Interrupted mid-run: resume under the original ID so shard
		// checkpoints are picked up.
		id = jobs[0].ID
		if err := sched.Resubmit(id); err != nil {
			scenarioFatalf("resubmit %s: %v", id, err)
		}
		fmt.Printf("ACK %s\n", id)
	default:
		j, err := sched.Submit(selfCheckRequest)
		if err != nil {
			scenarioFatalf("submit: %v", err)
		}
		id = j.ID
		fmt.Printf("ACK %s\n", id)
	}

	deadline := time.Now().Add(2 * time.Minute)
	for {
		j, ok := st.Get(id)
		if !ok {
			scenarioFatalf("job %s vanished from the store", id)
		}
		if j.State.Terminal() {
			if j.State != JobDone || j.Report == nil {
				scenarioFatalf("job %s ended %s: %s", id, j.State, j.Error)
			}
			reportAndExit(sched, cancel, j)
		}
		if time.Now().After(deadline) {
			scenarioFatalf("job %s still %s after 2m", id, j.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// reportAndExit drains the scenario daemon (so the terminal record is
// durable before the transcript claims success) and prints the report.
func reportAndExit(sched *Scheduler, cancelWorker context.CancelFunc, j Job) {
	cancelWorker()
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = sched.Drain(drainCtx)
	sum := sha256.Sum256([]byte(exps.ReportFingerprint(j.Report)))
	fmt.Printf("REPORT %s\n", hex.EncodeToString(sum[:]))
	fmt.Println("DONE")
	os.Exit(0)
}

// scenarioResult is one parsed scenario transcript.
type scenarioResult struct {
	exitCode int
	acked    []string
	have     map[string]string // job ID -> state at startup
	report   string
	done     bool
	stdout   string
	stderr   string
}

// runScenario executes the scenario subprocess over dir, optionally with
// one crash point armed (hit selects which traversal crashes, 0 = first).
func runScenario(t *testing.T, dir, crashPoint string, hit int) scenarioResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(),
		envSelfCheckScenario+"="+scenarioSelfCheck,
		envSelfCheckDir+"="+dir,
		statefs.EnvCrashPoint+"="+crashPoint,
	)
	if hit > 0 {
		cmd.Env = append(cmd.Env, fmt.Sprintf("%s=%d", statefs.EnvCrashHit, hit))
	}
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	res := scenarioResult{have: map[string]string{}, stdout: stdout.String(), stderr: stderr.String()}
	switch e := err.(type) {
	case nil:
		res.exitCode = 0
	case *exec.ExitError:
		res.exitCode = e.ExitCode()
	default:
		t.Fatalf("scenario did not run: %v", err)
	}
	for _, line := range strings.Split(res.stdout, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "ACK":
			if len(fields) == 2 {
				res.acked = append(res.acked, fields[1])
			}
		case "HAVE":
			if len(fields) == 3 {
				res.have[fields[1]] = fields[2]
			}
		case "REPORT":
			if len(fields) == 2 {
				res.report = fields[1]
			}
		case "DONE":
			res.done = true
		}
	}
	return res
}

// mustScenario runs an uncrashed scenario and fails the test unless it
// completes with a report.
func mustScenario(t *testing.T, dir, context string) scenarioResult {
	t.Helper()
	res := runScenario(t, dir, "", 0)
	if res.exitCode != 0 || !res.done || res.report == "" {
		t.Fatalf("%s: exit %d, done=%t, report=%q\nstdout:\n%s\nstderr:\n%s",
			context, res.exitCode, res.done, res.report, res.stdout, res.stderr)
	}
	return res
}

// TestSelfCheckCrashPointSweep is the `make selfcheck` gate: for every
// registered statefs crash point, kill the daemon exactly there, restart
// it with fsck, and require (a) the crash actually fired — a run that
// exits cleanly means the catalogue lists a point the scenario never
// traverses, which is a coverage hole, (b) no acknowledged job was lost,
// and (c) the recovered report is byte-identical to the uncrashed run's —
// which also proves no verdict was duplicated, since the fingerprint
// covers every verdict and charge.
func TestSelfCheckCrashPointSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("selfcheck sweep spawns ~40 daemon lifetimes; skipped in -short")
	}

	points := statefs.CrashPoints()
	// The catalogue floor: serve's five sites plus the core journal's two.
	// A migration that silently drops a site from the audited plane shrinks
	// this list — fail loudly instead.
	if len(points) < 19 {
		t.Fatalf("crash-point catalogue shrank to %d points: %v", len(points), points)
	}

	baseline := mustScenario(t, t.TempDir(), "baseline scenario")

	for _, point := range points {
		point := point
		t.Run(strings.ReplaceAll(point, "/", "_"), func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()

			crash := runScenario(t, dir, point, 0)
			if crash.exitCode != statefs.CrashExitCode {
				t.Fatalf("crash run exited %d, want %d — crash point %s was never exercised by the scenario\nstdout:\n%s\nstderr:\n%s",
					crash.exitCode, statefs.CrashExitCode, point, crash.stdout, crash.stderr)
			}

			rec := mustScenario(t, dir, "recovery after crash at "+point)
			if rec.report != baseline.report {
				t.Errorf("recovered report diverged from uncrashed baseline after crash at %s:\nrecovered: %s\nbaseline:  %s\nrecovery stdout:\n%s",
					point, rec.report, baseline.report, rec.stdout)
			}
			for _, id := range crash.acked {
				if _, ok := rec.have[id]; !ok {
					t.Errorf("job %s was acknowledged before the crash at %s but has no record after recovery", id, point)
				}
			}
		})
	}
}

// TestChaosCoordinatorDeathMidMerge kills the coordinator at the precise
// worst moment of a fleet job: the merge has completed and the daemon is
// persisting the terminal job record (the third job-record traversal —
// queued, running, then done). The restarted daemon must find the job
// running, re-run the merged shards and land the identical report.
func TestChaosCoordinatorDeathMidMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon subprocesses; skipped in -short")
	}
	baseline := mustScenario(t, t.TempDir(), "baseline scenario")

	dir := t.TempDir()
	crash := runScenario(t, dir, "serve/job-record@pre-rename", 3)
	if crash.exitCode != statefs.CrashExitCode {
		t.Fatalf("crash run exited %d, want %d\nstdout:\n%s\nstderr:\n%s",
			crash.exitCode, statefs.CrashExitCode, crash.stdout, crash.stderr)
	}
	if len(crash.acked) != 1 {
		t.Fatalf("crash run acked %v, want exactly one job", crash.acked)
	}

	rec := mustScenario(t, dir, "recovery after coordinator death mid-merge")
	// The done record's rename never landed, so the store must see the job
	// as interrupted (running), not lost and not done.
	if state, ok := rec.have[crash.acked[0]]; !ok || state != string(JobRunning) {
		t.Errorf("job %s after coordinator death = %q, want %q\nstdout:\n%s",
			crash.acked[0], state, JobRunning, rec.stdout)
	}
	if rec.report != baseline.report {
		t.Errorf("report diverged after coordinator death mid-merge:\nrecovered: %s\nbaseline:  %s", rec.report, baseline.report)
	}
}
