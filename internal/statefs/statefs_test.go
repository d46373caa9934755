package statefs

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"paracrash/internal/obs"
)

// Test sites, one per op kind (registered once — the registry is global).
var (
	tsAtomic  = Register("test/atomic", OpAtomic)
	tsExcl    = Register("test/excl", OpExclusive)
	tsJournal = Register("test/journal", OpJournal)
	tsRename  = RegisterRecovery("test/rename", OpRename)
)

// TestMain doubles the test binary as a crash-op subprocess: when the
// scenario marker is set it performs one statefs operation (crashing at
// whatever point the environment arms) instead of running the tests.
func TestMain(m *testing.M) {
	if os.Getenv("STATEFS_OP_UNDER_TEST") != "" {
		runOpScenario()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runOpScenario performs the op named by STATEFS_OP_UNDER_TEST against
// STATEFS_DIR; the crash env (if armed) kills it mid-flight.
func runOpScenario() {
	dir := os.Getenv("STATEFS_DIR")
	payload := []byte(`{"payload":"0123456789abcdef"}` + "\n")
	var err error
	switch op := os.Getenv("STATEFS_OP_UNDER_TEST"); op {
	case "atomic":
		err = WriteBytes(tsAtomic, filepath.Join(dir, "rec.json"), payload)
	case "excl":
		err = CreateExclusive(tsExcl, filepath.Join(dir, "lock.json"), payload)
	case "journal":
		err = Append(tsJournal, filepath.Join(dir, "log.jsonl"), payload)
	default:
		fmt.Fprintf(os.Stderr, "unknown op %q\n", op)
		os.Exit(3)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runOp re-executes the test binary as one statefs op with a crash point
// armed, returning the exit code.
func runOp(t *testing.T, dir, op, point string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"STATEFS_OP_UNDER_TEST="+op,
		"STATEFS_DIR="+dir,
		EnvCrashPoint+"="+point,
	)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		return 0
	}
	var exitErr *exec.ExitError
	if errors.As(err, &exitErr) {
		return exitErr.ExitCode()
	}
	t.Fatalf("running op subprocess: %v (stderr: %s)", err, stderr.String())
	return -1
}

func TestWriteBytesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.json")
	if err := WriteJSON(tsAtomic, path, map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(data), "\n") {
		t.Error("WriteJSON output is not newline-terminated")
	}
	var got map[string]int
	if err := json.Unmarshal(data, &got); err != nil || got["x"] != 1 {
		t.Fatalf("round trip failed: %v %v", got, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file left behind after a clean write")
	}
}

func TestCreateExclusiveLosesSecondRace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lock.json")
	if err := CreateExclusiveJSON(tsExcl, path, map[string]int{"epoch": 1}); err != nil {
		t.Fatal(err)
	}
	err := CreateExclusiveJSON(tsExcl, path, map[string]int{"epoch": 2})
	if err == nil || !os.IsExist(err) {
		t.Fatalf("second create should fail with IsExist, got %v", err)
	}
}

func TestAppendAccumulates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.jsonl")
	for i := 0; i < 3; i++ {
		if err := Append(tsJournal, path, []byte(fmt.Sprintf("{\"n\":%d}\n", i))); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("journal has %d lines, want 3: %q", len(lines), data)
	}
}

func TestRenameMoves(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.json")
	dst := filepath.Join(dir, "sub", "dst.json")
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteBytes(tsAtomic, src, []byte("x\n")); err != nil {
		t.Fatal(err)
	}
	if err := Rename(tsRename, src, dst); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(src); !os.IsNotExist(err) {
		t.Error("source survived the rename")
	}
	if _, err := os.Stat(dst); err != nil {
		t.Errorf("destination missing after rename: %v", err)
	}
}

// TestCrashPointCatalogue pins the registry contract: every non-recovery
// site expands to one point per stage of its op, recovery sites to none.
func TestCrashPointCatalogue(t *testing.T) {
	points := map[string]bool{}
	for _, p := range CrashPoints() {
		points[p] = true
	}
	for _, stage := range OpAtomic.Stages() {
		if !points["test/atomic@"+stage] {
			t.Errorf("catalogue misses test/atomic@%s", stage)
		}
	}
	for _, stage := range OpRename.Stages() {
		if points["test/rename@"+stage] {
			t.Errorf("recovery site leaked into the catalogue: test/rename@%s", stage)
		}
	}
}

// TestCrashStages kills a subprocess at every stage of every op and
// asserts the simulated post-crash disk state is exactly what the stage
// documents.
func TestCrashStages(t *testing.T) {
	payload := `{"payload":"0123456789abcdef"}` + "\n"
	cases := []struct {
		op    string
		point string
		check func(t *testing.T, dir string)
	}{
		{"atomic", "test/atomic@" + StageTornTmp, func(t *testing.T, dir string) {
			tmp := readOrEmpty(t, filepath.Join(dir, "rec.json.tmp"))
			if len(tmp) == 0 || len(tmp) >= len(payload) {
				t.Errorf("torn tmp should hold a strict prefix, has %d bytes", len(tmp))
			}
			if _, err := os.Stat(filepath.Join(dir, "rec.json")); !os.IsNotExist(err) {
				t.Error("destination appeared despite torn-tmp crash")
			}
		}},
		{"atomic", "test/atomic@" + StagePreRename, func(t *testing.T, dir string) {
			if got := readOrEmpty(t, filepath.Join(dir, "rec.json.tmp")); string(got) != payload {
				t.Errorf("pre-rename tmp should be complete, got %q", got)
			}
			if _, err := os.Stat(filepath.Join(dir, "rec.json")); !os.IsNotExist(err) {
				t.Error("destination appeared despite pre-rename crash")
			}
		}},
		{"atomic", "test/atomic@" + StagePostRename, func(t *testing.T, dir string) {
			if got := readOrEmpty(t, filepath.Join(dir, "rec.json")); string(got) != payload {
				t.Errorf("post-rename destination should be complete, got %q", got)
			}
			if _, err := os.Stat(filepath.Join(dir, "rec.json.tmp")); !os.IsNotExist(err) {
				t.Error("tmp survived the rename")
			}
		}},
		{"excl", "test/excl@" + StageTornCreate, func(t *testing.T, dir string) {
			got := readOrEmpty(t, filepath.Join(dir, "lock.json"))
			if len(got) == 0 || len(got) >= len(payload) {
				t.Errorf("torn create should hold a strict prefix, has %d bytes", len(got))
			}
		}},
		{"excl", "test/excl@" + StagePostCreate, func(t *testing.T, dir string) {
			if got := readOrEmpty(t, filepath.Join(dir, "lock.json")); string(got) != payload {
				t.Errorf("post-create file should be complete, got %q", got)
			}
		}},
		{"journal", "test/journal@" + StageTornAppend, func(t *testing.T, dir string) {
			got := readOrEmpty(t, filepath.Join(dir, "log.jsonl"))
			if len(got) == 0 || len(got) >= len(payload) {
				t.Errorf("torn append should hold a strict prefix, has %d bytes", len(got))
			}
			if strings.HasSuffix(string(got), "\n") {
				t.Error("torn append ended on a record boundary — not torn")
			}
		}},
		{"journal", "test/journal@" + StagePostAppend, func(t *testing.T, dir string) {
			if got := readOrEmpty(t, filepath.Join(dir, "log.jsonl")); string(got) != payload {
				t.Errorf("post-append journal should carry the record, got %q", got)
			}
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.point, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			if code := runOp(t, dir, tc.op, tc.point); code != CrashExitCode {
				t.Fatalf("subprocess exited %d, want the crash code %d", code, CrashExitCode)
			}
			tc.check(t, dir)
		})
	}
}

// TestCrashHitSelectsTraversal: with HIT=2 the first traversal survives
// and the second dies.
func TestCrashHitSelectsTraversal(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"STATEFS_OP_UNDER_TEST=journal", "STATEFS_DIR="+dir,
		EnvCrashPoint+"=test/journal@"+StagePostAppend, EnvCrashHit+"=2",
	)
	if err := cmd.Run(); err != nil {
		t.Fatalf("first traversal should survive with HIT=2: %v", err)
	}
	cmd = exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"STATEFS_OP_UNDER_TEST=journal", "STATEFS_DIR="+dir,
		EnvCrashPoint+"=test/journal@"+StagePostAppend, EnvCrashHit+"=1",
	)
	err := cmd.Run()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != CrashExitCode {
		t.Fatalf("second run with HIT=1 should crash, got %v", err)
	}
}

// TestCoverageCounts: completed ops tick the site counters and the armed
// obs run.
func TestCoverageCounts(t *testing.T) {
	defer SetObs(nil)
	run := obs.NewRun()
	SetObs(run)
	dir := t.TempDir()
	before := tsAtomic.Writes()
	if err := WriteBytes(tsAtomic, filepath.Join(dir, "c.json"), []byte("x\n")); err != nil {
		t.Fatal(err)
	}
	if got := tsAtomic.Writes(); got != before+1 {
		t.Errorf("site writes %d, want %d", got, before+1)
	}
	if got := run.Counter("statefs/test/atomic").Value(); got != 1 {
		t.Errorf("obs site counter %d, want 1", got)
	}
	if Coverage()["test/atomic"] < 1 {
		t.Error("Coverage misses the site")
	}
}

func readOrEmpty(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return data
}

// Coverage returns completed-write counts per site name, the raw material
// of the crash-point coverage metrics.
func Coverage() map[string]int64 {
	out := map[string]int64{}
	for _, s := range Sites() {
		out[s.name] = s.Writes()
	}
	return out
}
