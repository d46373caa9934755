package serve

import (
	"context"
	"strings"
	"testing"
)

// TestInterruptedAndResubmit simulates an unclean daemon death: a job is
// mid-run when the "process" dies (we simply abandon the first scheduler),
// a fresh store over the same directory reports it interrupted, and
// Resubmit re-enqueues it under its original ID to completion.
func TestInterruptedAndResubmit(t *testing.T) {
	dir := t.TempDir()
	st, _ := OpenStore(dir)
	s1, gate1 := gatedScheduler(SchedulerConfig{MaxConcurrent: 1}, st)
	t.Cleanup(func() { close(gate1); s1.Drain(context.Background()) })

	j, err := s1.Submit(JobRequest{Program: "WAL", FS: "lustre"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, st, j.ID, JobRunning)

	// "Restart": a second store and scheduler over the same directory see
	// the running record and flag it interrupted.
	st2, warns := OpenStore(dir)
	if len(warns) != 0 {
		t.Fatalf("reopen warnings: %v", warns)
	}
	interrupted := st2.Interrupted()
	if len(interrupted) != 1 || interrupted[0].ID != j.ID {
		t.Fatalf("Interrupted() = %+v, want the one running job", interrupted)
	}

	s2, gate2 := gatedScheduler(SchedulerConfig{MaxConcurrent: 1}, st2)
	defer s2.Drain(context.Background())
	if err := s2.Resubmit(j.ID); err != nil {
		t.Fatalf("Resubmit: %v", err)
	}
	close(gate2)
	got := waitState(t, st2, j.ID, JobDone)
	if got.Resumes != 1 {
		t.Errorf("Resumes = %d, want 1", got.Resumes)
	}
	if got.Report == nil || got.Report.Program != "WAL" {
		t.Errorf("resumed job report = %+v", got.Report)
	}
	if len(st2.Interrupted()) != 0 {
		t.Error("job still listed as interrupted after completing")
	}

	// Guard rails: unknown and already-finished jobs are rejected.
	if err := s2.Resubmit("j-doesnotexist"); err == nil {
		t.Error("Resubmit accepted an unknown job")
	}
	if err := s2.Resubmit(j.ID); err == nil || !strings.Contains(err.Error(), "finished") {
		t.Errorf("Resubmit of a done job: err = %v, want 'already finished'", err)
	}
}

// TestStoreWarnsHalfWrittenRecord: a record truncated mid-write — the
// artifact the temp+rename discipline prevents, but which a lost rename can
// still leave — is skipped with a warning, never a crash.
func TestStoreWarnsHalfWrittenRecord(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir+"/job-half.json", `{"version": 1, "id": "j-half", "sta`)
	st, warns := OpenStore(dir)
	if len(warns) != 1 || !strings.Contains(warns[0].Error(), "parse") {
		t.Fatalf("warnings = %v, want one parse warning", warns)
	}
	if len(st.List()) != 0 {
		t.Fatalf("half-written record was loaded: %+v", st.List())
	}
}
