package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"paracrash/internal/obs"
	core "paracrash/internal/paracrash"
)

// TestFinishedJobsReleaseTheirRun: a running job starts no goroutine of its
// own, and a finished one keeps its final event but not its obs.Run — the
// scheduler's job table must not grow a collector per job for the life of
// the daemon.
func TestFinishedJobsReleaseTheirRun(t *testing.T) {
	st, _ := OpenStore("")
	s := NewScheduler(SchedulerConfig{MaxConcurrent: 2, QueueDepth: 64}, st, nil)
	gate := make(chan struct{})
	s.executor = func(ctx context.Context, job *Job, run *obs.Run) (*core.Report, error) {
		run.Counter("states/checked").Add(3)
		<-gate
		return &core.Report{}, nil
	}
	s.Start()
	defer s.Drain(context.Background())
	goroutines := runtime.NumGoroutine()

	j, err := s.Submit(JobRequest{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, st, j.ID, JobRunning)
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("a running job added %d goroutines", n-goroutines)
	}
	close(gate)

	const jobs = 50
	ids := []string{j.ID}
	for i := 1; i < jobs; i++ {
		j, err := s.Submit(JobRequest{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		waitState(t, st, id, JobDone)
	}

	s.mu.Lock()
	for _, id := range ids {
		jr := s.runs[id]
		select {
		case <-jr.done:
		default:
			t.Errorf("job %s: done not closed after its terminal record", id)
		}
		if jr.run != nil {
			t.Errorf("job %s: finished, still holds its *obs.Run", id)
		}
		if !jr.final.Final || jr.final.Counters["states/checked"] != 3 {
			t.Errorf("job %s: final event = %+v, want final with states/checked=3", id, jr.final)
		}
	}
	s.mu.Unlock()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("goroutines grew from %d to %d over %d jobs", goroutines, n, jobs)
	}
}

// TestChaosStalledEventsReader: an /events client that connects and never
// reads wedges its own handler on a full socket, and nothing else. Its job
// still gets its terminal record on time, another reader of the same job
// still sees the final event, and the next job still runs.
func TestChaosStalledEventsReader(t *testing.T) {
	st, _ := OpenStore("")
	s := NewScheduler(SchedulerConfig{MaxConcurrent: 1, ProgressInterval: time.Millisecond}, st, nil)
	gate := make(chan struct{})
	s.executor = func(ctx context.Context, job *Job, run *obs.Run) (*core.Report, error) {
		// Fat events (~20 KB a line) fill the stalled reader's socket
		// within a few lines.
		for i := 0; i < 100; i++ {
			run.Counter(fmt.Sprintf("chaos/%0200d", i)).Inc()
		}
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return &core.Report{}, nil
	}
	s.Start()
	defer s.Drain(context.Background())
	srv := httptest.NewUnstartedServer(NewServer(s, st, nil))
	srv.Config.ConnState = func(c net.Conn, state http.ConnState) {
		if state == http.StateNew {
			_ = c.(*net.TCPConn).SetWriteBuffer(4096)
		}
	}
	srv.Start()
	defer srv.Close()

	j, err := s.Submit(JobRequest{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, st, j.ID, JobRunning)

	stalled, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close() // runs before srv.Close, unwedging the handler
	_ = stalled.(*net.TCPConn).SetReadBuffer(4096)
	fmt.Fprintf(stalled, "GET /v1/jobs/%s/events HTTP/1.1\r\nHost: paracrashd\r\n\r\n", j.ID)

	// A second reader of the same job keeps reading throughout.
	reader, err := http.Get(srv.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Body.Close()
	lastEvent := make(chan obs.Event, 1)
	go func() {
		var last obs.Event
		sc := bufio.NewScanner(reader.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for sc.Scan() {
			last = obs.Event{}
			if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
				t.Errorf("bad event line %.80q: %v", sc.Text(), err)
			}
		}
		lastEvent <- last
	}()
	// Wait until the stalled reader's handler is parked in a socket write.
	deadline := time.Now().Add(10 * time.Second)
	for !handlerBlockedInWrite() {
		if time.Now().After(deadline) {
			t.Fatal("no events handler ever blocked on the stalled reader's socket")
		}
		time.Sleep(10 * time.Millisecond)
	}

	released := time.Now()
	close(gate)
	waitState(t, st, j.ID, JobDone)
	if d := time.Since(released); d > 2*time.Second {
		t.Fatalf("terminal record took %v behind a stalled events reader", d)
	}

	select {
	case last := <-lastEvent:
		if !last.Final || len(last.Counters) != 100 {
			t.Fatalf("second reader's last event: final=%v, %d counters; want the final event", last.Final, len(last.Counters))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second reader's stream never ended behind a stalled events reader")
	}

	next, err := s.Submit(JobRequest{})
	if err != nil {
		t.Fatal(err)
	}
	started := time.Now()
	waitState(t, st, next.ID, JobDone)
	if d := time.Since(started); d > 2*time.Second {
		t.Fatalf("next job took %v behind a stalled events reader", d)
	}
}

// handlerBlockedInWrite reports whether some events handler, or the
// follower writing for it, is waiting for its socket to accept more bytes.
func handlerBlockedInWrite() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "(*Server).handleEvents") && strings.Contains(g, "waitWrite") {
			return true
		}
	}
	return false
}
