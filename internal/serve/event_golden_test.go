package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"paracrash/internal/obs"
)

// goldenEvent is one fixed progress snapshot exercising every Event field:
// a counter with a rate, one whose rate is zero (not shown on the ticker
// line), one with no rate at all, two gauges, a phase and the final flag.
var goldenEvent = obs.Event{
	ElapsedSeconds: 12.5,
	Phase:          obs.PhaseExplore,
	Counters:       map[string]int64{"states/checked": 1200, "restores/digest": 340, "ops/replayed": 0},
	Gauges:         map[string]int64{"worker/00/pending": 7, "legal/pfs": 3},
	Rates:          map[string]float64{"states/checked": 96.4, "restores/digest": 0},
	Final:          true,
}

// TestEventFormatsGolden pins the three renderings of a progress Event
// against testdata/event.golden: the human ticker line (-progress), the
// machine-readable line (-progress-jsonl), and the NDJSON line the
// /v1/jobs/{id}/events endpoint serves.
func TestEventFormatsGolden(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("# -progress\n")
	renderHuman(&buf, goldenEvent)
	buf.WriteString("# -progress-jsonl\n")
	renderJSONL(&buf, goldenEvent)
	buf.WriteString("# /v1/jobs/{id}/events\n")
	buf.Write(eventsLine(t, goldenEvent))

	golden := filepath.Join("testdata", "event.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v; the current rendering is:\n%s", err, buf.Bytes())
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("event rendering drifted from golden file:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

// eventsLine serves ev as a finished job's event stream over HTTP and
// returns the body.
func eventsLine(t *testing.T, ev obs.Event) []byte {
	t.Helper()
	st, _ := OpenStore("")
	s, gate := gatedScheduler(SchedulerConfig{}, st)
	defer s.Drain(context.Background())
	srv := httptest.NewServer(NewServer(s, st, nil))
	defer srv.Close()

	j, err := s.Submit(JobRequest{})
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	waitState(t, st, j.ID, JobDone)
	_, jr, _ := s.progress(j.ID)
	<-jr.done
	s.mu.Lock()
	jr.final = ev // a finished job answers with its final event alone
	s.mu.Unlock()

	resp, err := http.Get(srv.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func renderHuman(w io.Writer, ev obs.Event) { fmt.Fprintln(w, ev) }

func renderJSONL(w io.Writer, ev obs.Event) { _ = json.NewEncoder(w).Encode(ev) }
