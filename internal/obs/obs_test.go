package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersGaugesTimers(t *testing.T) {
	r := NewRun()
	c := r.Counter("states/checked")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("states/checked") != c {
		t.Fatal("Counter must return the same handle for the same name")
	}

	g := r.Gauge("legal/pfs")
	g.Set(5)
	g.Max(3)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge after Max(3) = %d, want 5", got)
	}
	g.Max(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge after Max(9) = %d, want 9", got)
	}
	g.Add(-2)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge after Add(-2) = %d, want 7", got)
	}

	stop := r.StartTimer("pfs/restore")
	time.Sleep(time.Millisecond)
	stop()
	stopPhase := r.Phase(PhaseExplore)
	if got := r.CurrentPhase(); got != PhaseExplore {
		t.Fatalf("CurrentPhase = %q, want %q", got, PhaseExplore)
	}
	stopPhase()

	s := r.Summary()
	if s.Counters["states/checked"] != 4 || s.Gauges["legal/pfs"] != 7 {
		t.Fatalf("summary totals wrong: %+v", s)
	}
	var restore, phase *TimerStat
	for i := range s.Timers {
		switch s.Timers[i].Name {
		case "pfs/restore":
			restore = &s.Timers[i]
		case "phase/" + PhaseExplore:
			phase = &s.Timers[i]
		}
	}
	if restore == nil || restore.Count != 1 || restore.Seconds <= 0 {
		t.Fatalf("pfs/restore timer missing or empty: %+v", s.Timers)
	}
	if phase == nil || phase.Count != 1 {
		t.Fatalf("explore phase timer missing: %+v", s.Timers)
	}
}

// TestNilRunIsNoop pins the disabled-path contract: every operation on a
// nil run and its nil handles is safe.
func TestNilRunIsNoop(t *testing.T) {
	var r *Run
	c := r.Counter("x")
	c.Add(1)
	c.Inc()
	if c.Value() != 0 || c.Name() != "" {
		t.Fatal("nil counter must stay zero")
	}
	g := r.Gauge("y")
	g.Set(9)
	g.Max(9)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge must stay zero")
	}
	r.StartTimer("t")()
	r.Phase(PhaseTrace)()
	if r.CurrentPhase() != "" || r.Elapsed() != 0 {
		t.Fatal("nil run must report empty state")
	}
	if ev := r.Event(); ev.ElapsedSeconds != 0 || len(ev.Counters) != 0 || ev.Final {
		t.Fatalf("nil run event not empty: %+v", ev)
	}
	s := r.Summary()
	if len(s.Counters) != 0 || len(s.Timers) != 0 {
		t.Fatalf("nil summary not empty: %+v", s)
	}
}

// TestNoopHotPathAllocs asserts the disabled collector adds no allocations
// on the per-crash-state hot path (counter bumps, gauge updates, timer
// start/stop through pre-resolved nil handles).
func TestNoopHotPathAllocs(t *testing.T) {
	var r *Run
	c := r.Counter("states/checked")
	g := r.Gauge("legal/pfs")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Max(7)
		r.StartTimer("pfs/restore")()
	})
	if allocs != 0 {
		t.Fatalf("no-op hot path allocates %.1f per op, want 0", allocs)
	}
}

// TestLiveCounterAllocs asserts that bumping a live, pre-resolved counter
// is also allocation-free (the enabled hot path only pays atomics).
func TestLiveCounterAllocs(t *testing.T) {
	r := NewRun()
	c := r.Counter("states/checked")
	g := r.Gauge("legal/pfs")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Max(3)
	})
	if allocs != 0 {
		t.Fatalf("live counter hot path allocates %.1f per op, want 0", allocs)
	}
}

func TestConcurrentTimersAccumulate(t *testing.T) {
	r := NewRun()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stop := r.StartTimer("pfs/recover")
			time.Sleep(2 * time.Millisecond)
			stop()
		}()
	}
	wg.Wait()
	s := r.Summary()
	for _, ts := range s.Timers {
		if ts.Name == "pfs/recover" {
			if ts.Count != 8 {
				t.Fatalf("count = %d, want 8", ts.Count)
			}
			if ts.Seconds < 0.008 {
				t.Fatalf("accumulated %.4fs, want >= sum of spans", ts.Seconds)
			}
			return
		}
	}
	t.Fatal("pfs/recover timer missing")
}

// TestProgressEventsAndSinks follows a live run the way the CLIs do —
// every interval, then a final event once stopped — and renders each event
// both ways: the human ticker line and one JSON object per line.
func TestProgressEventsAndSinks(t *testing.T) {
	r := NewRun()
	var evs []Event
	var human, jsonl bytes.Buffer
	enc := json.NewEncoder(&jsonl)
	write := func(ev Event) {
		evs = append(evs, ev)
		fmt.Fprintln(&human, ev)
		_ = enc.Encode(ev)
	}

	c := r.Counter("states/checked")
	r.Gauge("worker/00/pending").Set(12)
	r.Phase(PhaseExplore)
	stop := Follow(5*time.Millisecond, r.Event, write)
	for i := 0; i < 50; i++ {
		c.Add(10)
		time.Sleep(time.Millisecond)
	}
	stop()

	if len(evs) < 2 {
		t.Fatalf("got %d events, want >= 2", len(evs))
	}
	last := evs[len(evs)-1]
	if !last.Final {
		t.Fatal("last event must be final")
	}
	for _, ev := range evs[:len(evs)-1] {
		if ev.Final {
			t.Fatalf("non-last event marked final: %+v", ev)
		}
	}
	if last.Counters["states/checked"] != 500 {
		t.Fatalf("final counter = %d, want 500", last.Counters["states/checked"])
	}
	if last.Phase != PhaseExplore {
		t.Fatalf("phase = %q, want explore", last.Phase)
	}
	if last.Gauges["worker/00/pending"] != 12 {
		t.Fatalf("gauge missing from event: %+v", last.Gauges)
	}
	// The first event has no previous line to take rates against; every
	// later one does.
	if evs[0].Rates != nil || evs[1].Rates == nil {
		t.Fatalf("rates on events 0 and 1 = %v, %v; want none, then some", evs[0].Rates, evs[1].Rates)
	}
	if !strings.Contains(human.String(), "states/checked=") || !strings.HasSuffix(human.String(), " (final)\n") {
		t.Fatalf("human ticker lines missing counter or final marker: %q", human.String())
	}
	// Every JSONL line must parse back to an Event.
	dec := json.NewDecoder(&jsonl)
	n := 0
	for dec.More() {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("JSONL line %d: %v", n, err)
		}
		n++
	}
	if n != len(evs) {
		t.Fatalf("JSONL lines = %d, events written = %d", n, len(evs))
	}
}

// TestFollowRatesAgainstPreviousLine: a follower's rate is the counter's
// delta over the elapsed time between its own consecutive lines.
func TestFollowRatesAgainstPreviousLine(t *testing.T) {
	snaps := []Event{
		{ElapsedSeconds: 1, Counters: map[string]int64{"x": 10}},
		{ElapsedSeconds: 3, Counters: map[string]int64{"x": 50, "y": 4}},
	}
	var got []Event
	twoTicks := make(chan struct{})
	stop := Follow(time.Millisecond, func() Event {
		ev := snaps[0]
		if len(snaps) > 1 {
			snaps = snaps[1:]
		} else if len(got) == 1 {
			close(twoTicks)
		}
		return ev
	}, func(ev Event) { got = append(got, ev) })
	<-twoTicks
	stop()

	if len(got) < 3 {
		t.Fatalf("wrote %d events, want 2 ticks and a final", len(got))
	}
	if got[1].Rates["x"] != 20 || got[1].Rates["y"] != 2 {
		t.Fatalf("rates = %v, want x=20/s and y=2/s", got[1].Rates)
	}
	last := got[len(got)-1]
	if !last.Final || last.Rates != nil { // same elapsed: no interval to divide by
		t.Fatalf("final event = %+v, want final without rates", last)
	}
}

func TestServeEndpoint(t *testing.T) {
	r := NewRun()
	r.Counter("states/checked").Add(42)
	addr, shutdown, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	var sum Summary
	if err := json.Unmarshal([]byte(get("/debug/obs")), &sum); err != nil {
		t.Fatalf("/debug/obs not JSON: %v", err)
	}
	if sum.Counters["states/checked"] != 42 {
		t.Fatalf("endpoint summary = %+v, want counter 42", sum)
	}
	if !strings.Contains(get("/debug/pprof/"), "pprof") {
		t.Fatal("/debug/pprof/ index missing")
	}
	if !strings.Contains(get("/metrics"), "paracrash_states_checked_total 42") {
		t.Fatal("/metrics missing the run's counter")
	}
}

func TestSummaryJSONRoundTrip(t *testing.T) {
	r := NewRun()
	r.Counter("ops/replayed").Add(7)
	stop := r.Phase(PhaseGraph)
	stop()
	out, err := r.SummaryJSON()
	if err != nil {
		t.Fatal(err)
	}
	var s Summary
	if err := json.Unmarshal(out, &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["ops/replayed"] != 7 {
		t.Fatalf("round-trip lost counter: %+v", s)
	}
}
