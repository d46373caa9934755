package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Event is one progress snapshot: read from a Run with Run.Event, and
// written once per interval (then once more, Final) by Follow.
type Event struct {
	ElapsedSeconds float64          `json:"elapsed_seconds"`
	Phase          string           `json:"phase,omitempty"`
	Counters       map[string]int64 `json:"counters,omitempty"`
	Gauges         map[string]int64 `json:"gauges,omitempty"`
	// Rates holds the per-second delta of each counter since the previous
	// event (absent on the first event).
	Rates map[string]float64 `json:"rates,omitempty"`
	Final bool               `json:"final,omitempty"`
}

// Event reads the run's current progress snapshot: elapsed time, phase,
// counters and gauges, without rates. A nil run yields an empty event.
func (r *Run) Event() Event {
	elapsed := r.Elapsed().Seconds()
	reg := r.read()
	return Event{ElapsedSeconds: elapsed, Phase: r.CurrentPhase(), Counters: values(reg.counters), Gauges: values(reg.gauges)}
}

// String renders the event as one compact ticker line, the CLI's -progress
// output.
func (ev Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%7.1fs]", ev.ElapsedSeconds)
	if ev.Phase != "" {
		fmt.Fprintf(&b, " %-11s", ev.Phase)
	}
	for _, n := range sortedKeys(ev.Counters) {
		fmt.Fprintf(&b, " %s=%d", n, ev.Counters[n])
		if r, ok := ev.Rates[n]; ok && r != 0 {
			fmt.Fprintf(&b, "(+%.0f/s)", r)
		}
	}
	for _, n := range sortedKeys(ev.Gauges) {
		fmt.Fprintf(&b, " %s=%d", n, ev.Gauges[n])
	}
	if ev.Final {
		b.WriteString(" (final)")
	}
	return b.String()
}

func sortedKeys(m map[string]int64) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Follow writes snapshot() once per interval on its own goroutine until
// the returned stop is called; stop then writes one last snapshot marked
// Final and returns once it is written. Each event after the first
// carries per-second counter rates against the event written before it.
// Call stop exactly once.
func Follow(interval time.Duration, snapshot func() Event, write func(Event)) (stop func()) {
	var prev Event
	wrote := false
	emit := func(final bool) {
		ev := snapshot()
		ev.Final = final
		if dt := ev.ElapsedSeconds - prev.ElapsedSeconds; wrote && dt > 0 {
			ev.Rates = make(map[string]float64, len(ev.Counters))
			for n, v := range ev.Counters {
				ev.Rates[n] = float64(v-prev.Counters[n]) / dt
			}
		}
		write(ev)
		prev, wrote = ev, true
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				emit(false)
			case <-quit:
				emit(true)
				return
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}
