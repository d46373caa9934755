package serve

import (
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestTimeoutForClampsOverflow: a timeout_seconds too long for a
// time.Duration is held to the daemon's maximum instead of overflowing to a
// negative duration, which would run the job with no deadline at all.
func TestTimeoutForClampsOverflow(t *testing.T) {
	s := &Scheduler{cfg: SchedulerConfig{MaxTimeout: time.Hour}}
	for _, secs := range []float64{1e10, 1e300} {
		if d := s.timeoutFor(JobRequest{TimeoutSeconds: secs}); d != time.Hour {
			t.Errorf("timeout_seconds %g under a 1h cap: timeout %v, want 1h", secs, d)
		}
	}
	s.cfg.MaxTimeout = 0
	if d := s.timeoutFor(JobRequest{TimeoutSeconds: 1e10}); d <= 0 {
		t.Errorf("timeout_seconds 1e10 with no cap: timeout %v, want the longest duration", d)
	}
}

// TestAPIDocRequestFields holds docs/API.md's POST /v1/jobs field table to
// JobRequest's JSON tags, both ways: every field is documented and every
// documented field exists.
func TestAPIDocRequestFields(t *testing.T) {
	code := map[string]bool{}
	typ := reflect.TypeOf(JobRequest{})
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		code[name] = true
	}

	raw, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "### `POST /v1/jobs`")
	if !ok {
		t.Fatal("docs/API.md has no POST /v1/jobs section")
	}
	section, _, _ = strings.Cut(section, "\n### ")
	documented := map[string]bool{}
	name := regexp.MustCompile("`([a-z_]+)`")
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		first := strings.Split(line, "|")[1]
		for _, m := range name.FindAllStringSubmatch(first, -1) {
			documented[m[1]] = true
		}
	}

	diff := func(a, b map[string]bool) (out []string) {
		for k := range a {
			if !b[k] {
				out = append(out, k)
			}
		}
		sort.Strings(out)
		return out
	}
	if missing := diff(code, documented); len(missing) > 0 {
		t.Errorf("JobRequest fields missing from docs/API.md's request table: %v", missing)
	}
	if stale := diff(documented, code); len(stale) > 0 {
		t.Errorf("docs/API.md's request table documents fields JobRequest lacks: %v", stale)
	}
}
