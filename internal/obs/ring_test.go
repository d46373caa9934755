package obs

import (
	"sync"
	"testing"
)

// RingSink is the bounded in-memory MetricSink the tests attach to routers
// and assert against: it keeps the most recent Capacity batches and
// exposes snapshot accessors — deterministic assertions with no temp
// files and no scraping.
type RingSink struct {
	mu      sync.Mutex
	cap     int
	batches [][]Metric
}

// NewRingSink returns a ring retaining up to capacity metric batches (a
// non-positive capacity keeps one).
func NewRingSink(capacity int) *RingSink {
	if capacity < 1 {
		capacity = 1
	}
	return &RingSink{cap: capacity}
}

// WriteMetrics implements MetricSink. The batch is copied, so the ring
// stays valid however the router reuses its buffers.
func (s *RingSink) WriteMetrics(batch []Metric) error {
	cp := append([]Metric(nil), batch...)
	s.mu.Lock()
	s.batches = append(s.batches, cp)
	if len(s.batches) > s.cap {
		s.batches = s.batches[len(s.batches)-s.cap:]
	}
	s.mu.Unlock()
	return nil
}

// Batches returns a copy of the retained metric batches, oldest first.
func (s *RingSink) Batches() [][]Metric {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([][]Metric, len(s.batches))
	copy(out, s.batches)
	return out
}

// LastBatch returns the most recent metric batch (nil when none arrived).
func (s *RingSink) LastBatch() []Metric {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.batches) == 0 {
		return nil
	}
	return s.batches[len(s.batches)-1]
}

// Find returns the sample with the given name and job label from the most
// recent batch (false when absent).
func (s *RingSink) Find(name, job string) (Metric, bool) {
	for _, m := range s.LastBatch() {
		if m.Name == name && m.Job == job {
			return m, true
		}
	}
	return Metric{}, false
}

// Len returns how many metric batches the ring currently holds.
func (s *RingSink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.batches)
}

// Reset discards all retained batches.
func (s *RingSink) Reset() {
	s.mu.Lock()
	s.batches = nil
	s.mu.Unlock()
}

func TestRingSinkBoundsBatches(t *testing.T) {
	s := NewRingSink(2)
	for i := 1; i <= 5; i++ {
		if err := s.WriteMetrics([]Metric{{Name: "x", Kind: KindCounter, Value: float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 2 {
		t.Fatalf("batches = %d, want 2", s.Len())
	}
	batches := s.Batches()
	if batches[0][0].Value != 4 || batches[1][0].Value != 5 {
		t.Fatalf("ring kept %+v, want batches 4 and 5", batches)
	}
	if m, ok := s.Find("x", ""); !ok || m.Value != 5 {
		t.Fatalf("Find = (%+v, %v), want value 5 from the last batch", m, ok)
	}
	if _, ok := s.Find("y", ""); ok {
		t.Fatal("Find matched a name that never arrived")
	}
}

// TestRingSinkCopiesBatches pins the aliasing contract: the ring must stay
// valid however the caller reuses the batch slice after WriteMetrics.
func TestRingSinkCopiesBatches(t *testing.T) {
	s := NewRingSink(4)
	batch := []Metric{{Name: "x", Kind: KindCounter, Value: 1}}
	if err := s.WriteMetrics(batch); err != nil {
		t.Fatal(err)
	}
	batch[0].Value = 999
	if m, _ := s.Find("x", ""); m.Value != 1 {
		t.Fatalf("ring aliased the caller's batch: %+v", m)
	}
}

func TestRingSinkReset(t *testing.T) {
	s := NewRingSink(4)
	_ = s.WriteMetrics([]Metric{{Name: "x"}})
	s.Reset()
	if s.Len() != 0 || s.LastBatch() != nil {
		t.Fatal("Reset left data behind")
	}
}

func TestRingSinkMinimumCapacity(t *testing.T) {
	s := NewRingSink(0)
	_ = s.WriteMetrics([]Metric{{Name: "x", Value: 1}})
	_ = s.WriteMetrics([]Metric{{Name: "x", Value: 2}})
	if b := s.Batches(); len(b) != 1 || b[0][0].Value != 2 {
		t.Fatalf("zero-capacity ring = %+v, want just the newest batch", b)
	}
}
