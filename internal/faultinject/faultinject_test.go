package faultinject

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestNilPlanIsNoOp: the nil Plan contract — Point is safe and inert.
func TestNilPlanIsNoOp(t *testing.T) {
	var p *Plan
	if err := p.Point("statefs/job", "s0"); err != nil {
		t.Fatalf("nil plan injected: %v", err)
	}
}

// TestZeroRateNeverInjects: Rate 0 must behave exactly like a nil plan.
func TestZeroRateNeverInjects(t *testing.T) {
	p := New(Config{Seed: 1, Rate: 0})
	for i := 0; i < 1000; i++ {
		if err := p.Point("site", fmt.Sprintf("k%d", i)); err != nil {
			t.Fatalf("rate-0 plan injected: %v", err)
		}
	}
}

// TestDecideIsDeterministic: two plans with the same config draw identical
// fault decisions for identical (site, key) pairs — the property that makes
// faults schedule-independent.
func TestDecideIsDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Rate: 0.5}
	a, b := New(cfg), New(cfg)
	for i := 0; i < 500; i++ {
		site := fmt.Sprintf("site%d", i%3)
		key := fmt.Sprintf("key%d", i)
		ka, oka := a.decide(site, key)
		kb, okb := b.decide(site, key)
		if oka != okb || ka != kb {
			t.Fatalf("plans diverge at (%s,%s): (%v,%v) vs (%v,%v)", site, key, ka, oka, kb, okb)
		}
	}
}

// TestSeedChangesPattern: different seeds must draw different fault sets
// (overwhelmingly likely over 500 points at rate 0.5).
func TestSeedChangesPattern(t *testing.T) {
	a := New(Config{Seed: 1, Rate: 0.5})
	b := New(Config{Seed: 2, Rate: 0.5})
	diff := 0
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key%d", i)
		_, oka := a.decide("s", key)
		_, okb := b.decide("s", key)
		if oka != okb {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seeds 1 and 2 drew identical fault patterns over 500 points")
	}
}

// TestRateIsRoughlyHonoured: at rate 0.3 over 2000 points the injection
// fraction should land well inside [0.2, 0.4].
func TestRateIsRoughlyHonoured(t *testing.T) {
	p := New(Config{Seed: 7, Rate: 0.3})
	hit := 0
	for i := 0; i < 2000; i++ {
		if _, ok := p.decide("s", fmt.Sprintf("k%d", i)); ok {
			hit++
		}
	}
	frac := float64(hit) / 2000
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("rate 0.3 produced injection fraction %.3f", frac)
	}
}

// TestMaxPerPointHeals: a point injects exactly its quota, then heals —
// the property a retried write relies on.
func TestMaxPerPointHeals(t *testing.T) {
	p := New(Config{Seed: 3, Rate: 1, Kinds: []Kind{KindErr}, MaxPerPoint: 2})
	for i := 0; i < 2; i++ {
		if err := p.Point("s", "k"); !Is(err) {
			t.Fatalf("attempt %d: want injected error, got %v", i, err)
		}
	}
	if err := p.Point("s", "k"); err != nil {
		t.Fatalf("point did not heal after quota: %v", err)
	}
}

// TestSitesFilter: a plan restricted to one site never faults others.
func TestSitesFilter(t *testing.T) {
	p := New(Config{Seed: 5, Rate: 1, Kinds: []Kind{KindErr}, Sites: []string{"statefs/job"}})
	if err := p.Point("statefs/lease", "x"); err != nil {
		t.Fatalf("filtered site faulted: %v", err)
	}
	if err := p.Point("statefs/job", "x"); !Is(err) {
		t.Fatalf("allowed site did not fault: %v", err)
	}
}

// TestIsAndWrapping: Is sees through fmt.Errorf %w wrapping and rejects
// ordinary errors.
func TestIsAndWrapping(t *testing.T) {
	inner := &Error{Kind: KindTorn, Site: "s", Key: "k"}
	if !Is(fmt.Errorf("outer: %w", inner)) {
		t.Fatal("Is missed a wrapped injected error")
	}
	if Is(errors.New("genuine")) {
		t.Fatal("Is claimed a genuine error")
	}
	if Is(nil) {
		t.Fatal("Is claimed nil")
	}
}

// TestConcurrentPoints: the quota bookkeeping is race-free and exact under
// concurrent access (run with -race in CI).
func TestConcurrentPoints(t *testing.T) {
	p := New(Config{Seed: 17, Rate: 1, Kinds: []Kind{KindErr}, MaxPerPoint: 5})
	var wg sync.WaitGroup
	var mu sync.Mutex
	injected := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := p.Point("s", "shared"); err != nil {
					mu.Lock()
					injected++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if injected != 5 {
		t.Fatalf("shared point injected %d times, want exactly MaxPerPoint=5", injected)
	}
}

// TestErrorText: the error names the kind, the site and the key, and every
// kind has a name.
func TestErrorText(t *testing.T) {
	e := &Error{Kind: KindTorn, Site: "statefs/job", Key: "j1"}
	if want := "faultinject: injected torn-write (site statefs/job, key j1)"; e.Error() != want {
		t.Fatalf("error text %q, want %q", e.Error(), want)
	}
	for _, k := range allKinds {
		if k.String() == "" {
			t.Fatalf("kind %d has empty name", int(k))
		}
	}
}
