// Package faultinject is the deterministic, seedable fault plane of the
// daemon's persistence layer (internal/statefs): a Plan decides — purely
// from (seed, site, key) — whether a given fault point misbehaves, and how
// (an injected I/O error, or a torn write). The decision function is a
// hash, not a sequential RNG, so it is independent of goroutine scheduling.
//
// Every injection at a (site, key) pair is bounded by MaxPerPoint; once a
// point has injected its quota it heals permanently, so a retried write
// deterministically succeeds.
//
// A nil *Plan is a valid, allocation-free no-op (the same convention as
// internal/obs), so fault points cost nothing when injection is off.
package faultinject

import (
	"errors"
	"fmt"
	"sync"
)

// Kind enumerates the fault flavours a Plan can inject.
type Kind int

const (
	// KindErr is a generic injected I/O error.
	KindErr Kind = iota
	// KindTorn is a torn write: the caller persists a partial payload
	// before surfacing the error (see statefs).
	KindTorn
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case KindErr:
		return "io-error"
	case KindTorn:
		return "torn-write"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// allKinds is the default fault mix of a Plan with no explicit Kinds.
var allKinds = []Kind{KindErr, KindTorn}

// Config parameterises a Plan.
type Config struct {
	// Seed selects the deterministic fault pattern.
	Seed int64
	// Rate is the per-point injection probability in [0, 1]; values
	// outside the range are clamped. 0 disables injection.
	Rate float64
	// Kinds is the fault mix to draw from (nil/empty = both kinds).
	Kinds []Kind
	// Sites, when non-empty, restricts injection to the named fault
	// sites (e.g. "statefs/serve/job-record"); other sites never
	// fault.
	Sites []string
	// MaxPerPoint bounds injections per (site, key) pair; after the quota
	// the point heals permanently (0 = default 1).
	MaxPerPoint int
}

// Error is the error value surfaced by injected faults. Use Is to
// distinguish injected errors from genuine ones.
type Error struct {
	Kind Kind
	Site string
	Key  string
}

// Error renders the injected fault.
func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: injected %s (site %s, key %s)", e.Kind, e.Site, e.Key)
}

// Is reports whether err is (or wraps) an injected fault.
func Is(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// Plan is an armed fault configuration. Methods are safe for concurrent
// use; a nil Plan never injects.
type Plan struct {
	cfg   Config
	sites map[string]bool

	mu   sync.Mutex
	hits map[string]int // per-(site, key) injections so far
}

// New arms a Plan over cfg. A rate of 0 yields a Plan that never injects
// (equivalent to a nil Plan).
func New(cfg Config) *Plan {
	cfg.Rate = min(max(cfg.Rate, 0), 1)
	if len(cfg.Kinds) == 0 {
		cfg.Kinds = allKinds
	}
	if cfg.MaxPerPoint <= 0 {
		cfg.MaxPerPoint = 1
	}
	p := &Plan{cfg: cfg, hits: map[string]int{}}
	if len(cfg.Sites) > 0 {
		p.sites = map[string]bool{}
		for _, s := range cfg.Sites {
			p.sites[s] = true
		}
	}
	return p
}

// fnv64a hashes the byte string with FNV-1a (inlined to keep the decision
// function self-contained and stable).
func fnv64a(parts ...string) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	for _, s := range parts {
		for i := 0; i < len(s); i++ {
			mix(s[i])
		}
		mix(0) // separator so ("ab","c") != ("a","bc")
	}
	return h
}

// decide returns the fault kind drawn for (site, key), or false when the
// point does not fault under this plan. Pure function of the config.
func (p *Plan) decide(site, key string) (Kind, bool) {
	if p.sites != nil && !p.sites[site] {
		return 0, false
	}
	seed := fmt.Sprintf("%d", p.cfg.Seed)
	h := fnv64a(seed, site, key)
	// 53 uniform bits -> [0, 1).
	if float64(h>>11)/(1<<53) >= p.cfg.Rate {
		return 0, false
	}
	h2 := fnv64a(seed, site, key, "kind")
	return p.cfg.Kinds[h2%uint64(len(p.cfg.Kinds))], true
}

// take consumes one injection slot for (site, key); false means the point
// has already injected its quota and is healed.
func (p *Plan) take(site, key string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := site + "\x00" + key
	if p.hits[k] >= p.cfg.MaxPerPoint {
		return false
	}
	p.hits[k]++
	return true
}

// Point is a fault point: it returns the injected error drawn for (site,
// key), if any. Callers that cannot tolerate a torn payload treat KindTorn
// as a plain error. Nil-safe.
func (p *Plan) Point(site, key string) error {
	if p == nil || p.cfg.Rate == 0 {
		return nil
	}
	kind, ok := p.decide(site, key)
	if !ok || !p.take(site, key) {
		return nil
	}
	return &Error{Kind: kind, Site: site, Key: key}
}
