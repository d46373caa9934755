package paracrash

import (
	"paracrash/internal/causality"
	"paracrash/internal/obs"
	"paracrash/internal/trace"
)

// FrontMode selects how crash fronts (consistent cuts) are enumerated.
type FrontMode int

const (
	// FrontEnd emulates a crash after the whole program executed; only
	// persistence reordering is explored.
	FrontEnd FrontMode = iota
	// FrontAllCuts enumerates every consistent cut of the lowermost
	// causality graph as a potential crash front (the paper's normal
	// states), bounded by MaxFronts.
	FrontAllCuts
)

// CrashState is one emulated post-crash storage state: the lowermost ops
// that executed before the crash (Front) and the subset of those that
// persisted (Keep). Applying Keep in recording order to the initial
// snapshot reconstructs the state.
type CrashState struct {
	// Front and Keep are bitsets over causality-graph node indices.
	Front causality.Bitset
	Keep  causality.Bitset
	// Victims are the graph nodes chosen as unpersisted seeds (Algorithm
	// 1's victim set); Keep = Front minus the persistence closure of the
	// victims.
	Victims []int
}

// EmulatorConfig bounds crash-state generation.
type EmulatorConfig struct {
	// K is the maximum number of victims per front (Algorithm 1's k).
	K int
	// FrontMode selects the crash-front enumeration.
	FrontMode FrontMode
	// MaxFronts caps consistent-cut enumeration (0 = unlimited).
	MaxFronts int
	// MaxStates caps the total number of generated crash states (0 =
	// unlimited).
	MaxStates int
	// VictimFilter, when non-nil, rejects victim candidates (used by the
	// semantic pruning: data-chunk writes are not reordered). A run derives
	// it from Options.Mode and ignores the value in Options.Emulator; it is
	// for callers of Generate.
	VictimFilter func(*trace.Op) bool `json:"-"`
}

// Emulator generates crash states from a traced execution (Algorithm 1).
type Emulator struct {
	G        *causality.Graph
	Universe []int // replayable lowermost node indices, in recording order
	PO       *causality.PersistOrder
	// Obs, when set, receives generation counters (emulate/fronts,
	// emulate/states and the effort breakdown behind them, see Generate).
	// Nil disables collection at zero cost.
	Obs *obs.Run
}

// NewEmulator prepares crash emulation over the trace graph. The universe
// is every lowermost op carrying a replayable payload (communication events
// participate in causality but are not replayed).
func NewEmulator(g *causality.Graph, pc causality.PersistConfig) *Emulator {
	var universe []int
	for i, o := range g.Ops {
		if o.IsLowermost() && o.Payload != nil {
			universe = append(universe, i)
		}
	}
	return &Emulator{
		G:        g,
		Universe: universe,
		PO:       causality.NewPersistOrder(g, universe, pc),
	}
}

// Generate enumerates crash states, invoking visit for each; enumeration
// stops when visit returns false or a cap is hit. Returns the number of
// states visited.
//
// Victim candidates pass VictimFilter once per run; per front they are the
// survivors inside the front. Per front, a combination of victims is a drop
// set — the union of the victims' precomputed persists-before closures
// (PersistOrder.Closure), one scratch bitset per depth — and its keep set is
// front AND-NOT drop, built in the same pass over the words. A victim
// already in the drop set leaves the keep set as its parent combination's,
// which was tested before it, so it is descended through on its parent's
// drop set but not tested again; at the last depth it is only counted. A
// keep set is feasible when it holds the front's required mask
// (PersistOrder.Required, once per front). Feasibility and duplicate
// detection run on the scratch; Keep and Victims are copied only for an
// emitted state, which owns them. Duplicates are tracked per front on Keep
// alone (word hash, then Equal) and forgotten at the next front: Ideals
// yields each front once, so (Front, Keep) pairs cannot repeat across
// fronts, and the emulator holds no per-state data past the front that
// produced it.
//
// MaxStates and MaxFronts end the run only once a further state or front
// shows up, and then set emulate/states-capped or emulate/fronts-capped: a
// run that reaches a cap exactly with nothing left is complete, not capped.
func (e *Emulator) Generate(cfg EmulatorConfig, visit func(CrashState) bool) int {
	count := 0
	var candidates, duplicates, infeasible, closureHits int64
	ctrFronts := e.Obs.Counter("emulate/fronts")
	ctrStates := e.Obs.Counter("emulate/states")
	ctrStatesCapped := e.Obs.Counter("emulate/states-capped")
	ctrFrontsCapped := e.Obs.Counter("emulate/fronts-capped")

	n, k := e.G.Len(), max(cfg.K, 0)
	var front causality.Bitset
	keep, required := causality.NewBitset(n), causality.NewBitset(n)
	drop := make([]causality.Bitset, k+1) // drop[d]: scratch for the closures of d victims
	for d := range drop {
		drop[d] = causality.NewBitset(n)
	}
	chosen := make([]int, 0, k)
	seen := map[uint64][]causality.Bitset{} // this front's emitted keep sets, by hash

	// test judges the keep scratch and emits a copy when it is a new,
	// physically possible state: an op covered by a completed sync cannot
	// be lost.
	test := func() bool {
		candidates++
		if !keep.ContainsAll(required) {
			infeasible++
			return true
		}
		h := keep.Hash()
		for _, prev := range seen[h] {
			if prev.Equal(keep) {
				duplicates++
				return true
			}
		}
		if cfg.MaxStates > 0 && count >= cfg.MaxStates {
			candidates-- // the state that proves the cap cut something off is not part of the run
			ctrStatesCapped.Inc()
			return false
		}
		seen[h] = append(seen[h], keep.Clone())
		count++
		ctrStates.Inc()
		return visit(CrashState{Front: front, Keep: keep.Clone(), Victims: append([]int(nil), chosen...)})
	}

	var pool, cands []int
	for _, i := range e.Universe {
		if cfg.VictimFilter == nil || cfg.VictimFilter(e.G.Ops[i]) {
			pool = append(pool, i)
		}
	}
	// choose extends the combination of d victims whose drop set is dropped
	// by one more victim from cands[start:].
	var choose func(start, d int, dropped causality.Bitset) bool
	choose = func(start, d int, dropped causality.Bitset) bool {
		next := drop[d+1]
		for i := start; i < len(cands); i++ {
			v := cands[i]
			chosen = append(chosen[:d], v)
			if dropped.Get(v) {
				closureHits++
				if d+1 < k && !choose(i+1, d+1, dropped) {
					return false
				}
				continue
			}
			cl := e.PO.Closure(v)
			for w, x := range dropped {
				x |= cl[w]
				next[w] = x
				keep[w] = front[w] &^ x
			}
			if !test() {
				return false
			}
			if d+1 < k && !choose(i+1, d+1, next) {
				return false
			}
		}
		return true
	}

	perFront := func(f causality.Bitset) bool {
		ctrFronts.Inc()
		front = f
		clear(seen)
		cands = cands[:0]
		for _, i := range pool {
			if front.Get(i) {
				cands = append(cands, i)
			}
		}
		required = e.PO.Required(front, required)
		// n = 0: the normal state (everything persisted); then 1..K victims.
		chosen = chosen[:0]
		copy(keep, front)
		return test() && (k == 0 || choose(0, 0, drop[0]))
	}

	switch cfg.FrontMode {
	case FrontEnd:
		full := causality.NewBitset(n)
		for _, i := range e.Universe {
			full.Set(i)
		}
		perFront(full)
	case FrontAllCuts:
		// The cap is applied here, on the front after the last allowed one,
		// which tells a capped enumeration from one that ended at the cap.
		fronts := 0
		e.G.Ideals(e.Universe, 0, func(f causality.Bitset) bool {
			if fronts++; cfg.MaxFronts > 0 && fronts > cfg.MaxFronts {
				ctrFrontsCapped.Inc()
				return false
			}
			return perFront(f)
		})
	}
	e.Obs.Counter("emulate/candidates").Add(candidates)
	e.Obs.Counter("emulate/duplicates").Add(duplicates)
	e.Obs.Counter("emulate/infeasible").Add(infeasible)
	e.Obs.Counter("emulate/closure-hits").Add(closureHits)
	return count
}

// ServerOps returns, for each proc, the universe nodes on that proc in
// order. Used by the incremental reconstruction to diff states per server.
func (e *Emulator) ServerOps() map[string][]int {
	out := map[string][]int{}
	for _, i := range e.Universe {
		p := e.G.Ops[i].Proc
		out[p] = append(out[p], i)
	}
	return out
}
