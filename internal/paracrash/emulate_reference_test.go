package paracrash

import (
	"context"
	"fmt"

	"paracrash/internal/causality"
	"paracrash/internal/obs"
	"paracrash/internal/pfs"
)

// emulatorReference is Algorithm 1 as Generate ran it before the closure
// table, kept as the oracle: per victim a worklist closure over
// PersistsBefore confined to the front, sync coverage as a map ranged per
// state, every victim combination materialised, and one run-long seen set
// keyed by Front|Keep. It reads the persist order only through
// PersistsBefore.
type emulatorReference struct {
	e         *Emulator
	coveredBy map[int][]int
}

func newEmulatorReference(e *Emulator, pc causality.PersistConfig) *emulatorReference {
	r := &emulatorReference{e: e, coveredBy: map[int][]int{}}
	for _, s := range e.Universe {
		os := e.G.Ops[s]
		if !os.Sync {
			continue
		}
		for _, i := range e.Universe {
			oi := e.G.Ops[i]
			if i == s || oi.Proc != os.Proc || !e.G.HB(i, s) {
				continue
			}
			if pc.IsBlock(oi.Proc) || (os.FileID != "" && os.FileID == oi.FileID) {
				r.coveredBy[s] = append(r.coveredBy[s], i)
			}
		}
	}
	return r
}

func (r *emulatorReference) referenceDependsOn(victim int, within causality.Bitset) causality.Bitset {
	out := causality.NewBitset(r.e.G.Len())
	out.Set(victim)
	work := []int{victim}
	for len(work) > 0 {
		a := work[0]
		work = work[1:]
		for _, b := range r.e.Universe {
			if within.Get(b) && !out.Get(b) && r.e.PO.PersistsBefore(a, b) {
				out.Set(b)
				work = append(work, b)
			}
		}
	}
	return out
}

func (r *emulatorReference) referenceSyncFeasible(front, keep causality.Bitset) bool {
	for s, covered := range r.coveredBy {
		if !front.Get(s) {
			continue
		}
		for _, o := range covered {
			if front.Get(o) && !keep.Get(o) {
				return false
			}
		}
	}
	return true
}

// referenceGenerate returns the number of states visited and of victim
// combinations materialised.
func (r *emulatorReference) referenceGenerate(cfg EmulatorConfig, visit func(CrashState) bool) (count, combos int) {
	e := r.e
	seen := map[string]bool{}
	stopped := false

	emit := func(cs CrashState) bool {
		if !r.referenceSyncFeasible(cs.Front, cs.Keep) {
			return true
		}
		key := cs.Front.Key() + "|" + cs.Keep.Key()
		if seen[key] {
			return true
		}
		seen[key] = true
		count++
		if !visit(cs) || (cfg.MaxStates > 0 && count >= cfg.MaxStates) {
			stopped = true
			return false
		}
		return true
	}

	perFront := func(front causality.Bitset) bool {
		var cands []int
		for _, i := range e.Universe {
			if front.Get(i) && (cfg.VictimFilter == nil || cfg.VictimFilter(e.G.Ops[i])) {
				cands = append(cands, i)
			}
		}
		if !emit(CrashState{Front: front, Keep: front.Clone()}) {
			return false
		}
		var choose func(start int, chosen []int) bool
		choose = func(start int, chosen []int) bool {
			if len(chosen) > 0 {
				combos++
				keep := front.Clone()
				for _, v := range chosen {
					keep.Subtract(r.referenceDependsOn(v, front))
				}
				if !emit(CrashState{Front: front, Keep: keep, Victims: append([]int(nil), chosen...)}) {
					return false
				}
			}
			if len(chosen) == cfg.K {
				return true
			}
			for i := start; i < len(cands); i++ {
				if !choose(i+1, append(chosen, cands[i])) {
					return false
				}
			}
			return true
		}
		return choose(0, nil)
	}

	switch cfg.FrontMode {
	case FrontEnd:
		full := causality.NewBitset(e.G.Len())
		for _, i := range e.Universe {
			full.Set(i)
		}
		perFront(full)
	case FrontAllCuts:
		e.G.Ideals(e.Universe, cfg.MaxFronts, func(front causality.Bitset) bool {
			return !stopped && perFront(front)
		})
	}
	return count, combos
}

// EmulatorDiffStats is what EmulatorDiff counted on the way.
type EmulatorDiffStats struct {
	States, Combos, Probed int
}

// EmulatorDiff holds Generate to the reference on one traced cell, exported
// to the external differential suite (the workloads it runs import this
// package). The sequences of (Front, Keep, Victims) must be equal element
// by element under cfg (the cell's own victim filter is put in when
// filter is set), and on an uncapped run every combination the reference
// materialised must be accounted for as tested or as a closure hit. With
// probe set it then runs every generated state through the session's check
// and the classifier the way the pipeline does, and requires Required-based
// feasibility and DependsOn to agree with the reference on every
// (front, keep) and (victim, front) that came up.
func EmulatorDiff(fs pfs.FileSystem, lib Library, w Workload, cfg EmulatorConfig, filter, probe bool) (EmulatorDiffStats, error) {
	var st EmulatorDiffStats
	opts := DefaultOptions()
	opts.Mode = ModePruning
	opts.Emulator = cfg
	s, err := prepare(context.Background(), fs, lib, w, opts)
	if err != nil {
		return st, err
	}
	if filter {
		cfg = opts.emulatorConfig()
	}
	ref := newEmulatorReference(s.emu, fs.PersistConfig())
	s.emu.Obs = obs.NewRun()

	var want, got []CrashState
	_, st.Combos = ref.referenceGenerate(cfg, func(cs CrashState) bool {
		want = append(want, cs)
		return true
	})
	n := s.emu.Generate(cfg, func(cs CrashState) bool {
		got = append(got, cs)
		return true
	})
	st.States = len(got)
	if n != len(got) {
		return st, fmt.Errorf("Generate returned %d after %d visits", n, len(got))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		g, r := got[i], want[i]
		if !g.Front.Equal(r.Front) || !g.Keep.Equal(r.Keep) || fmt.Sprint(g.Victims) != fmt.Sprint(r.Victims) {
			return st, fmt.Errorf("state %d: front %v keep %v victims %v, reference front %v keep %v victims %v",
				i, g.Front.Members(), g.Keep.Members(), g.Victims, r.Front.Members(), r.Keep.Members(), r.Victims)
		}
	}
	if len(got) != len(want) {
		return st, fmt.Errorf("%d states, reference %d", len(got), len(want))
	}
	if c := s.emu.Obs.Summary().Counters; cfg.MaxStates == 0 && int64(st.Combos)+c["emulate/fronts"] != c["emulate/candidates"]+c["emulate/closure-hits"] {
		return st, fmt.Errorf("reference walked %d combinations over %d fronts; %d tested + %d closure hits do not add up to them",
			st.Combos, c["emulate/fronts"], c["emulate/candidates"], c["emulate/closure-hits"])
	}
	if !probe {
		return st, nil
	}

	fs.Restore(s.initial)
	var mismatch error
	agree := func(cs CrashState) {
		st.Probed++
		if g, r := cs.Keep.ContainsAll(s.emu.PO.Required(cs.Front, nil)), ref.referenceSyncFeasible(cs.Front, cs.Keep); g != r && mismatch == nil {
			mismatch = fmt.Errorf("keep %v holds Required(front %v): %v, reference %v", cs.Keep.Members(), cs.Front.Members(), g, r)
		}
		for _, v := range cs.Victims {
			if g, r := s.emu.PO.DependsOn(v, cs.Front), ref.referenceDependsOn(v, cs.Front); !g.Equal(r) && mismatch == nil {
				mismatch = fmt.Errorf("DependsOn(%d, front %v) = %v, reference %v", v, cs.Front.Members(), g.Members(), r.Members())
			}
		}
	}
	classifier := NewClassifier(s.emu, func(cs CrashState) bool {
		agree(cs)
		return s.probe(cs)
	}, s.status)
	for _, cs := range got {
		agree(cs)
		res := s.check(cs)
		if res.Consistent || res.Skipped {
			continue
		}
		lo := s.pfsOps
		if res.Layer != "pfs" && s.libOps != nil {
			lo = s.libOps
		}
		classifier.ClassifyState(cs, lo)
	}
	return st, mismatch
}

// EmulatorFor traces the cell the way a run does and returns its emulator
// with cfg completed by the pruning mode's victim filter.
func EmulatorFor(fs pfs.FileSystem, lib Library, w Workload, cfg EmulatorConfig) (*Emulator, EmulatorConfig, error) {
	opts := DefaultOptions()
	opts.Mode = ModePruning
	opts.Emulator = cfg
	s, err := prepare(context.Background(), fs, lib, w, opts)
	if err != nil {
		return nil, cfg, err
	}
	return s.emu, opts.emulatorConfig(), nil
}
