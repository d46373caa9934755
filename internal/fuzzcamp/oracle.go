package fuzzcamp

import (
	"fmt"
	"sort"
	"strings"

	"paracrash/internal/paracrash"
	"paracrash/internal/workloads"
)

// Oracle names, in evaluation order.
const (
	// OracleLattice checks model-lattice monotonicity: legal(strict) ⊆
	// legal(causal) ⊆ legal(commit) and legal(strict) ⊆ legal(baseline), so
	// the inconsistent-state key sets must shrink in the opposite direction
	// (causal ⊆ strict, commit ⊆ causal, baseline ⊆ strict).
	OracleLattice = "lattice"
	// OraclePruning checks pruning soundness at the bug-cause level: the
	// pruning exploration must not report causes brute force does not
	// (no false positives) and must not be vacuously silent when brute force
	// finds bugs. Raw signature equality is deliberately NOT required — the
	// reported operation pair is a per-group representative that shifts with
	// the set of states a strategy classifies, so only the aggregation group
	// (Bug.CauseKey: kind, layer and culprit class, or the in-flight parent
	// op) is comparable across strategies.
	OraclePruning = "pruning"
	// OracleInjected is the test-only injection hook (Config.Inject).
	OracleInjected = "injected"
)

// Violation is one deduplicated oracle failure, after minimization.
type Violation struct {
	Oracle   string
	Backend  string
	Workload string
	// Signature is the dedup identity (oracle, backend and failure cause).
	Signature string
	Detail    string
	// Body is the minimized reproducer body; Preamble is carried unchanged.
	Preamble []workloads.Op
	Body     []workloads.Op
	// MinimizedFrom/MinimizedTo record the body length before and after
	// delta debugging.
	MinimizedFrom int
	MinimizedTo   int
	// CorpusFile is the written repro path ("" when no corpus dir was set
	// or minimization could not preserve the failure).
	CorpusFile string
}

// pending is a detected violation awaiting the deterministic
// dedup/minimize/corpus pass. pred re-judges a candidate body against the
// specific failing oracle (nil when the violation is not minimizable).
type pending struct {
	v    *Violation
	pred func(body []workloads.Op) bool
}

// latticeEdge is one inclusion to check: violations(sub) ⊆ violations(super).
type latticeEdge struct {
	sub, super paracrash.Model
}

func latticeEdges() []latticeEdge {
	return []latticeEdge{
		{paracrash.ModelCausal, paracrash.ModelStrict},
		{paracrash.ModelCommit, paracrash.ModelCausal},
		{paracrash.ModelBaseline, paracrash.ModelStrict},
	}
}

// stateKeys collects the report's inconsistent-state identity keys.
func stateKeys(rep *paracrash.Report) map[string]bool {
	out := make(map[string]bool, len(rep.States))
	for _, st := range rep.States {
		out[st.Key] = true
	}
	return out
}

// causeKeys collects the server-stripped bug cause classes of a report.
func causeKeys(rep *paracrash.Report) map[string]bool {
	out := make(map[string]bool, len(rep.Bugs))
	for _, b := range rep.Bugs {
		out[b.CauseKey()] = true
	}
	return out
}

// missingFrom returns the keys of sub absent from super, sorted.
func missingFrom(sub, super map[string]bool) []string {
	var out []string
	for k := range sub {
		if !super[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// evalCell runs the full oracle battery for one workload × backend cell:
// four brute runs (one per consistency model) and the pruning run — five
// explorer invocations.
func (c *campaign) evalCell(backend string, prog *workloads.Program) ([]*pending, error) {
	models := []paracrash.Model{
		paracrash.ModelStrict, paracrash.ModelCommit,
		paracrash.ModelCausal, paracrash.ModelBaseline,
	}
	brute := map[paracrash.Model]*paracrash.Report{}
	for _, m := range models {
		rep, err := c.explore(backend, prog, paracrash.ModeBrute, m)
		if err != nil {
			return nil, fmt.Errorf("brute/%s: %w", m, err)
		}
		brute[m] = rep
	}

	var out []*pending

	// Oracle 1: model-lattice monotonicity over state keys.
	for _, e := range latticeEdges() {
		e := e
		missing := missingFrom(stateKeys(brute[e.sub]), stateKeys(brute[e.super]))
		if len(missing) == 0 {
			continue
		}
		out = append(out, &pending{
			v: &Violation{
				Oracle: OracleLattice, Backend: backend, Workload: prog.Name(),
				Signature: fmt.Sprintf("%s|%s|%s⊆%s|%s", OracleLattice, backend, e.sub, e.super, missing[0]),
				Detail: fmt.Sprintf("state(s) inconsistent under %s but not under %s: %s",
					e.sub, e.super, strings.Join(capList(missing, 3), ", ")),
			},
			pred: func(body []workloads.Op) bool {
				p := workloads.NewProgram(prog.Name(), prog.PreambleOps(), body)
				sub, err := c.explore(backend, p, paracrash.ModeBrute, e.sub)
				if err != nil {
					return false
				}
				super, err := c.explore(backend, p, paracrash.ModeBrute, e.super)
				if err != nil {
					return false
				}
				return len(missingFrom(stateKeys(sub), stateKeys(super))) > 0
			},
		})
	}

	// Oracle 2: pruning soundness against the causal brute run.
	bruteCauses := causeKeys(brute[paracrash.ModelCausal])
	rep, err := c.explore(backend, prog, paracrash.ModePruning, paracrash.ModelCausal)
	if err != nil {
		return nil, fmt.Errorf("pruning/causal: %w", err)
	}
	pred := func(body []workloads.Op) bool {
		p := workloads.NewProgram(prog.Name(), prog.PreambleOps(), body)
		b, err := c.explore(backend, p, paracrash.ModeBrute, paracrash.ModelCausal)
		if err != nil {
			return false
		}
		pr, err := c.explore(backend, p, paracrash.ModePruning, paracrash.ModelCausal)
		if err != nil {
			return false
		}
		return len(missingFrom(causeKeys(pr), causeKeys(b))) > 0 ||
			(len(b.Bugs) > 0 && len(pr.Bugs) == 0)
	}
	if stray := missingFrom(causeKeys(rep), bruteCauses); len(stray) > 0 {
		out = append(out, &pending{
			v: &Violation{
				Oracle: OraclePruning, Backend: backend, Workload: prog.Name(),
				Signature: fmt.Sprintf("%s|%s|pruning|stray|%s", OraclePruning, backend, stray[0]),
				Detail: fmt.Sprintf("pruning reports cause(s) brute force does not: %s",
					strings.Join(capList(stray, 3), ", ")),
			},
			pred: pred,
		})
	} else if len(brute[paracrash.ModelCausal].Bugs) > 0 && len(rep.Bugs) == 0 {
		out = append(out, &pending{
			v: &Violation{
				Oracle: OraclePruning, Backend: backend, Workload: prog.Name(),
				Signature: fmt.Sprintf("%s|%s|pruning|vacuous", OraclePruning, backend),
				Detail:    fmt.Sprintf("brute force finds %d cause group(s) but pruning finds none", len(bruteCauses)),
			},
			pred: pred,
		})
	}

	// Oracle 3: the injection hook (tests only).
	if c.cfg.Inject != nil {
		if detail := c.cfg.Inject(backend, prog); detail != "" {
			out = append(out, &pending{
				v: &Violation{
					Oracle: OracleInjected, Backend: backend, Workload: prog.Name(),
					Signature: fmt.Sprintf("%s|%s|%s", OracleInjected, backend, detail),
					Detail:    detail,
				},
				pred: func(body []workloads.Op) bool {
					p := workloads.NewProgram(prog.Name(), prog.PreambleOps(), body)
					return c.runsClean(backend, p) && c.cfg.Inject(backend, p) != ""
				},
			})
		}
	}
	return out, nil
}

// capList truncates a string list for detail messages.
func capList(s []string, n int) []string {
	if len(s) <= n {
		return s
	}
	return append(append([]string(nil), s[:n]...), fmt.Sprintf("… (%d more)", len(s)-n))
}
