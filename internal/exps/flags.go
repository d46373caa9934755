package exps

import (
	"flag"
	"fmt"

	"paracrash/internal/faultinject"
	"paracrash/internal/paracrash"
)

// FaultFlags are the fault-plane flags both commands take: how often a
// crash state is retried before it is quarantined, and the injected faults.
type FaultFlags struct {
	Retry paracrash.RetryPolicy
	Seed  int64
	Rate  float64
}

// Register declares -retries, -retry-backoff, -fault-seed and -fault-rate
// on fl, each usage string behind prefix.
func (f *FaultFlags) Register(fl *flag.FlagSet, prefix string) {
	fl.IntVar(&f.Retry.MaxAttempts, "retries", 0, prefix+"max attempts per crash-state check that hits injected faults before quarantining it; other errors quarantine at once (0 = default 3)")
	fl.DurationVar(&f.Retry.Backoff, "retry-backoff", 0, prefix+"base backoff between check retries (0 = default 2ms)")
	fl.Int64Var(&f.Seed, "fault-seed", 0, prefix+"fault-injection seed (with -fault-rate)")
	fl.Float64Var(&f.Rate, "fault-rate", 0, prefix+"inject faults into the engine's own I/O with this probability in [0,1] (0 = off)")
}

// Validate reports the first flag out of range, naming it.
func (f *FaultFlags) Validate() error {
	switch {
	case f.Retry.MaxAttempts < 0:
		return fmt.Errorf("-retries must be >= 0 (0 = default), got %d", f.Retry.MaxAttempts)
	case f.Retry.Backoff < 0:
		return fmt.Errorf("-retry-backoff must be >= 0 (0 = default), got %v", f.Retry.Backoff)
	case f.Rate < 0 || f.Rate > 1:
		return fmt.Errorf("-fault-rate must be in [0,1], got %g", f.Rate)
	}
	return nil
}

// Plan is the fault plan the flags arm, nil when -fault-rate is 0.
func (f *FaultFlags) Plan() *faultinject.Plan {
	if f.Rate == 0 {
		return nil
	}
	return faultinject.New(faultinject.Config{Seed: f.Seed, Rate: f.Rate})
}
