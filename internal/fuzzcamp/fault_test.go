package fuzzcamp

import (
	"testing"
	"time"

	"paracrash/internal/exps"
	core "paracrash/internal/paracrash"
)

// TestCampaignHealsInjectedFaults: with the default retry budget, bounded
// injected faults (one per point) heal inside the explorer, so the campaign
// stays green with no cells abandoned — fault transparency end to end.
func TestCampaignHealsInjectedFaults(t *testing.T) {
	res, err := Run(Config{
		Backends: []string{"ext4", "glusterfs"},
		Seeds:    2,
		EnumOps:  1,
		Faults:   exps.FaultFlags{Seed: 33, Rate: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("faulted campaign not green:\n%s", res.Format())
	}
	if res.CellsFaulted != 0 {
		t.Fatalf("bounded faults abandoned %d cells, want 0 (retries heal them)", res.CellsFaulted)
	}
}

// TestCampaignQuarantinesHardFaultedCells: with the retry budget floored at
// one attempt and a rate-1 fault plane, every cell's golden replay faults
// and cannot heal; the campaign must count the cells as abandoned and still
// finish green instead of erroring out.
func TestCampaignQuarantinesHardFaultedCells(t *testing.T) {
	res, err := Run(Config{
		Backends: []string{"ext4"},
		Seeds:    2,
		EnumOps:  0,
		Faults:   exps.FaultFlags{Seed: 1, Rate: 1, Retry: core.RetryPolicy{MaxAttempts: 1, Backoff: time.Microsecond}},
	})
	if err != nil {
		t.Fatalf("hard-faulted campaign aborted: %v", err)
	}
	if res.CellsFaulted == 0 {
		t.Fatalf("rate-1 faults with a single-attempt budget abandoned no cells:\n%s", res.Format())
	}
	if !res.OK() {
		t.Fatalf("abandoned cells flipped the campaign red:\n%s", res.Format())
	}
	if got := res.Format(); !containsFaultLine(got) {
		t.Fatalf("Format() does not report abandoned cells:\n%s", got)
	}
}

func containsFaultLine(s string) bool {
	for i := 0; i+len("abandoned") <= len(s); i++ {
		if s[i:i+len("abandoned")] == "abandoned" {
			return true
		}
	}
	return false
}
