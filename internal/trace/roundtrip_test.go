package trace_test

import (
	"testing"

	"paracrash/internal/causality"
	"paracrash/internal/pfs"
	"paracrash/internal/pfs/beegfs"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

// TestGoldenTraceRoundTrip records a real ARVR execution on BeeGFS, pushes
// the trace through Encode/Decode, and checks that the decoded trace rebuilds
// an identical causality graph: same node count, same happens-before relation
// edge for edge, and the same lowermost-op universe. This is the contract
// the -dump-trace / offline-analysis path relies on.
func TestGoldenTraceRoundTrip(t *testing.T) {
	rec := trace.NewRecorder()
	fs := beegfs.New(pfs.DefaultConfig(), rec)
	w := workloads.ARVR()

	rec.SetEnabled(false)
	if err := w.Preamble(fs); err != nil {
		t.Fatalf("preamble: %v", err)
	}
	rec.Reset()
	rec.SetEnabled(true)
	if err := w.Run(fs); err != nil {
		t.Fatalf("run: %v", err)
	}
	rec.SetEnabled(false)

	ops := rec.Ops()
	if len(ops) == 0 {
		t.Fatal("empty trace")
	}

	data, err := trace.Encode(ops)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := trace.Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(decoded) != len(ops) {
		t.Fatalf("decoded %d ops, recorded %d", len(decoded), len(ops))
	}

	g1 := causality.Build(ops)
	g2 := causality.Build(decoded)
	if g1.Len() != g2.Len() {
		t.Fatalf("graph sizes differ: %d vs %d", g1.Len(), g2.Len())
	}
	for i := 0; i < g1.Len(); i++ {
		for j := 0; j < g1.Len(); j++ {
			if g1.HB(i, j) != g2.HB(i, j) {
				t.Errorf("HB(%d,%d): original %v, decoded %v (%s / %s)",
					i, j, g1.HB(i, j), g2.HB(i, j), g1.Ops[i], g2.Ops[j])
			}
		}
	}

	// The replay universe must survive too: same lowermost ops with the
	// same keys in the same order.
	lo1, lo2 := trace.Filter(ops, (*trace.Op).IsLowermost), trace.Filter(decoded, (*trace.Op).IsLowermost)
	if len(lo1) != len(lo2) {
		t.Fatalf("lowermost counts differ: %d vs %d", len(lo1), len(lo2))
	}
	for i := range lo1 {
		if lo1[i].Key() != lo2[i].Key() {
			t.Errorf("lowermost op %d: key %q vs %q", i, lo1[i].Key(), lo2[i].Key())
		}
		if string(lo1[i].Data) != string(lo2[i].Data) {
			t.Errorf("lowermost op %d: payload bytes differ", i)
		}
	}
}
