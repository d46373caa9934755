package exps

import (
	"testing"

	"paracrash/internal/paracrash"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

// TestGeneratorBackendConformance is the generator × backend conformance
// matrix: every generated workload must run cleanly on every backend (the
// generator's namespace model matches each file system's semantics) and
// repeated explorations must produce byte-identical reports (the whole
// pipeline — trace, graph, emulation, reconstruction, recovery, check,
// classification — is deterministic per backend). The fuzz campaign builds
// on both properties; this pins them directly.
func TestGeneratorBackendConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("backend matrix in -short mode")
	}
	const seeds = 8
	for _, fsName := range FSNames() {
		fsName := fsName
		t.Run(fsName, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < seeds; seed++ {
				prog := workloads.Generate(workloads.DefaultGenConfig(seed))
				explore := func() *paracrash.Report {
					t.Helper()
					fs, err := NewFS(fsName, ConfigFor(fsName), trace.NewRecorder())
					if err != nil {
						t.Fatal(err)
					}
					rep, err := paracrash.Run(fs, nil, prog, paracrash.DefaultOptions())
					if err != nil {
						t.Fatalf("seed %d does not run cleanly on %s: %v", seed, fsName, err)
					}
					return rep
				}
				first, second := explore(), explore()
				if ReportFingerprint(first) != ReportFingerprint(second) {
					t.Fatalf("seed %d explores nondeterministically on %s:\nfirst:\n%s\nsecond:\n%s",
						seed, fsName, ReportFingerprint(first), ReportFingerprint(second))
				}
				if first.Stats.StatesChecked == 0 {
					t.Fatalf("seed %d on %s checked no crash states", seed, fsName)
				}
			}
		})
	}
}
