// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6). Absolute times differ from the paper's testbed (the substrate here
// is a simulator), but the relative shape — which file systems are worse,
// how pruning and incremental reconstruction pay off, how exploration
// scales with servers — is the reproduction target; see EXPERIMENTS.md.
//
// Run with:
//
//	go test -bench=. -benchmem
package paracrash_test

import (
	"fmt"
	"testing"

	"paracrash/internal/exps"
	core "paracrash/internal/paracrash"
	"paracrash/internal/workloads"
)

// BenchmarkTable1_Classification measures the pairwise Table 1
// classification embedded in a full ARVR/BeeGFS run (the classifier work
// dominates once a state fails).
func BenchmarkTable1_Classification(b *testing.B) {
	prog, _ := exps.ProgramByName("ARVR")
	h5p := workloads.DefaultH5Params()
	for i := 0; i < b.N; i++ {
		rep, err := exps.RunOne("beegfs", prog, core.DefaultOptions(), h5p, exps.ConfigFor("beegfs"))
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Bugs) == 0 {
			b.Fatal("no bugs classified")
		}
	}
}

// BenchmarkTable3_BugDiscovery runs the full 11-program × 6-file-system
// matrix and aggregates the discovered bugs — the whole Table 3.
func BenchmarkTable3_BugDiscovery(b *testing.B) {
	h5p := workloads.DefaultH5Params()
	for i := 0; i < b.N; i++ {
		rows := exps.Table3(core.DefaultOptions(), h5p)
		if len(rows) < 10 {
			b.Fatalf("only %d bug rows discovered", len(rows))
		}
		b.ReportMetric(float64(len(rows)), "bugs")
	}
}

// BenchmarkFig5_Models checks the Figure 5 example against all four
// consistency models.
func BenchmarkFig5_Models(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := exps.Fig5()
		if len(out) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkFig8_<fs> runs the full test-program column for one file system
// (the per-file-system group of Figure 8 bars).
func benchmarkFig8(b *testing.B, fsName string) {
	h5p := workloads.DefaultH5Params()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, prog := range exps.Programs() {
			rep, err := exps.RunOne(fsName, prog, core.DefaultOptions(), h5p, exps.ConfigFor(fsName))
			if err != nil {
				b.Fatal(err)
			}
			total += rep.Inconsistent
		}
		b.ReportMetric(float64(total), "inconsistent")
	}
}

func BenchmarkFig8_BeeGFS(b *testing.B)    { benchmarkFig8(b, "beegfs") }
func BenchmarkFig8_OrangeFS(b *testing.B)  { benchmarkFig8(b, "orangefs") }
func BenchmarkFig8_GlusterFS(b *testing.B) { benchmarkFig8(b, "glusterfs") }
func BenchmarkFig8_GPFS(b *testing.B)      { benchmarkFig8(b, "gpfs") }
func BenchmarkFig8_Lustre(b *testing.B)    { benchmarkFig8(b, "lustre") }
func BenchmarkFig8_Ext4(b *testing.B)      { benchmarkFig8(b, "ext4") }

// BenchmarkFig9_TraceARVR measures the multi-layer trace capture of the
// ARVR program across the four PFS flavours of Figures 2/9.
func BenchmarkFig9_TraceARVR(b *testing.B) {
	h5p := workloads.DefaultH5Params()
	prog, _ := exps.ProgramByName("ARVR")
	for i := 0; i < b.N; i++ {
		for _, fsName := range []string{"beegfs", "orangefs", "glusterfs", "gpfs"} {
			if _, err := exps.TraceJSON(fsName, prog, h5p, exps.ConfigFor(fsName)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig10_<mode> compares the exploration strategies on ARVR/BeeGFS
// (the Figure 10 contrast; §6.4's headline numbers).
func benchmarkFig10(b *testing.B, mode core.Mode) {
	prog, _ := exps.ProgramByName("ARVR")
	h5p := workloads.DefaultH5Params()
	for i := 0; i < b.N; i++ {
		opts := core.DefaultOptions()
		opts.Mode = mode
		rep, err := exps.RunOne("beegfs", prog, opts, h5p, exps.ConfigFor("beegfs"))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Stats.StatesChecked), "states")
		b.ReportMetric(float64(rep.Stats.ServerRestores), "restores")
	}
}

func BenchmarkFig10_BruteForce(b *testing.B) { benchmarkFig10(b, core.ModeBrute) }
func BenchmarkFig10_Pruning(b *testing.B)    { benchmarkFig10(b, core.ModePruning) }

// BenchmarkFig11_Servers<N> measures exploration cost as the cluster grows
// (Figure 11's scalability curve): H5-create on BeeGFS with shrinking
// stripes, end-of-execution crash fronts, pruning exploration.
func benchmarkFig11(b *testing.B, servers int) {
	prog, _ := exps.ProgramByName("H5-create")
	h5p := workloads.DefaultH5Params()
	conf := exps.ConfigFor("beegfs")
	conf.MetaServers = servers / 2
	conf.StorageServers = servers - servers/2
	conf.StripeSize = 128 * 4 / int64(servers)
	if conf.StripeSize < 16 {
		conf.StripeSize = 16
	}
	opts := core.DefaultOptions()
	opts.Emulator.FrontMode = core.FrontEnd
	for i := 0; i < b.N; i++ {
		rep, err := exps.RunOne("beegfs", prog, opts, h5p, conf)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Stats.StatesChecked), "states")
	}
}

func BenchmarkFig11_Servers4(b *testing.B)  { benchmarkFig11(b, 4) }
func BenchmarkFig11_Servers8(b *testing.B)  { benchmarkFig11(b, 8) }
func BenchmarkFig11_Servers16(b *testing.B) { benchmarkFig11(b, 16) }
func BenchmarkFig11_Servers32(b *testing.B) { benchmarkFig11(b, 32) }

// BenchmarkTable2_Deployments measures stack construction and preamble
// execution for every configured file system (Table 2's deployments).
func BenchmarkTable2_Deployments(b *testing.B) {
	prog, _ := exps.ProgramByName("H5-create")
	h5p := workloads.DefaultH5Params()
	for i := 0; i < b.N; i++ {
		for _, fsName := range exps.FSNames() {
			if _, err := exps.TraceJSON(fsName, prog, h5p, exps.ConfigFor(fsName)); err != nil {
				b.Fatal(fmt.Errorf("%s: %w", fsName, err))
			}
		}
	}
}

// --- Ablation benchmarks for DESIGN.md's called-out design choices ---------

// BenchmarkAblation_SemanticPruning contrasts the object-map victim filter
// on and off (paper §5.3's semantic pruning) on the parallel resize, whose
// slab writes give the filter data-chunk victims to skip.
func benchmarkAblationSemantic(b *testing.B, disable bool) {
	prog, _ := exps.ProgramByName("H5-parallel-resize")
	h5p := workloads.DefaultH5Params()
	for i := 0; i < b.N; i++ {
		opts := core.DefaultOptions()
		opts.DisableSemanticPruning = disable
		rep, err := exps.RunOne("beegfs", prog, opts, h5p, exps.ConfigFor("beegfs"))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Stats.StatesGenerated), "generated")
		b.ReportMetric(float64(rep.Stats.StatesChecked), "states")
	}
}

func BenchmarkAblation_SemanticPruningOn(b *testing.B)  { benchmarkAblationSemantic(b, false) }
func BenchmarkAblation_SemanticPruningOff(b *testing.B) { benchmarkAblationSemantic(b, true) }

// BenchmarkAblation_FrontMode contrasts all-cuts crash fronts against
// end-of-execution fronts: cuts find in-flight atomicity splits at the
// cost of a larger state space.
func benchmarkAblationFront(b *testing.B, mode core.FrontMode) {
	prog, _ := exps.ProgramByName("CR")
	h5p := workloads.DefaultH5Params()
	for i := 0; i < b.N; i++ {
		opts := core.DefaultOptions()
		opts.Emulator.FrontMode = mode
		rep, err := exps.RunOne("beegfs", prog, opts, h5p, exps.ConfigFor("beegfs"))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Stats.StatesGenerated), "generated")
		b.ReportMetric(float64(len(rep.Bugs)), "bugs")
	}
}

func BenchmarkAblation_AllCutFronts(b *testing.B) { benchmarkAblationFront(b, core.FrontAllCuts) }
func BenchmarkAblation_EndFrontOnly(b *testing.B) { benchmarkAblationFront(b, core.FrontEnd) }
