package paracrash_test

import (
	"fmt"
	"testing"

	"paracrash/internal/exps"
	"paracrash/internal/paracrash"
	"paracrash/internal/trace"
)

// TestClassifierMatchesReference holds the Table 1 classifier to the one it
// replaced (classify_reference_test.go): identical []PairResult and an
// identical probe sequence for every inconsistent state of every
// fingerprint-golden cell (the generated POSIX programs on six backends,
// both modes), of the paper's 11 programs on six backends in both modes at
// k = 1 (the matrix-k1 cells and more), and of the states-k2 cells (brute
// force, k = 2).
func TestClassifierMatchesReference(t *testing.T) {
	type cell struct {
		backend string
		run     func(opts paracrash.Options) (paracrash.ClassifyDiffStats, error)
		mode    paracrash.Mode
		k       int
	}
	var cells []cell
	add := func(backend, name string, mode paracrash.Mode, k int, run func(paracrash.Options) (paracrash.ClassifyDiffStats, error)) {
		cells = append(cells, cell{backend + "/" + name, run, mode, k})
	}
	for _, backend := range exps.FSNames() {
		for _, mode := range goldenModes {
			for _, prog := range incrementalPrograms(t) {
				add(backend, prog.Name(), mode, 1, func(opts paracrash.Options) (paracrash.ClassifyDiffStats, error) {
					fs, err := exps.NewFS(backend, exps.ConfigFor(backend), trace.NewRecorder())
					if err != nil {
						return paracrash.ClassifyDiffStats{}, err
					}
					return paracrash.ClassifyDiff(fs, nil, prog, opts)
				})
			}
			for _, prog := range exps.Programs() {
				add(backend, prog.Name, mode, 1, func(opts paracrash.Options) (paracrash.ClassifyDiffStats, error) {
					fs, w, lib := emulatorCell(t, backend, prog)
					return paracrash.ClassifyDiff(fs, lib, w, opts)
				})
			}
		}
	}
	k2 := []struct{ backend, program string }{
		{"gpfs", "H5-create"}, {"gpfs", "H5-rename"}, {"gpfs", "H5-resize"}, {"gpfs", "CDF-create"},
		{"beegfs", "H5-parallel-create"}, {"orangefs", "H5-parallel-create"}, {"glusterfs", "H5-parallel-create"},
	}
	for _, c := range k2 {
		prog, err := exps.ProgramByName(c.program)
		if err != nil {
			t.Fatal(err)
		}
		add(c.backend, c.program, paracrash.ModeBrute, 2, func(opts paracrash.Options) (paracrash.ClassifyDiffStats, error) {
			fs, w, lib := emulatorCell(t, c.backend, prog)
			return paracrash.ClassifyDiff(fs, lib, w, opts)
		})
	}

	var total paracrash.ClassifyDiffStats
	for _, c := range cells {
		label := fmt.Sprintf("%s/%s/k=%d", c.backend, c.mode, c.k)
		opts := paracrash.DefaultOptions()
		opts.Mode = c.mode
		opts.Emulator.K = c.k
		st, err := c.run(opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		total.States += st.States
		total.Inconsistent += st.Inconsistent
		total.Pairs += st.Pairs
		total.Probes += st.Probes
	}
	t.Logf("%d cells: %d states, %d classified, %d pairs, %d probes", len(cells), total.States, total.Inconsistent, total.Pairs, total.Probes)
	if total.Pairs == 0 || total.Probes == 0 {
		t.Fatalf("nothing classified: %+v", total)
	}
}

// BenchmarkClassifyState is the classifier's local number: every
// inconsistent state of gpfs/H5-create, brute force, k = 2 (a states-k2
// benchmark cell), classified with the probes' verdicts memoised.
func BenchmarkClassifyState(b *testing.B) {
	prog, err := exps.ProgramByName("H5-create")
	if err != nil {
		b.Fatal(err)
	}
	fs, w, lib := emulatorCell(b, "gpfs", prog)
	opts := paracrash.DefaultOptions()
	opts.Mode = paracrash.ModeBrute
	opts.Emulator.K = 2
	paracrash.BenchClassifyState(b, fs, lib, w, opts)
}
