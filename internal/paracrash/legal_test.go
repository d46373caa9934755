package paracrash_test

import (
	"strings"
	"testing"

	"paracrash/internal/exps"
	"paracrash/internal/paracrash"
	"paracrash/internal/pfs"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

// libCell returns a constructor of the backend/program cell with a library
// layer, built as TestLegalEnumerationCap builds it.
func libCell(tb testing.TB, backend string, prog exps.Program) func() (pfs.FileSystem, paracrash.Library, paracrash.Workload) {
	return func() (pfs.FileSystem, paracrash.Library, paracrash.Workload) {
		fs, err := exps.NewFS(backend, exps.ConfigFor(backend), trace.NewRecorder())
		if err != nil {
			tb.Fatal(err)
		}
		w, lib := prog.Make(workloads.DefaultH5Params())
		return fs, lib, w
	}
}

// TestLegalLibOracle (`make legal`) holds the library legal-state walk to
// the from-scratch enumeration kept in test code, on every paper program
// with a library layer and all six backends: every library status vector
// the crash states reach at k ≤ 2, under all four models, at caps n−1, n
// and n+1 — legal sets, the capped flag and legal/lib-sets must all match.
func TestLegalLibOracle(t *testing.T) {
	for _, prog := range exps.Programs() {
		if prog.POSIX {
			continue
		}
		for _, backend := range exps.FSNames() {
			compared, diffs, err := paracrash.LegalLibOracle(libCell(t, backend, prog))
			label := backend + "/" + prog.Name
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if compared == 0 {
				t.Errorf("%s: no library status vector compared", label)
			}
			t.Logf("%s: %d enumerations compared", label, compared)
			if len(diffs) > 0 {
				t.Errorf("%s: %d of %d enumerations differ from the reference:\n%s", label, len(diffs), compared, strings.Join(diffs, "\n"))
			}
		}
	}
}

// TestModelDefinitionPaper (`make legal`) holds PreservedSets to the
// models' definitions kept in test code, capped or not, and checks the
// set-level lattice, on every paper program's PFS and library layer on all
// six backends: every status vector the crash states reach at k = 1.
func TestModelDefinitionPaper(t *testing.T) {
	for _, prog := range exps.Programs() {
		for _, backend := range exps.FSNames() {
			checked, diffs, err := paracrash.ModelDefinitionOracle(libCell(t, backend, prog))
			label := backend + "/" + prog.Name
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if checked == 0 {
				t.Errorf("%s: no status vector checked", label)
			}
			if len(diffs) > 0 {
				t.Errorf("%s: %d differences from the definitions:\n%s", label, len(diffs), strings.Join(diffs, "\n"))
			}
		}
	}
}

// TestLegalLibParallel: Workers=4 shares one library adapter, and with it
// the parse memo, across the workers and the merge. `make legal` runs this
// under -race; the report must match the serial run's.
func TestLegalLibParallel(t *testing.T) {
	for _, name := range []string{"H5-parallel-create", "H5-resize"} {
		prog, err := exps.ProgramByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var fps [2]string
		for i, workers := range []int{1, 4} {
			opts := paracrash.DefaultOptions()
			opts.Mode = paracrash.ModeBrute
			opts.Workers = workers
			rep, err := exps.RunOne("beegfs", prog, opts, workloads.DefaultH5Params(), exps.ConfigFor("beegfs"))
			if err != nil {
				t.Fatal(err)
			}
			fps[i] = exps.ReportFingerprint(rep)
		}
		if fps[0] != fps[1] {
			t.Errorf("beegfs/%s: Workers=4 report differs from the serial one", name)
		}
	}
}

// BenchmarkLegalLib is the library legal-state layer's local number:
// legalLib over every library status vector of beegfs/H5-parallel-create.
func BenchmarkLegalLib(b *testing.B) {
	prog, err := exps.ProgramByName("H5-parallel-create")
	if err != nil {
		b.Fatal(err)
	}
	paracrash.BenchLegalLib(b, libCell(b, "beegfs", prog))
}
