package paracrash_test

import (
	"fmt"
	"maps"
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

// genCell returns a constructor of the backend cell running the generated
// POSIX program of the given seed, as the gen-posix workload builds it.
func genCell(tb testing.TB, backend string, seed int64) func() (pfs.FileSystem, paracrash.Library, paracrash.Workload) {
	return func() (pfs.FileSystem, paracrash.Library, paracrash.Workload) {
		fs, err := exps.NewFS(backend, exps.ConfigFor(backend), trace.NewRecorder())
		if err != nil {
			tb.Fatal(err)
		}
		return fs, nil, workloads.Generate(workloads.DefaultGenConfig(seed))
	}
}

// TestLegalPFSOracle (`make legal`) holds the PFS legal-state replay trie
// to the from-scratch replay kept in test code, on every POSIX paper
// program and generated programs 1–4 (gen-posix's first seeds) on all six
// backends: every PFS status vector the crash states reach at k ≤ 2, under
// all four models, at caps n−1, n and n+1 — legal sets, the capped flag,
// restores/legal and legal/pfs-steps must all match, and the trie must
// replay fewer ops than the reference wherever selections share a prefix.
func TestLegalPFSOracle(t *testing.T) {
	var total paracrash.PFSOracleWork
	check := func(label string, newCell func() (pfs.FileSystem, paracrash.Library, paracrash.Workload)) {
		work, diffs, err := paracrash.LegalPFSOracle(newCell)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if work.Compared == 0 {
			t.Errorf("%s: no PFS status vector compared", label)
		}
		if len(diffs) > 0 {
			t.Errorf("%s: %d of %d enumerations differ from the reference:\n%s", label, len(diffs), work.Compared, strings.Join(diffs, "\n"))
		}
		total.Compared += work.Compared
		total.ReferenceOps += work.ReferenceOps
		total.Steps += work.Steps
	}
	for _, backend := range exps.FSNames() {
		for _, prog := range exps.Programs() {
			if prog.POSIX {
				check(backend+"/"+prog.Name, libCell(t, backend, prog))
			}
		}
		for seed := int64(1); seed <= 4; seed++ {
			check(fmt.Sprintf("%s/gen-%d", backend, seed), genCell(t, backend, seed))
		}
	}
	t.Logf("%d enumerations: the trie replayed %d client ops, the reference %d", total.Compared, total.Steps, total.ReferenceOps)
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

// TestLegalLibShared: every crash front and model of a run shares one
// library replay table. Enumerating every library status vector of
// beegfs/H5-parallel-create under each model on one table must get the
// reference's sets, and apply each transition and parse each leaf once.
func TestLegalLibShared(t *testing.T) {
	prog, err := exps.ProgramByName("H5-parallel-create")
	if err != nil {
		t.Fatal(err)
	}
	compared, diffs, err := paracrash.LegalLibSharedOracle(libCell(t, "beegfs", prog))
	if err != nil {
		t.Fatal(err)
	}
	if compared == 0 {
		t.Error("no legal set compared")
	}
	if len(diffs) > 0 {
		t.Errorf("%d of %d shared-table sets differ from the reference:\n%s", len(diffs), compared, strings.Join(diffs, "\n"))
	}
}

// TestLegalLibTableAtCap: the library replay table holds at most
// MaxLibReplays transitions and as many leaves. A brute-force k = 2 run of
// beegfs/H5-parallel-create starts on a table filled to one below the cap
// of what the run inserts, exactly to it and one past it, then to cap−1,
// cap and cap+1 outright. Every fill must enumerate the same legal sets
// and produce the same report fingerprint (effort counts included) as the
// unfilled run, and the table never grows past the cap. A fill the run
// stays under costs no extra step or parse; a full table costs both.
func TestLegalLibTableAtCap(t *testing.T) {
	prog, err := exps.ProgramByName("H5-parallel-create")
	if err != nil {
		t.Fatal(err)
	}
	opts := paracrash.DefaultOptions()
	opts.Mode = paracrash.ModeBrute
	opts.Emulator.K = 2
	run := func(edges, leaves int) paracrash.LibTableRun {
		t.Helper()
		r, err := paracrash.RunLibTableFilled(libCell(t, "beegfs", prog), opts, edges, leaves)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	want := run(0, 0)
	de, dl := want.Edges, want.Leaves
	if de < 8 || dl < 4 || len(want.Sets) < 2 {
		t.Fatalf("%d transitions, %d leaves, %d legal sets: the run is too small to cross the cap", de, dl, len(want.Sets))
	}
	t.Logf("unfilled run: %d transitions, %d leaves, %d steps, %d parses, %d legal lib states", de, dl, want.Steps, want.Parses, want.Report.Stats.LegalLibStates)
	wantFP := exps.ReportFingerprint(want.Report)
	const capN = paracrash.MaxLibReplays
	for _, fill := range [][2]int{
		{capN - de - 1, capN - dl - 1}, {capN - de, capN - dl}, {capN - de + 1, capN - dl + 1},
		{capN - 1, capN - 1}, {capN, capN}, {capN + 1, capN + 1},
	} {
		got := run(fill[0], fill[1])
		label := fmt.Sprintf("fill %d/%d", fill[0], fill[1])
		if !maps.EqualFunc(got.Sets, want.Sets, maps.Equal) {
			t.Errorf("%s: legal sets differ from the unfilled run's", label)
		}
		if fp := exps.ReportFingerprint(got.Report); fp != wantFP {
			t.Errorf("%s: report fingerprint differs from the unfilled run's:\n%s\nwant\n%s", label, fp, wantFP)
		}
		if got.Edges > max(capN, fill[0]) || got.Leaves > max(capN, fill[1]) {
			t.Errorf("%s: table grew to %d transitions and %d leaves, cap %d", label, got.Edges, got.Leaves, capN)
		}
		// Past the cap a dropped entry costs its work again only when the
		// run reaches it again, so one fill past it may still cost nothing.
		if got.Steps < want.Steps || fill[0] <= capN-de && got.Steps != want.Steps || fill[0] >= capN && got.Steps == want.Steps {
			t.Errorf("%s: %d library steps, unfilled run %d", label, got.Steps, want.Steps)
		}
		if got.Parses < want.Parses || fill[1] <= capN-dl && got.Parses != want.Parses || fill[1] >= capN && got.Parses == want.Parses {
			t.Errorf("%s: %d leaf parses, unfilled run %d", label, got.Parses, want.Parses)
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
