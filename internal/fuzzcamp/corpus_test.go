package fuzzcamp

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"paracrash/internal/workloads"
)

func sampleRepro() *Repro {
	pre := []workloads.Op{
		{Kind: workloads.OpCreat, Path: "/f0"},
		{Kind: workloads.OpPwrite, Path: "/f0", Data: []byte("seed")},
		{Kind: workloads.OpClose, Path: "/f0"},
	}
	body := []workloads.Op{
		{Kind: workloads.OpAppend, Path: "/f0", Data: []byte("tail")},
		{Kind: workloads.OpFsync, Path: "/f0"},
	}
	return &Repro{
		Version:   ReproVersion,
		Oracle:    OracleLattice,
		Backend:   "beegfs",
		Workload:  "gen-7",
		Signature: "lattice|beegfs|causal⊆strict|pfs:deadbeef",
		Detail:    "state inconsistent under causal but not under strict",
		Script:    workloads.NewProgram("gen-7", pre, body).Script(),
		Preamble:  pre,
		Body:      body,
	}
}

func TestReproRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := sampleRepro()
	path, err := WriteRepro(dir, want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the repro:\n got %+v\nwant %+v", got, want)
	}
	p := got.Program()
	if p.Name() != "gen-7" || len(p.Body()) != 2 || len(p.PreambleOps()) != 3 {
		t.Fatalf("rebuilt program wrong: name=%q body=%d preamble=%d", p.Name(), len(p.Body()), len(p.PreambleOps()))
	}

	// Rewriting the same signature must overwrite, not duplicate.
	if _, err := WriteRepro(dir, want); err != nil {
		t.Fatal(err)
	}
	corpus, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) != 1 {
		t.Fatalf("corpus has %d entries, want 1", len(corpus))
	}
}

func TestLoadReproRejectsWrongVersion(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "repro-bad.json")
	if err := os.WriteFile(path, []byte(`{"version":99,"body":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRepro(path); err == nil {
		t.Fatal("LoadRepro accepted an unknown schema version")
	}
}

// LoadCorpus reads every repro-*.json entry in dir, sorted by file name.
func LoadCorpus(dir string) ([]*Repro, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "repro-*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := make([]*Repro, 0, len(paths))
	for _, p := range paths {
		r, err := LoadRepro(p)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
