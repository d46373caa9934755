package exps

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"paracrash/internal/paracrash"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with the current output")

// TestTraceGolden pins the traced op sequence of every cell the paper's
// matrix and the gen-posix pool run: every Programs() × FSNames() cell and
// generated programs 1–24 on every backend, one line each with the sha256
// of Spec.TraceJSON and the op count. A diff means a backend, a client
// adapter or a workload now emits different ops (or the same ops with other
// fields), which moves every verdict downstream of the trace.
func TestTraceGolden(t *testing.T) {
	var progs []Program
	progs = append(progs, Programs()...)
	for seed := int64(1); seed <= 24; seed++ {
		gen := workloads.Generate(workloads.DefaultGenConfig(seed))
		progs = append(progs, Program{Name: fmt.Sprintf("gen-%d", seed), POSIX: true,
			makePosix: func() paracrash.Workload { return gen }})
	}
	var buf bytes.Buffer
	for _, prog := range progs {
		for _, fsName := range FSNames() {
			s := Spec{FS: fsName, Program: prog, H5: workloads.DefaultH5Params(), Config: ConfigFor(fsName)}
			js, err := s.TraceJSON()
			if err != nil {
				t.Fatalf("%s/%s: %v", fsName, prog.Name, err)
			}
			ops, err := trace.Decode(js)
			if err != nil {
				t.Fatalf("%s/%s: decode: %v", fsName, prog.Name, err)
			}
			fmt.Fprintf(&buf, "%s/%s %x ops=%d\n", fsName, prog.Name, sha256.Sum256(js), len(ops))
		}
	}

	golden := filepath.Join("testdata", "traces.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/exps -run TestTraceGolden -update` to create it)", err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Errorf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("traces drifted from %s (%d lines, golden has %d)", golden, len(gl), len(wl))
	}
}
