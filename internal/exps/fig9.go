package exps

import (
	"fmt"
	"strings"

	"paracrash/internal/paracrash"
	"paracrash/internal/trace"
	"paracrash/internal/workloads"
)

// traceDump runs a program's preamble and traced body on a file system and
// returns the per-process operation listing — the raw material of the
// paper's Figures 2 and 9.
func traceDump(fsName string, prog Program, h5p workloads.H5Params) (string, error) {
	ops, err := Spec{FS: fsName, Program: prog, H5: h5p, Config: ConfigFor(fsName)}.tracedOps()
	if err != nil {
		return "", err
	}
	return trace.Format(ops), nil
}

// Fig9 renders the ARVR traces on BeeGFS, OrangeFS, GlusterFS and GPFS —
// the cross-file-system comparison of the paper's Figure 9 (and Figure 2
// for BeeGFS).
func Fig9(h5p workloads.H5Params) string {
	var b strings.Builder
	prog, _ := ProgramByName("ARVR")
	b.WriteString("Figure 2/9: ARVR traces across parallel file systems\n")
	for _, fsName := range []string{"beegfs", "orangefs", "glusterfs", "gpfs"} {
		dump, err := traceDump(fsName, prog, h5p)
		fmt.Fprintf(&b, "\n===== %s =====\n", fsName)
		if err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
			continue
		}
		b.WriteString(dump)
	}
	return b.String()
}

// Fig5 demonstrates the four consistency models on the paper's Figure 5
// two-process example: P0 writes A then sends to P1; P1 receives, writes C
// and fsyncs; P0 writes B. It reports, for each model, how many distinct
// legal states the checker accepts on the ext4 baseline.
func Fig5() string {
	var b strings.Builder
	b.WriteString("Figure 5: legal preserved-state counts per consistency model\n")
	b.WriteString("(P0: write A; send; write B   P1: recv; write C; fsync)\n\n")
	for _, m := range []paracrash.Model{paracrash.ModelStrict, paracrash.ModelCommit, paracrash.ModelCausal, paracrash.ModelBaseline} {
		opts := paracrash.DefaultOptions()
		opts.PFSModel = m
		rec := trace.NewRecorder()
		fs, _ := NewFS("ext4", ConfigFor("ext4"), rec)
		rep, err := paracrash.Run(fs, nil, workloads.Fig5Program(), opts)
		if err != nil {
			fmt.Fprintf(&b, "%-10s error: %v\n", m, err)
			continue
		}
		fmt.Fprintf(&b, "%-10s legal states: %2d   inconsistent crash states: %d\n",
			m, rep.Stats.LegalPFSStates, rep.Inconsistent)
	}
	return b.String()
}

// TraceJSON runs the spec's program and returns its full trace serialised
// as JSON (the per-process trace files of the paper's tracing stage, §5.1).
func (s Spec) TraceJSON() ([]byte, error) {
	ops, err := s.tracedOps()
	if err != nil {
		return nil, err
	}
	return trace.Encode(ops)
}

// tracedOps builds the spec's stack as Run does, runs the program's
// preamble untraced and its body traced, and returns the traced ops.
func (s Spec) tracedOps() ([]*trace.Op, error) {
	fs, w, _, err := s.stack()
	if err != nil {
		return nil, err
	}
	rec := fs.Recorder()
	rec.SetEnabled(false)
	if err := w.Preamble(fs); err != nil {
		return nil, fmt.Errorf("preamble: %w", err)
	}
	rec.Reset()
	rec.SetEnabled(true)
	if err := w.Run(fs); err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	rec.SetEnabled(false)
	return rec.Ops(), nil
}
