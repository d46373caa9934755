// Package fuzzcamp is the crash-consistency fuzzing campaign engine: it
// enumerates and generates bounded POSIX workloads, runs each through the
// ParaCrash explorer across every PFS backend and consistency model, and
// judges the results with metamorphic oracles — properties that must relate
// *pairs* of runs even though no single run has a ground-truth answer:
//
//  1. model-lattice monotonicity: the consistency models order by legal-set
//     inclusion, so the inconsistent crash states found under a weaker model
//     must be a subset of those found under a stronger one;
//  2. pruning soundness: every bug cause reported by the pruning strategy
//     must also be reported by brute force, and pruning must not
//     go vacuously silent on a workload where brute force finds bugs.
//
// An oracle failure triggers delta-debugging minimization of the workload
// (minimize.go) and the minimal reproducer is written to a replayable corpus
// file (this file).
package fuzzcamp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"paracrash/internal/workloads"
)

// ReproVersion is the corpus file schema version.
const ReproVersion = 1

// Repro is one corpus entry: a minimized workload reproducing an oracle
// violation, with enough metadata to rerun the exact failing configuration.
type Repro struct {
	Version  int    `json:"version"`
	Oracle   string `json:"oracle"`
	Backend  string `json:"backend"`
	Workload string `json:"workload"`
	// Signature is the campaign's dedup identity for the violation.
	Signature string `json:"signature"`
	Detail    string `json:"detail"`
	// Script is the human-readable rendering of Body (informational; Body
	// is authoritative for replay).
	Script   string         `json:"script"`
	Preamble []workloads.Op `json:"preamble,omitempty"`
	Body     []workloads.Op `json:"body"`
}

// Program rebuilds the replayable workload from the corpus entry.
func (r *Repro) Program() *workloads.Program {
	return workloads.NewProgram(r.Workload, r.Preamble, r.Body)
}

// reproFileName derives a stable file name from the violation signature, so
// rerunning a campaign overwrites rather than duplicates corpus entries.
func reproFileName(sig string) string {
	sum := sha256.Sum256([]byte(sig))
	return "repro-" + hex.EncodeToString(sum[:6]) + ".json"
}

// WriteRepro writes the entry into dir (created if needed) and returns the
// file path.
func WriteRepro(dir string, r *Repro) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("fuzzcamp: corpus dir: %w", err)
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("fuzzcamp: encode repro: %w", err)
	}
	path := filepath.Join(dir, reproFileName(r.Signature))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("fuzzcamp: write repro: %w", err)
	}
	return path, nil
}

// LoadRepro reads one corpus entry.
func LoadRepro(path string) (*Repro, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fuzzcamp: read repro: %w", err)
	}
	var r Repro
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("fuzzcamp: parse repro %s: %w", path, err)
	}
	if r.Version != ReproVersion {
		return nil, fmt.Errorf("fuzzcamp: repro %s has version %d, want %d", path, r.Version, ReproVersion)
	}
	return &r, nil
}
