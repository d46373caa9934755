package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"paracrash/internal/paracrash"
)

//go:embed golden.json
var goldenJSON []byte

// goldenEntry pins one cell's verdict. Only SHA256 — the hash of
// exps.ReportKernel, verdict content without effort statistics — is
// compared; the counts are there for a person reading the file.
type goldenEntry struct {
	SHA256          string `json:"sha256"`
	Bugs            int    `json:"bugs"`
	Inconsistent    int    `json:"inconsistent"`
	LibOnly         int    `json:"lib_only"`
	StatesGenerated int    `json:"states_generated"`
}

// golden maps cell.key() to the verdict today's engine gives.
type golden map[string]goldenEntry

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func (g golden) check(key string, rep *paracrash.Report) error {
	want, ok := g[key]
	if !ok {
		return fmt.Errorf("no golden verdict for %s", key)
	}
	if got := kernelHash(rep); got != want.SHA256 {
		return fmt.Errorf("verdict of %s differs from golden.json: %d bugs, %d inconsistent, %d library-only; golden has %d, %d, %d",
			key, len(rep.Bugs), rep.Inconsistent, rep.LibOnly, want.Bugs, want.Inconsistent, want.LibOnly)
	}
	return nil
}

// updateGolden runs every cell of every engine workload once and writes the
// verdicts to path. The service workloads' cells are matrix-k1 cells.
func updateGolden(ctx context.Context, path string) error {
	g := golden{}
	for _, w := range benchWorkloads {
		if w.cells == nil {
			continue
		}
		for _, c := range w.cells() {
			if _, done := g[c.key()]; done {
				continue
			}
			if err := c.resolve(); err != nil {
				return err
			}
			rep, err := c.run(ctx, nil)
			if err != nil {
				return fmt.Errorf("%s: %w", c.key(), err)
			}
			g[c.key()] = goldenEntry{
				SHA256: kernelHash(rep), Bugs: len(rep.Bugs), Inconsistent: rep.Inconsistent,
				LibOnly: rep.LibOnly, StatesGenerated: rep.Stats.StatesGenerated,
			}
		}
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
