package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLintMakeTargets: a cited target the Makefile lacks is reported with
// its file and line; defined targets, targets cited with arguments, and
// forms that name no target in first position are not.
func TestLintMakeTargets(t *testing.T) {
	root := t.TempDir()
	write := func(rel, body string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("Makefile", "GO ?= go\nFUZZTIME := 30s\n.PHONY: ci fuzz\nci: fuzz\n\t$(GO) test ./...\nfuzz:\n\ttrue\n")
	write("README.md", "Run `make ci`.\nOr `make fuzz FUZZTIME=5m`, or `make -n ci`, or `make GO=go1.22 ci`.\nNot `make gone`.\n")
	write("docs/OPS.md", "see `make ci` and\n\n`make retired` here\n")
	write("NOTES.md", "`make unchecked` is outside the document set\n")

	got := lintMakeTargets(root)
	want := []string{
		filepath.Join(root, "README.md") + ":3: `make gone`",
		filepath.Join(root, "docs", "OPS.md") + ":3: `make retired`",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if !strings.HasPrefix(got[i], want[i]) {
			t.Errorf("finding %d = %q, want prefix %q", i, got[i], want[i])
		}
	}

	if got := lintMakeTargets(t.TempDir()); got != nil {
		t.Errorf("a root without a Makefile reported %v", got)
	}
}
