package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRouteDoc drives the command over a temp source and document: a route
// on either side only is reported with exit 1, a source registering no
// route is a usage error (exit 2), and a source and document in sync pass.
func TestRouteDoc(t *testing.T) {
	const src = `package p

import "net/http"

func routes(mux *http.ServeMux, h http.Handler) {
	mux.Handle("GET /v1/jobs", h)
	mux.HandleFunc("POST /v1/jobs", nil)
	mux.Handle("/bare", h)
}
`
	cases := []struct {
		name, src, doc string
		code           int
		stdout         string
	}{
		{"undocumented route", src, "`GET /v1/jobs` lists jobs.\n", 1,
			`API.md: route "POST /v1/jobs" registered in server.go but not documented` + "\n"},
		{"stale documented route", src, "`GET /v1/jobs`, `POST /v1/jobs` and `DELETE /v1/jobs/{id}`.\n", 1,
			`API.md: route "DELETE /v1/jobs/{id}" documented but not registered in server.go` + "\n"},
		{"source without routes", "package p\n", "`GET /v1/jobs`\n", 2, ""},
		{"in sync", src, "| `GET /v1/jobs` | list |\n| `POST /v1/jobs` | submit |\n", 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			for name, body := range map[string]string{"server.go": tc.src, "API.md": tc.doc} {
				if err := os.WriteFile(filepath.Join(root, name), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var stdout, stderr strings.Builder
			code := run([]string{"-src", "server.go", "-doc", "API.md", root}, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit %d, want %d; stdout %q, stderr %q", code, tc.code, stdout.String(), stderr.String())
			}
			if stdout.String() != tc.stdout {
				t.Errorf("stdout %q, want %q", stdout.String(), tc.stdout)
			}
		})
	}
}
