// Command routedoc keeps docs/API.md honest: every route registered on
// the internal/serve mux must appear in the API reference, and every route
// the reference documents must exist in the code. It is part of the
// documentation gate behind `make doclint` (part of `make ci`).
//
// Routes are extracted from the source by parsing mux.Handle/HandleFunc
// calls whose pattern is a "METHOD /path" string literal, and from the
// document by scanning for backtick-quoted `METHOD /path` spans — so
// documenting a route means naming it verbatim in backticks, which is also
// how the reference renders it.
//
// Usage:
//
//	go run ./internal/tools/routedoc [-src internal/serve/server.go] [-doc docs/API.md] [root]
//
// Exit status is 1 when the two sets differ, with one line per missing or
// stale route.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command behind main: it returns the exit status instead of
// exiting, so tests can drive it over temp files.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("routedoc", flag.ContinueOnError)
	fl.SetOutput(stderr)
	src := fl.String("src", "internal/serve/server.go", "Go source registering the mux routes")
	doc := fl.String("doc", "docs/API.md", "API reference document")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	root := "."
	if fl.NArg() == 1 {
		root = fl.Arg(0)
	} else if fl.NArg() > 1 {
		fmt.Fprintln(stderr, "usage: routedoc [-src FILE] [-doc FILE] [root]")
		return 2
	}

	code, err := routesFromSource(filepath.Join(root, *src))
	if err != nil {
		fmt.Fprintln(stderr, "routedoc:", err)
		return 2
	}
	documented, err := routesFromDoc(filepath.Join(root, *doc))
	if err != nil {
		fmt.Fprintln(stderr, "routedoc:", err)
		return 2
	}
	if len(code) == 0 {
		fmt.Fprintf(stderr, "routedoc: no routes found in %s — wrong -src?\n", *src)
		return 2
	}

	problems := 0
	for _, r := range sortedDiff(code, documented) {
		fmt.Fprintf(stdout, "%s: route %q registered in %s but not documented\n", *doc, r, *src)
		problems++
	}
	for _, r := range sortedDiff(documented, code) {
		fmt.Fprintf(stdout, "%s: route %q documented but not registered in %s\n", *doc, r, *src)
		problems++
	}
	if problems > 0 {
		fmt.Fprintf(stderr, "routedoc: %d route(s) out of sync between %s and %s\n", problems, *src, *doc)
		return 1
	}
	return 0
}

// routesFromSource parses the file and collects the "METHOD /path" pattern
// of every mux.Handle / mux.HandleFunc registration.
func routesFromSource(path string) (map[string]bool, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		return nil, err
	}
	routes := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 1 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Handle" && sel.Sel.Name != "HandleFunc") {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		pattern, err := strconv.Unquote(lit.Value)
		if err != nil {
			return true
		}
		// Only "METHOD /path" patterns are routes; a bare path would be a
		// method-agnostic registration this repo doesn't use.
		if method, rest, ok := strings.Cut(pattern, " "); ok && strings.HasPrefix(rest, "/") && method == strings.ToUpper(method) {
			routes[pattern] = true
		}
		return true
	})
	return routes, nil
}

// docRoute matches a backtick-quoted route span: `GET /v1/jobs/{id}`.
var docRoute = regexp.MustCompile("`(GET|HEAD|POST|PUT|PATCH|DELETE|OPTIONS) (/[^`\\s]*)`")

// routesFromDoc scans the markdown for backtick-quoted METHOD /path spans.
func routesFromDoc(path string) (map[string]bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	routes := map[string]bool{}
	for _, m := range docRoute.FindAllStringSubmatch(string(raw), -1) {
		routes[m[1]+" "+m[2]] = true
	}
	return routes, nil
}

// sortedDiff returns the members of a missing from b, sorted.
func sortedDiff(a, b map[string]bool) []string {
	var out []string
	for r := range a {
		if !b[r] {
			out = append(out, r)
		}
	}
	sort.Strings(out)
	return out
}
