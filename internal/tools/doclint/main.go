// Command doclint enforces godoc coverage: every scanned package must
// carry a package comment, and every exported identifier — types,
// functions, methods, and const/var groups — must be documented. It is
// the documentation gate behind `make doclint` (part of `make ci`).
//
// A root that holds a Makefile gets one more check: every `make <target>`
// its README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md cite in backticks
// must name a target the Makefile defines, so deleting a target cannot
// leave the prose pointing at nothing.
//
// Usage:
//
//	go run ./internal/tools/doclint [-skip dir,dir] [root ...]
//
// Each root is walked recursively; _test.go files, testdata and any
// -skip directories are ignored. Exit status is 1 on any finding, printed
// one "file:line: problem" per line.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	skip := flag.String("skip", "", "comma-separated directory names to skip (testdata and dot-dirs are always skipped)")
	flag.Parse()
	roots := flag.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}
	skipSet := map[string]bool{}
	for _, s := range strings.Split(*skip, ",") {
		if s != "" {
			skipSet[s] = true
		}
	}

	var dirs []string
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || skipSet[name]) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				dirs = append(dirs, path)
			}
			return nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "doclint:", err)
			os.Exit(2)
		}
	}
	sort.Strings(dirs)

	var problems []string
	for _, dir := range dirs {
		problems = append(problems, lintDir(dir)...)
	}
	for _, root := range roots {
		problems = append(problems, lintMakeTargets(root)...)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Fprintf(os.Stderr, "doclint: %d problems\n", len(problems))
		os.Exit(1)
	}
}

var (
	// makeRule matches a rule line of a Makefile; special targets such as
	// .PHONY start with a dot and are not rules anyone cites.
	makeRule = regexp.MustCompile(`(?m)^([A-Za-z0-9][A-Za-z0-9_.-]*)[ \t]*:(?:[^=]|$)`)
	// makeCite matches a backticked `make <target>` in prose, with or
	// without arguments after the target. Option-first and VAR=value-first
	// forms name no target in that position and are left alone.
	makeCite = regexp.MustCompile("`make ([A-Za-z0-9][A-Za-z0-9_.-]*)[ `]")
)

// lintMakeTargets reports every `make <target>` cited in root's documents
// whose target root's Makefile does not define. A root without a Makefile
// has nothing to check.
func lintMakeTargets(root string) []string {
	mk, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		return nil
	}
	targets := map[string]bool{}
	for _, m := range makeRule.FindAllSubmatch(mk, -1) {
		targets[string(m[1])] = true
	}
	docs, _ := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	for _, name := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		docs = append(docs, filepath.Join(root, name))
	}
	sort.Strings(docs)
	var out []string
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			continue
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range makeCite.FindAllStringSubmatch(line, -1) {
				if !targets[m[1]] {
					out = append(out, fmt.Sprintf("%s:%d: `make %s` names no target in the Makefile", doc, i+1, m[1]))
				}
			}
		}
	}
	return out
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// lintDir parses one directory's non-test files and reports undocumented
// exported identifiers and missing package comments.
func lintDir(dir string) []string {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return []string{fmt.Sprintf("%s: parse error: %v", dir, err)}
	}
	var out []string
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil && len(strings.TrimSpace(f.Doc.Text())) > 0 {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			out = append(out, fmt.Sprintf("%s: package %s has no package comment", dir, pkg.Name))
		}
		for name, f := range pkg.Files {
			out = append(out, lintFile(fset, name, f)...)
		}
	}
	sort.Strings(out)
	return out
}

// lintFile reports undocumented exported declarations in one file.
func lintFile(fset *token.FileSet, name string, f *ast.File) []string {
	var out []string
	report := func(pos token.Pos, what, ident string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s is undocumented", p.Filename, p.Line, what, ident))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			// Methods count when the receiver's base type is exported.
			what := "function"
			ident := d.Name.Name
			if d.Recv != nil && len(d.Recv.List) > 0 {
				base := receiverBase(d.Recv.List[0].Type)
				if base == "" || !ast.IsExported(base) {
					continue
				}
				what, ident = "method", base+"."+d.Name.Name
			}
			report(d.Pos(), what, ident)
		case *ast.GenDecl:
			out = append(out, lintGenDecl(fset, d)...)
		}
	}
	_ = name
	return out
}

// lintGenDecl checks const/var/type declarations. A group comment on the
// decl documents every spec inside it; otherwise each exported spec needs
// its own comment.
func lintGenDecl(fset *token.FileSet, d *ast.GenDecl) []string {
	if d.Tok == token.IMPORT {
		return nil
	}
	var out []string
	report := func(pos token.Pos, what, ident string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s is undocumented", p.Filename, p.Line, what, ident))
	}
	groupDoc := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && !groupDoc && s.Doc == nil && s.Comment == nil {
				report(s.Pos(), "type", s.Name.Name)
			}
		case *ast.ValueSpec:
			if groupDoc || s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, n := range s.Names {
				if n.IsExported() {
					what := "const"
					if d.Tok == token.VAR {
						what = "var"
					}
					report(n.Pos(), what, n.Name)
				}
			}
		}
	}
	return out
}

// receiverBase extracts the receiver's base type name (unwrapping
// pointers and generic instantiations).
func receiverBase(expr ast.Expr) string {
	for {
		switch t := expr.(type) {
		case *ast.StarExpr:
			expr = t.X
		case *ast.IndexExpr:
			expr = t.X
		case *ast.IndexListExpr:
			expr = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}
