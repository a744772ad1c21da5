// Command doccheck enforces the repository's godoc policy: every exported
// identifier in the packages it is pointed at must carry a doc comment.
//
// Usage:
//
//	go run ./scripts/doccheck [package-dir ...]
//
// Each argument is a directory containing one Go package (test files are
// ignored); with no arguments the repository's audited set, auditedPackages,
// is checked from the repository root. An exported top-level func or method
// needs a doc comment on the declaration; an exported const/var/type spec
// needs either its own doc comment, a trailing line comment, or a doc
// comment on the enclosing grouped declaration. Violations are printed one
// per line and the exit status is non-zero if any are found.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// auditedPackages is the set scripts/ci.sh and `make docs` hold to the
// policy: the root package and every package with an API other packages
// or tools build on.
var auditedPackages = []string{
	".", "fabric", "udtfs",
	"internal/campaign", "internal/congestion", "internal/core",
	"internal/metrics", "internal/mux", "internal/netem",
	"internal/netem/chaos", "internal/secure", "internal/timerwheel",
	"internal/timing", "internal/trace",
}

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = auditedPackages
	}
	bad := 0
	for _, dir := range dirs {
		bad += checkDir(dir)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d exported identifier(s) missing doc comments\n", bad)
		os.Exit(1)
	}
}

// checkDir parses every non-test Go file in dir and returns the number of
// undocumented exported identifiers found.
func checkDir(dir string) int {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(2)
	}
	bad := 0
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			bad += checkFile(fset, filepath.ToSlash(name), file)
		}
	}
	return bad
}

// checkFile reports undocumented exported declarations in one parsed file.
func checkFile(fset *token.FileSet, name string, file *ast.File) int {
	bad := 0
	report := func(pos token.Pos, what, ident string) {
		p := fset.Position(pos)
		fmt.Printf("%s:%d: exported %s %s has no doc comment\n", name, p.Line, what, ident)
		bad++
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				report(d.Pos(), "function", d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							report(id.Pos(), "value", id.Name)
						}
					}
				}
			}
		}
	}
	return bad
}
