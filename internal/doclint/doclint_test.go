// Package doclint enforces godoc coverage on the packages whose
// exported surface is the documentation deliverable of the limits
// work: every exported package-level identifier (and exported method
// on an exported type) must carry a doc comment.  The check parses
// source with go/parser, so it runs as an ordinary test — no external
// linter needed, and CI fails the moment an undocumented export
// lands.
package doclint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// lintedPackages are the directories (relative to this package) held
// to full godoc coverage.  Grow this list as packages are brought up
// to standard; do not shrink it.
var lintedPackages = []string{
	"../stat",
	"../mbuf",
	"../testnet",
	"../pcb",
	"../tunnel",
	"../inet",
	"../topo",
	"../admin",
	"../ipsec",
	"../key",
	"../ip",
	"../core",
	"../route",
	"../icmp6",
	"../tcp",
	"../ipv4",
	"../ipv6",
	"../udp",
	"../proto",
}

func TestExportedIdentifiersAreDocumented(t *testing.T) {
	for _, dir := range lintedPackages {
		t.Run(filepath.Base(dir), func(t *testing.T) {
			for _, miss := range lintPackage(t, dir) {
				t.Error(miss)
			}
		})
	}
}

// lintPackage parses every non-test .go file in dir and returns one
// message per undocumented exported declaration.
func lintPackage(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	var misses []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		misses = append(misses, fmt.Sprintf("%s:%d: exported %s %s has no doc comment",
			p.Filename, p.Line, kind, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				lintDecl(decl, report)
			}
		}
	}
	return misses
}

// lintDecl reports undocumented exported names in one top-level
// declaration.  For grouped var/const/type blocks a doc comment on
// the block covers all names; an individual spec comment also counts.
func lintDecl(decl ast.Decl, report func(token.Pos, string, string)) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || d.Doc != nil {
			return
		}
		// Methods count when the receiver type is exported.
		kind := "function"
		if d.Recv != nil {
			kind = "method"
			if !receiverExported(d.Recv) {
				return
			}
		}
		report(d.Pos(), kind, d.Name.Name)
	case *ast.GenDecl:
		kind := map[token.Token]string{
			token.CONST: "const", token.VAR: "var", token.TYPE: "type",
		}[d.Tok]
		if kind == "" {
			return // import decl
		}
		for _, spec := range d.Specs {
			switch sp := spec.(type) {
			case *ast.TypeSpec:
				if sp.Name.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
					report(sp.Pos(), kind, sp.Name.Name)
				}
			case *ast.ValueSpec:
				for _, name := range sp.Names {
					if name.IsExported() && d.Doc == nil && sp.Doc == nil && sp.Comment == nil {
						report(name.Pos(), kind, name.Name)
					}
				}
			}
		}
	}
}

// receiverExported reports whether a method's receiver names an
// exported type (unwrapping pointer and generic receivers).
func receiverExported(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	typ := recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr:
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}
