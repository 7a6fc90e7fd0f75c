package lint

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoUnreferencedDeclarations fails for every top-level declaration of
// the module's non-test code (testdata/ and benchmark/ excepted) whose name
// appears as an identifier nowhere but at its declarations: not in the
// module, not in benchmark/ (which builds against the module), not in any
// test. It is the "referenced by nothing" half of an unused-symbol check; a
// symbol only tests reference is out of its scope. Names are matched as
// tokens, not resolved, so a name another package reuses counts as
// referenced.
func TestNoUnreferencedDeclarations(t *testing.T) {
	root := filepath.Join("..", "..")
	uses := map[string]int{}  // identifier tokens per name, everywhere
	decls := map[string]int{} // declaration sites per name
	var where []declSite
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		countIdents(fset, path, src, uses)
		rel, _ := filepath.Rel(root, path)
		if strings.HasSuffix(path, "_test.go") || strings.HasPrefix(filepath.ToSlash(rel), "benchmark/") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, id := range topLevelNames(f) {
			decls[id.Name]++
			where = append(where, declSite{filepath.ToSlash(rel), fset.Position(id.Pos()).Line, id.Name})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(where) == 0 {
		t.Fatal("no declarations found: the module root is not where the test looked")
	}
	for _, s := range where {
		if uses[s.name] <= decls[s.name] {
			t.Errorf("%s:%d: %s is referenced by nothing", s.file, s.line, s.name)
		}
	}
}

// declSite is one top-level declaration: file (relative to the module
// root), line and name. WalkDir visits files in lexical order, so sites
// are reported in file and line order.
type declSite struct {
	file string
	line int
	name string
}

// countIdents adds every identifier token of src to uses.
func countIdents(fset *token.FileSet, path string, src []byte, uses map[string]int) {
	var s scanner.Scanner
	s.Init(fset.AddFile(path, -1, len(src)), src, nil, 0)
	for {
		_, tok, lit := s.Scan()
		if tok == token.EOF {
			return
		}
		if tok == token.IDENT {
			uses[lit]++
		}
	}
}

// topLevelNames returns the names a file declares at top level — functions,
// methods, types, variables and constants — leaving out the blank name and
// the functions the toolchain calls (init, main).
func topLevelNames(f *ast.File) []*ast.Ident {
	var ids []*ast.Ident
	add := func(id *ast.Ident) {
		if id.Name != "_" {
			ids = append(ids, id)
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil || (d.Name.Name != "init" && d.Name.Name != "main") {
				add(d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						add(id)
					}
				}
			}
		}
	}
	return ids
}
