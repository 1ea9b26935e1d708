package lintime

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// calledByReflection names methods that only the standard library calls,
// through an interface it type-asserts at run time, so no identifier in
// the module names them.
var calledByReflection = []string{"MarshalJSON"}

// TestNoUnreferencedFuncs fails on any function or method declared in a
// non-test file of this module whose name no other identifier mentions,
// counting test files and the bench/ module (which imports this one) but
// declaring nothing from bench/. The match is by name only, so it misses a
// dead method that shares its name with a live one, but it never flags
// live code: a deleted caller leaves its callee here until the callee goes
// too.
func TestNoUnreferencedFuncs(t *testing.T) {
	type decl struct {
		pos  token.Position
		name string
	}
	var decls []decl
	mentions := map[string]int{} // identifier → occurrences, declarations included
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				mentions[id.Name]++
			}
			return true
		})
		if strings.HasSuffix(path, "_test.go") || strings.HasPrefix(path, "bench"+string(filepath.Separator)) {
			return nil
		}
		for _, dc := range f.Decls {
			if fn, ok := dc.(*ast.FuncDecl); ok {
				decls = append(decls, decl{fset.Position(fn.Name.Pos()), fn.Name.Name})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]int{}
	for _, d := range decls {
		declared[d.name]++
	}
	if len(decls) < 100 {
		t.Fatalf("found only %d declarations; is the walk rooted at the module?", len(decls))
	}
	for _, d := range decls {
		switch {
		case d.name == "main" || d.name == "init" || d.name == "_":
		case slices.Contains(calledByReflection, d.name):
		case mentions[d.name] == declared[d.name]:
			t.Errorf("%s: %s is declared but never referenced; delete it", d.pos, d.name)
		}
	}
}
