package lintime

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSmokeGatesSelectTests keeps the CI gates from going silently empty:
// `go test -run PAT` exits 0 when PAT matches no test, so renaming a test
// would quietly drop it from `make soak-smoke` and its siblings. Every
// |-alternative of every -run, -bench and -fuzz pattern in the Makefile
// and the CI workflow must match a Test, Fuzz or Benchmark function in the
// packages its command line names. `-run xxx` beside -bench is the idiom
// for "no tests, only benchmarks" and is exempt.
func TestSmokeGatesSelectTests(t *testing.T) {
	funcs := map[string][]string{} // package pattern → its test functions
	selects := func(alt string, pkgs []string) bool {
		// go test matches the first /-element against top-level names.
		re := regexp.MustCompile(strings.SplitN(alt, "/", 2)[0])
		for _, pkg := range pkgs {
			if _, ok := funcs[pkg]; !ok {
				funcs[pkg] = packageTestFuncs(t, pkg)
			}
			for _, name := range funcs[pkg] {
				if re.MatchString(name) {
					return true
				}
			}
		}
		return false
	}
	// The check itself must catch a misspelled name.
	if pkgs, alts := gateAlternatives(`	$(GO) test -run 'TestSoakClosedLop' ./internal/serve/`); len(alts) != 1 || selects(alts[0], pkgs) {
		t.Fatalf("a misspelled -run pattern went unreported (%v in %v)", alts, pkgs)
	}
	checked := 0
	for _, file := range []string{"Makefile", ".github/workflows/ci.yml"} {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(raw), "\n") {
			pkgs, alts := gateAlternatives(line)
			for _, alt := range alts {
				checked++
				if !selects(alt, pkgs) {
					t.Errorf("%s:%d: pattern %q matches no test function in %v", file, n+1, alt, pkgs)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run, -bench or -fuzz pattern to check")
	}
}

// gateAlternatives parses one `go test` command line into its package
// patterns and the |-alternatives of its -run, -bench and -fuzz patterns.
func gateAlternatives(line string) (pkgs, alts []string) {
	fields := strings.Fields(line)
	start := -1
	for i := 1; i < len(fields); i++ {
		if fields[i] == "test" && (fields[i-1] == "go" || fields[i-1] == "$(GO)") {
			start = i + 1
			break
		}
	}
	if start < 0 {
		return nil, nil
	}
	patterns := map[string]string{} // flag → pattern
	for i := start; i < len(fields); i++ {
		switch f := fields[i]; {
		case (f == "-run" || f == "-bench" || f == "-fuzz") && i+1 < len(fields):
			i++
			patterns[f] = strings.Trim(fields[i], `'"`)
		case strings.HasPrefix(f, "./"):
			pkgs = append(pkgs, f)
		}
	}
	if patterns["-run"] == "xxx" && patterns["-bench"] != "" {
		delete(patterns, "-run")
	}
	for _, pattern := range patterns {
		alts = append(alts, strings.Split(pattern, "|")...)
	}
	return pkgs, alts
}

// packageTestFuncs lists the Test, Fuzz and Benchmark functions declared
// in the _test.go files of a package pattern such as ./internal/serve/ or
// ./... (every package of this module; bench/ is a module of its own).
func packageTestFuncs(t *testing.T, pkg string) []string {
	t.Helper()
	var files []string
	if dir, ok := strings.CutSuffix(pkg, "/..."); ok {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && path != dir && (d.Name() == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			if strings.HasSuffix(path, "_test.go") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	} else {
		var err error
		if files, err = filepath.Glob(filepath.Join(pkg, "*_test.go")); err != nil {
			t.Fatal(err)
		}
	}
	var names []string
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Benchmark"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	return names
}
