package main

import (
	"os"
	"path/filepath"
	"testing"
)

// The command functions print to stdout; these tests exercise flag
// parsing, parameter derivation and end-to-end execution of every
// subcommand (output content is validated by the underlying packages'
// tests).

func TestCmdTables(t *testing.T) {
	if err := cmdTables([]string{"-table", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTables([]string{"-table", "5", "-measured", "-n", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTables([]string{"-optimal", "-n", "4"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdClassify(t *testing.T) {
	if err := cmdClassify([]string{"-type", "register"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdClassify([]string{"-type", "queue", "-figure11"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdClassify([]string{"-type", "queue", "-witnesses"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdClassify([]string{"-type", "bogus"}); err == nil {
		t.Error("unknown type should error")
	}
}

func TestCmdLowerbound(t *testing.T) {
	for _, thm := range []string{"2", "3", "4", "5"} {
		if err := cmdLowerbound([]string{"-thm", thm}); err != nil {
			t.Fatalf("thm %s: %v", thm, err)
		}
	}
	if err := cmdLowerbound([]string{"-thm", "3", "-type", "register", "-k", "3"}); err != nil {
		t.Fatal(err)
	}
	// Budgets far above the bound report instead of panicking.
	for _, args := range [][]string{
		{"-thm", "3", "-budget", "200000"},
		{"-d", "300", "-u", "120", "-eps", "60", "-thm", "3", "-k", "2", "-budget", "8064"},
	} {
		if err := cmdLowerbound(args); err != nil {
			t.Errorf("lowerbound %v: %v", args, err)
		}
	}
	// Every theorem that runs on the type runs; the rest are skipped, not
	// fatal. Theorems 2 and 4 run on dict's witnesses although it has no
	// stock scenario.
	for _, args := range [][]string{{"-type", "stack"}, {"-type", "counter"}, {"-type", "dict"}} {
		if err := cmdLowerbound(args); err != nil {
			t.Errorf("lowerbound %v: %v", args, err)
		}
	}
	for _, args := range [][]string{
		{"-type", "bogus"},
		{"-thm", "9"},
		{"-thm", "4", "-type", "register"}, // no pair-free op
		{"-thm", "3", "-type", "set"},      // no stock scenario
		// -k is Theorem 3's alone.
		{"-thm", "2", "-k", "3"},
		{"-thm", "4", "-k", "3"},
		{"-thm", "5", "-k", "3"},
	} {
		if err := cmdLowerbound(args); err == nil {
			t.Errorf("lowerbound %v should error", args)
		}
	}
}

func TestCmdRunAndDump(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "history.json")
	if err := cmdRun([]string{"-type", "stack", "-ops", "3", "-dump", dump}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dump); err != nil {
		t.Errorf("dump file missing: %v", err)
	}
	if err := cmdRun([]string{"-backend", "bogus"}); err == nil {
		t.Error("unknown backend should error")
	}
}

func TestCmdSweep(t *testing.T) {
	if err := cmdSweep([]string{"-points", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdSync(t *testing.T) {
	if err := cmdSync([]string{"-n", "4"}); err != nil {
		t.Fatal(err)
	}
}

func TestParamDerivation(t *testing.T) {
	// Defaults: u = d/2, ε optimal, X = ε.
	if err := cmdTables([]string{"-table", "1", "-n", "3"}); err != nil {
		t.Fatal(err)
	}
	// Invalid: u > d.
	if err := cmdTables([]string{"-d", "100", "-u", "200"}); err == nil {
		t.Error("u > d should error")
	}
}
