package lint_test

import (
	"testing"

	"pdcquery/internal/lint"
	"pdcquery/internal/lint/linttest"
)

func TestNondeterminism(t *testing.T) {
	linttest.Run(t, lint.NondeterminismAnalyzer, "nondet")
}

// TestNondeterminismExemptPackages checks the blessed wrappers are out
// of scope even when they touch the wall clock.
func TestNondeterminismExemptPackages(t *testing.T) {
	dir := linttest.WriteTempFixture(t, "x/internal/vclock", map[string]string{
		"clock.go": `package vclock

import "time"

// Now is the one place wall time may be read.
func Now() time.Time { return time.Now() }
`,
	})
	pkgs, err := lint.LoadTree(dir, "x/internal/vclock")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunAnalyzers(pkgs, []*lint.Analyzer{lint.NondeterminismAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("vclock should be exempt, got %v", diags)
	}
}

// TestRepoIsDeterministic runs the analyzer over the real production
// packages: the tree must stay clean.
func TestRepoIsDeterministic(t *testing.T) {
	requireRepoClean(t, lint.NondeterminismAnalyzer)
}
