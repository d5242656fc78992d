package lint_test

import (
	"strings"
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

// TestNondeterminismEnvExemptPackages checks the bench harness may read
// its sizing knobs from the environment while other packages may not.
func TestNondeterminismEnvExemptPackages(t *testing.T) {
	dir := linttest.WriteTempFixture(t, "x/internal/bench", map[string]string{
		"bench.go": `package bench

import "os"

// LogN reads the bench sizing knob.
func LogN() string { return os.Getenv("PDCQ_LOGN") }
`,
	})
	pkgs, err := lint.LoadTree(dir, "x/internal/bench")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunAnalyzers(pkgs, []*lint.Analyzer{lint.NondeterminismAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("internal/bench should be env-exempt, got %v", diags)
	}
}

// TestRepoIsDeterministic runs the analyzer over the real production
// packages: the tree must stay clean.
func TestRepoIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	pkgs, err := lint.Load("..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunAnalyzers(pkgs, []*lint.Analyzer{lint.NondeterminismAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, d.String())
	}
	if len(msgs) > 0 {
		t.Errorf("nondeterminism crept into production code:\n%s", strings.Join(msgs, "\n"))
	}
}
