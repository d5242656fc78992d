package lint_test

import (
	"testing"

	"pdcquery/internal/lint"
	"pdcquery/internal/lint/linttest"
)

func TestNopanic(t *testing.T) {
	linttest.Run(t, lint.NopanicAnalyzer, "nopanic/internal/server")
}

// TestNopanicOutOfScope checks packages off the request path may keep
// invariant panics.
func TestNopanicOutOfScope(t *testing.T) {
	dir := linttest.WriteTempFixture(t, "x/internal/wah", map[string]string{
		"w.go": `package wah

func mustAligned(n int) {
	if n%32 != 0 {
		panic("wah: unaligned")
	}
}
`,
	})
	pkgs, err := lint.LoadTree(dir, "x/internal/wah")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunAnalyzers(pkgs, []*lint.Analyzer{lint.NopanicAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("wah is out of scope, got %v", diags)
	}
}
