package lint_test

import (
	"testing"

	"pdcquery/internal/lint"
	"pdcquery/internal/lint/linttest"
)

func TestLintIgnore(t *testing.T) {
	linttest.Run(t, lint.IgnoreAnalyzer, "lintignore")
}
