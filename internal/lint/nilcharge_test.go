package lint_test

import (
	"testing"

	"pdcquery/internal/lint"
	"pdcquery/internal/lint/linttest"
)

// TestNilCharge is the path-sensitive nilness fixture; none of it is on
// a request path, so its literal-nil store read stays legal.
func TestNilCharge(t *testing.T) {
	linttest.Run(t, lint.NilChargeAnalyzer, "nilcharge")
}

// TestVclockCharge is the request-path fixture: a literal nil account
// reachable from exec.Evaluate* or server.handle* is uncharged I/O,
// unless the frame aggregate-charges.
func TestVclockCharge(t *testing.T) {
	linttest.Run(t, lint.NilChargeAnalyzer, "vclockcharge")
}

// TestRepoNilCharges runs nilcharge over the real tree: accounts and
// tokens must be provably non-nil wherever they are charged or deref'd,
// and every simio touch on a request path must be charged.
func TestRepoNilCharges(t *testing.T) {
	requireRepoClean(t, lint.NilChargeAnalyzer)
}
