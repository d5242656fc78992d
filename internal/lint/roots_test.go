package lint_test

import (
	"sort"
	"testing"

	"pdcquery/internal/lint"
)

// TestRepoRootRulesMatch holds every request-path root rule
// (vclockcharge, ctxpropagate, errflow) and every hot-path root pattern
// (hotalloc) to the real module: each must select at least one
// function. The analyzers pick their roots by name, so a rename — a
// handler refactor, a moved kernel — can leave a rule matching nothing;
// the analyzer then checks less and still reports clean.
func TestRepoRootRulesMatch(t *testing.T) {
	cov := lint.RootCoverage(loadRepoSession(t).Graph())
	if len(cov) == 0 {
		t.Fatal("no root rules reported")
	}
	var rules []string
	for r := range cov {
		rules = append(rules, r)
	}
	sort.Strings(rules)
	for _, r := range rules {
		if cov[r] == 0 {
			t.Errorf("root rule %q selects no function in the module; fix the rule or delete it", r)
		}
	}
}
