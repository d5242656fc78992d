package lint_test

import (
	"sort"
	"testing"

	"pdcquery/internal/lint"
)

// TestRepoRootRulesMatch holds every root rule to the real module: the
// request-path rules of nilcharge, ctxpropagate and errflow and
// hotalloc's hot-path patterns are one table read by one matcher, and
// each rule must select at least one function. The analyzers pick their
// roots by name, so a rename — a handler refactor, a moved kernel — can
// leave a rule matching nothing; the analyzer then checks less and still
// reports clean.
func TestRepoRootRulesMatch(t *testing.T) {
	cov := lint.RootCoverage(loadRepoSession(t).Graph())
	for _, pat := range lint.HotAllocRoots {
		if _, ok := cov["hotalloc: "+pat]; !ok {
			t.Errorf("hot root %q is not in the root-rule table", pat)
		}
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
