package lint_test

import (
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"pdcquery/internal/lint"
)

// repoSession loads the production tree once per test binary and shares
// one lint.Session across every repo-clean test, so the whole-repo call
// graph the global analyzers need is built a single time instead of once
// per analyzer (the "cache the call graph between lint invocations"
// behaviour make lint and CI rely on).
var repoSession = struct {
	once sync.Once
	s    *lint.Session
	err  error
}{}

func loadRepoSession(t *testing.T) *lint.Session {
	t.Helper()
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	repoSession.once.Do(func() {
		pkgs, err := lint.Load("..", "./...")
		if err != nil {
			repoSession.err = err
			return
		}
		repoSession.s = lint.NewSession(pkgs)
	})
	if repoSession.err != nil {
		t.Fatal(repoSession.err)
	}
	return repoSession.s
}

// requireRepoClean asserts the analyzers report nothing on the
// production packages.
func requireRepoClean(t *testing.T, analyzers ...*lint.Analyzer) {
	t.Helper()
	diags, err := loadRepoSession(t).Run(analyzers)
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, d.String())
	}
	if len(msgs) > 0 {
		t.Errorf("analyzers must be clean on the repo:\n%s", strings.Join(msgs, "\n"))
	}
}

// TestRepoCleanAllAnalyzers is the gate: the full catalog must pass over
// the production tree, matching what make lint and CI enforce. Each
// message names its analyzer.
func TestRepoCleanAllAnalyzers(t *testing.T) {
	requireRepoClean(t, lint.All()...)
}

// TestCatalogDocumented holds README's analyzer table to the catalog:
// every lint.All() name has a row, and no row names an analyzer All()
// lacks. Prose that counts or lists the analyzers by hand goes stale;
// the table is the one list, and this is what keeps it true.
func TestCatalogDocumented(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, found := strings.Cut(string(readme), "| analyzer | invariant |")
	if !found {
		t.Fatal("README.md has no analyzer table")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	documented := make(map[string]bool)
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z]+)` \\|").FindAllStringSubmatch(table, -1) {
		documented[m[1]] = true
	}
	for _, a := range lint.All() {
		if !documented[a.Name] {
			t.Errorf("analyzer %s has no row in README's analyzer table", a.Name)
		}
		delete(documented, a.Name)
	}
	for name := range documented {
		t.Errorf("README's analyzer table has a row for %s, which lint.All() lacks", name)
	}
}
