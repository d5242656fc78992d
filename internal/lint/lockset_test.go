package lint_test

import (
	"testing"

	"pdcquery/internal/lint"
	"pdcquery/internal/lint/linttest"
)

// The lockset analyzer has one fixture per rule; each runs the whole
// analyzer, so a fixture also shows the other two rules stay quiet on it.

func TestLockOrder(t *testing.T) {
	linttest.Run(t, lint.LockSetAnalyzer, "lockorder")
}

func TestLockHold(t *testing.T) {
	linttest.Run(t, lint.LockSetAnalyzer, "lockhold")
}

func TestMutexGuard(t *testing.T) {
	linttest.Run(t, lint.LockSetAnalyzer, "mutexguard")
}

// TestMutexGuardValueReceiver checks value receivers are held to the
// same rule (a copied mutex is its own bug, but the unlocked read is
// what we can see syntactically).
func TestMutexGuardValueReceiver(t *testing.T) {
	dir := linttest.WriteTempFixture(t, "valrecv", map[string]string{
		"v.go": `package valrecv

import "sync"

type box struct {
	mu sync.Mutex
	v  int
}

func (b *box) Get() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.v
}

func (b box) Leak() int { return b.v }
`,
	})
	pkgs, err := lint.LoadTree(dir, "valrecv")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunAnalyzers(pkgs, []*lint.Analyzer{lint.LockSetAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("want exactly the Leak finding, got %v", diags)
	}
}

// TestRepoLockOrder runs lockset over the real tree: the global
// mutex-acquisition graph must stay acyclic, no lock may be held across
// storage I/O or a send, and guarded fields are touched under their
// mutex.
func TestRepoLockOrder(t *testing.T) {
	requireRepoClean(t, lint.LockSetAnalyzer)
}
