// Package lint is the repo's static-analysis subsystem: a small,
// dependency-free re-implementation of the golang.org/x/tools
// go/analysis vocabulary (Analyzer, Pass, Diagnostic) plus a package
// loader, so custom invariant checkers can run offline with nothing but
// the Go toolchain.
//
// The checkers enforce the two load-bearing conventions of this
// codebase (see DESIGN.md "Correctness tooling"):
//
//   - determinism: all time and randomness flows through internal/vclock
//     and internal/simio, never the wall clock or the global rand source;
//   - mutex discipline: struct fields declared after a sync.Mutex /
//     sync.RWMutex field are guarded by it, and methods touch them only
//     with the lock held.
//
// plus one structural invariant: server request paths must return
// errors rather than panic.
//
// The per-package checkers (nondeterminism, nopanic, lintignore) see one
// package at a time. The rest set Analyzer.Global
// and receive every loaded package at once via Pass.Pkgs: they reason
// across packages over a whole-repo static call graph (callgraph.go,
// roots.go), and the dataflow tier (lockset, barrierdet, errflow) also
// over per-function CFGs (cfg.go) with the worklist solver and the one
// keyed-map lattice of dataflow.go. One graph and one CFG per
// function body are built lazily and shared by every analyzer of a run.
// There is one way to run them: Load, NewSession, Session.Run, which is
// what cmd/pdc-lint and the tests do.
//
// Diagnostics can be suppressed with a directive comment on the
// offending line or the line above it:
//
//	//lint:ignore <analyzer>[,<analyzer>...] reason
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:ignore
	// directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Global marks analyzers that need the whole package set at once
	// (call-graph analyses). A global analyzer runs exactly once per
	// RunAnalyzers call with Pass.Pkgs populated; per-package fields
	// (Files, Pkg, Info, PkgPath) are left nil/empty.
	Global bool
	// Run inspects a package (or, for Global analyzers, the whole
	// package set) and reports findings through the pass.
	Run func(*Pass) error
}

// Pass connects one analyzer run to one package (or, for Global
// analyzers, to the whole package set).
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// PkgPath is the package import path (fixture packages use their
	// testdata-relative path).
	PkgPath string
	// Pkgs is the full package set; populated only for Global analyzers.
	Pkgs []*Package

	shared *sharedState
	diags  []Diagnostic
}

// sharedState caches artifacts that several analyzers in one
// RunAnalyzers invocation want to reuse: the call graph and the
// per-function CFGs the dataflow tier walks.
type sharedState struct {
	graph  *CallGraph
	bodies map[string][]funcBody
}

// funcBody is one function body of a declared function, as a CFG: the
// declaration's own (Lit is nil) or that of a function literal inside
// it. A literal's body runs wherever its value is called, not where it
// appears, so each is a graph of its own.
type funcBody struct {
	CFG *CFG
	Lit *ast.FuncLit
}

// CallGraph returns the static call graph over Pass.Pkgs, building it on
// first use and sharing it between Global analyzers of the same run.
func (p *Pass) CallGraph() *CallGraph {
	if p.shared == nil {
		p.shared = &sharedState{}
	}
	if p.shared.graph == nil {
		p.shared.graph = NewCallGraph(p.Pkgs)
	}
	return p.shared.graph
}

// bodies returns the control-flow graphs of the declared function
// funcKey (a call-graph key): its own body first, then every function
// literal in it, nested ones included, in source order. They are built
// on first use and cached for the rest of the run. Returns nil when the
// key is unknown or the function has no body.
func (p *Pass) bodies(funcKey string) []funcBody {
	node := p.CallGraph().Nodes[funcKey]
	if node == nil || node.Decl.Body == nil {
		return nil
	}
	if bs, ok := p.shared.bodies[funcKey]; ok {
		return bs
	}
	bs := []funcBody{{CFG: NewCFG(node.Decl.Body)}}
	for _, lit := range collectDeclLits(node.Decl.Body) {
		bs = append(bs, funcBody{CFG: NewCFG(lit.Body), Lit: lit})
	}
	if p.shared.bodies == nil {
		p.shared.bodies = make(map[string][]funcBody)
	}
	p.shared.bodies[funcKey] = bs
	return bs
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// FuncKey is the call-graph key of the function the finding is in
	// (empty for analyzers that do not reason per function).
	FuncKey string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportAttributed records a diagnostic carrying the enclosing function's
// FuncKey — the metadata the pdc-lint -json schema exposes for CI tooling.
func (p *Pass) ReportAttributed(pos token.Pos, funcKey, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		FuncKey:  funcKey,
	})
}

// All returns the analyzers shipped with pdc-lint, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		NondeterminismAnalyzer,
		NopanicAnalyzer,
		CtxPropagateAnalyzer,
		AliasGuardAnalyzer,
		BarrierDetAnalyzer,
		ErrFlowAnalyzer,
		LockSetAnalyzer,
		IgnoreAnalyzer,
	}
}

// Session binds one loaded package set to the expensive artifacts the
// analyzers derive from it — the whole-repo call graph and the CFGs — so
// that several Run invocations (one per analyzer, as pdc-lint -timing
// and the repo-clean tests issue them) build them once instead of once
// per invocation.
type Session struct {
	pkgs   []*Package
	shared *sharedState
}

// NewSession returns a session over pkgs with an empty artifact cache.
func NewSession(pkgs []*Package) *Session {
	return &Session{pkgs: pkgs, shared: &sharedState{}}
}

// Graph returns the session's cached whole-repo call graph, building it
// on first use. It is the same graph the session's Global analyzers
// share via Pass.CallGraph, so callers that need graph-level facts after
// a Run (TestRepoRootRulesMatch, for one) pay nothing extra.
func (s *Session) Graph() *CallGraph {
	if s.shared.graph == nil {
		s.shared.graph = NewCallGraph(s.pkgs)
	}
	return s.shared.graph
}

// RunAnalyzers applies each per-package analyzer to each package and
// each Global analyzer once to the whole set, filters //lint:ignore'd
// findings, and returns the remainder sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return NewSession(pkgs).Run(analyzers)
}

// Run applies the analyzers over the session's package set, reusing the
// session's cached call graph across invocations.
func (s *Session) Run(analyzers []*Analyzer) ([]Diagnostic, error) {
	shared := s.shared
	pkgs := s.pkgs
	var out []Diagnostic
	for _, pkg := range pkgs {
		ig := collectIgnores(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			if a.Global {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				PkgPath:  pkg.PkgPath,
				shared:   shared,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.PkgPath, a.Name, err)
			}
			for _, d := range pass.diags {
				if !ig.suppressed(a.Name, d.Pos) {
					out = append(out, d)
				}
			}
		}
	}
	if len(pkgs) > 0 {
		// Global analyzers see every package at once; their ignore set is
		// the union over all files (packages loaded together share one
		// FileSet, so positions are comparable).
		var allFiles []*ast.File
		for _, pkg := range pkgs {
			allFiles = append(allFiles, pkg.Files...)
		}
		ig := collectIgnores(pkgs[0].Fset, allFiles)
		for _, a := range analyzers {
			if !a.Global {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkgs[0].Fset,
				Pkgs:     pkgs,
				shared:   shared,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
			for _, d := range pass.diags {
				if !ig.suppressed(a.Name, d.Pos) {
					out = append(out, d)
				}
			}
		}
	}
	SortDiagnostics(out)
	return out, nil
}

// SortDiagnostics orders findings by position then analyzer name — the
// stable output order of Run. Exported for callers that collect
// diagnostics across several Run invocations (pdc-lint -timing runs one
// analyzer at a time) and need the merged list back in canonical order.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// ignoreSet records which (file, line) pairs are exempt per analyzer.
type ignoreSet struct {
	// byAnalyzer maps analyzer name -> "file:line" set.
	byAnalyzer map[string]map[string]bool
}

const ignorePrefix = "//lint:ignore"

// collectIgnores parses //lint:ignore directives. A directive on its own
// line exempts the next line; a trailing directive exempts its own line.
func collectIgnores(fset *token.FileSet, files []*ast.File) *ignoreSet {
	ig := &ignoreSet{byAnalyzer: make(map[string]map[string]bool)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names := directiveNames(c)
				if names == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				// Own-line directive: no code before the comment.
				line := pos.Line
				if startsLine(fset, f, c) {
					line = pos.Line + 1
				}
				for _, name := range names {
					key := fmt.Sprintf("%s:%d", pos.Filename, line)
					if ig.byAnalyzer[name] == nil {
						ig.byAnalyzer[name] = make(map[string]bool)
					}
					ig.byAnalyzer[name][key] = true
				}
			}
		}
	}
	return ig
}

// directiveNames returns the analyzer names a //lint:ignore comment
// lists, or nil when c is no directive. A directive without a reason is
// no directive: the reason is mandatory, like staticcheck's.
func directiveNames(c *ast.Comment) []string {
	rest, ok := strings.CutPrefix(c.Text, ignorePrefix)
	if !ok {
		return nil
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return nil
	}
	return strings.Split(fields[0], ",")
}

// IgnoreAnalyzer reports //lint:ignore directives that name an analyzer
// All() does not have: a retired or misspelled name suppresses nothing,
// and left behind it reads as if it did.
var IgnoreAnalyzer = &Analyzer{
	Name: "lintignore",
	Doc:  "//lint:ignore directives must name analyzers of the catalog",
}

// The analyzer's Run reads All(), which lists the analyzer itself, so it
// is bound here rather than in the declaration.
func init() { IgnoreAnalyzer.Run = runIgnoreCheck }

func runIgnoreCheck(pass *Pass) error {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, name := range directiveNames(c) {
					if !known[name] {
						pass.Reportf(c.Pos(), "//lint:ignore names %q, which no analyzer of the catalog has", name)
					}
				}
			}
		}
	}
	return nil
}

// startsLine reports whether the comment is the first token on its line
// (heuristic: its column is where any preceding run of whitespace ends —
// we approximate by checking nothing in the file's code overlaps the
// line before the comment's column; a column of 1 is always a line
// start; otherwise we scan the declarations).
func startsLine(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	pos := fset.Position(c.Pos())
	if pos.Column == 1 {
		return true
	}
	// If any non-comment node ends on the same line before the comment
	// starts, the directive is trailing.
	trailing := false
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || trailing {
			return false
		}
		end := fset.Position(n.End())
		if end.Filename == pos.Filename && end.Line == pos.Line && end.Column <= pos.Column {
			switch n.(type) {
			case *ast.Comment, *ast.CommentGroup, *ast.File:
			default:
				trailing = true
			}
		}
		return true
	})
	return !trailing
}

func (ig *ignoreSet) suppressed(analyzer string, pos token.Position) bool {
	m := ig.byAnalyzer[analyzer]
	if m == nil {
		return false
	}
	return m[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)]
}
