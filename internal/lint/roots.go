package lint

import (
	"path"
	"sort"
	"strings"
)

// requestRoots is where a client request enters: the engine and the
// server's handlers.
var requestRoots = []string{"exec.Evaluate*", "server.handle*"}

// rootRules are the request-path roots each call-graph analyzer walks
// from, as "<pkg>.<glob>": pkg is an import-path suffix (so fixtures can
// reproduce it) and the glob matches the bare function or method name
// ([A-Z]* is "exported"). ctxpropagate adds the scheduler API that
// carries the request's cancellation state; errflow the whole serving
// and calling surface an error can cross. Roots are picked by name, so
// a rename can leave a rule matching nothing and the analyzer silently
// checking less: TestRepoRootRulesMatch holds every rule to the module.
var rootRules = map[string][]string{
	"vclockcharge": requestRoots,
	"ctxpropagate": append([]string{"sched.[A-Z]*"}, requestRoots...),
	"errflow": append([]string{
		"server.Serve", "server.serveOne", "server.Shutdown",
		"transport.Send", "transport.Recv", "transport.Close",
		"client.[A-Z]*", "core.[A-Z]*",
	}, requestRoots...),
}

// selectRoots returns the sorted keys of the graph nodes the analyzer's
// rules select, counting into coverage (when non-nil) how many functions
// each rule selected.
func selectRoots(g *CallGraph, analyzer string, coverage map[string]int) []string {
	var roots []string
	for _, key := range g.Keys() {
		n := g.Nodes[key]
		if n.Fn == nil || n.Fn.Pkg() == nil {
			continue
		}
		selected := false
		for _, rule := range rootRules[analyzer] {
			pkg, glob, _ := strings.Cut(rule, ".")
			if ok, _ := path.Match(glob, n.Fn.Name()); ok && pkgPathHasSuffix(n.Pkg.PkgPath, pkg) {
				selected = true
				if coverage != nil {
					coverage[analyzer+": "+rule]++
				}
			}
		}
		if selected {
			roots = append(roots, key)
		}
	}
	sort.Strings(roots)
	return roots
}

// RootCoverage reports, for every request-path root rule and hot-path
// root pattern the analyzers use, how many functions of the graph it
// selects, keyed "<analyzer>: <rule>".
func RootCoverage(g *CallGraph) map[string]int {
	out := make(map[string]int)
	for analyzer, rules := range rootRules {
		for _, rule := range rules {
			out[analyzer+": "+rule] = 0
		}
		selectRoots(g, analyzer, out)
	}
	for _, pat := range HotAllocRoots {
		out["hotalloc: "+pat] = len(expandHotRoots(g, []string{pat}))
	}
	return out
}
