package lint

import (
	"path"
	"strings"
)

// requestRoots is where a client request enters: the engine and the
// server's handlers.
var requestRoots = []string{"exec.Evaluate*", "server.handle*"}

// rootRules are the roots each call-graph analyzer walks from. A rule is
// "<pkg>.<glob>" or "<pkg>.<Type>.<glob>": pkg is an import-path suffix
// (so fixtures can reproduce it); the glob matches the bare name of a
// function or of a method on any receiver ([A-Z]* is "exported"), and
// with a Type in front only the methods of that receiver. nilcharge
// walks the request path; ctxpropagate adds the scheduler API that
// carries the request's cancellation state; errflow the whole serving
// and calling surface an error can cross; hotalloc has its own list of
// kernels. Roots are picked by name, so a rename can leave a rule
// matching nothing and the analyzer silently checking less:
// TestRepoRootRulesMatch holds every rule to the module.
var rootRules = map[string][]string{
	"nilcharge":    requestRoots,
	"ctxpropagate": append([]string{"sched.[A-Z]*"}, requestRoots...),
	"errflow": append([]string{
		"server.Serve", "server.serveOne", "server.Shutdown",
		"transport.Send", "transport.Recv", "transport.Close",
		"client.[A-Z]*", "core.[A-Z]*",
	}, requestRoots...),
	"hotalloc": HotAllocRoots,
}

// ruleSelects is the one root-pattern matcher.
func ruleSelects(rule string, n *CallNode) bool {
	pkg, pat, _ := strings.Cut(rule, ".")
	name := n.Fn.Name()
	if strings.Contains(pat, ".") {
		name = strings.TrimPrefix(n.Key, n.Pkg.PkgPath+".") // "Type.Method"
	}
	ok, _ := path.Match(pat, name)
	return ok && pkgPathHasSuffix(n.Pkg.PkgPath, pkg)
}

// selectRoots returns the sorted keys of the graph nodes the rules
// select.
func selectRoots(g *CallGraph, rules []string) []string {
	var roots []string
	for _, key := range g.Keys() {
		for _, rule := range rules {
			if ruleSelects(rule, g.Nodes[key]) {
				roots = append(roots, key)
				break
			}
		}
	}
	return roots
}

// RootCoverage reports, for every root rule the analyzers use, how many
// functions of the graph it selects, keyed "<analyzer>: <rule>".
func RootCoverage(g *CallGraph) map[string]int {
	out := make(map[string]int)
	for analyzer, rules := range rootRules {
		for _, rule := range rules {
			out[analyzer+": "+rule] = len(selectRoots(g, []string{rule}))
		}
	}
	return out
}
