package lint

import (
	"go/ast"
	"strings"
)

// NopanicAnalyzer forbids panic on server request-handling paths. A
// panicking handler kills the whole query server (one hostile or
// corrupt frame takes down every connection), so the packages between
// the wire and the evaluation engine must return errors instead. The
// write/build path (wah, dtype, region index construction) may keep
// panics for programmer-error invariants.
//
// Scope: packages whose import path contains one of nopanicScope.
// Escape hatch: //lint:ignore nopanic <reason> on the offending line.
var NopanicAnalyzer = &Analyzer{
	Name: "nopanic",
	Doc:  "forbid panic() in server request-handling and transport packages; return errors",
	Run:  runNopanic,
}

// nopanicScope are the request-path packages (matched as path suffixes
// or interior segments so testdata fixtures can reproduce them).
var nopanicScope = []string{
	"internal/server",
	"internal/transport",
	"internal/exec",
	"internal/query",
	"internal/selection",
}

func runNopanic(pass *Pass) error {
	inScope := false
	for _, s := range nopanicScope {
		if strings.HasSuffix(pass.PkgPath, s) || strings.Contains(pass.PkgPath, s+"/") {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			// The builtin, not a local redefinition.
			if obj := pass.Info.Uses[id]; obj != nil && obj.Parent() != nil && obj.Parent().Parent() == nil {
				pass.Reportf(call.Pos(),
					"panic on a request-handling path; return an error (a panicking handler kills the whole server)")
			}
			return true
		})
	}
	return nil
}
