// pdc-lint is the repo's multichecker: it runs the custom invariant
// analyzers in internal/lint (`pdc-lint -list` prints the catalog) over
// Go packages. All analyzers in one invocation share a single loaded
// package set, call graph, and CFG cache, and the whole-program ones see
// every package at once — which is why this is the only way to run
// them.
//
//	go run ./cmd/pdc-lint ./...
//	go run ./cmd/pdc-lint -nondeterminism=false ./internal/server
//	go run ./cmd/pdc-lint -json ./...    # one JSON diagnostic per line
//	go run ./cmd/pdc-lint -timing ./...  # per-analyzer wall time on stderr
//	go run ./cmd/pdc-lint -list          # print the analyzer catalog
//
// Exit status: 0 clean, 1 usage or load failure, 2 diagnostics found.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pdcquery/internal/lint"
)

func main() {
	analyzers := lint.All()
	enabled := make(map[string]*bool, len(analyzers))
	fs := flag.NewFlagSet("pdc-lint", flag.ExitOnError)
	for _, a := range analyzers {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i > 0 {
			doc = doc[:i]
		}
		enabled[a.Name] = fs.Bool(a.Name, true, doc)
	}
	jsonOut := fs.Bool("json", false, "emit one JSON diagnostic per line on stdout")
	timing := fs.Bool("timing", false, "print per-analyzer wall time on stderr")
	listOut := fs.Bool("list", false, "print the analyzer catalog and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: pdc-lint [flags] packages...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(1)
	}
	if *listOut {
		printCatalog(analyzers)
		return
	}
	var active []*lint.Analyzer
	for _, a := range analyzers {
		if *enabled[a.Name] {
			active = append(active, a)
		}
	}
	args := fs.Args()
	if len(args) == 0 {
		fs.Usage()
		os.Exit(1)
	}

	pkgs, err := lint.Load("", args...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdc-lint:", err)
		os.Exit(1)
	}
	// One session for the whole run: the call graph and CFG cache are
	// built once and shared by every analyzer.
	diags, err := runActive(lint.NewSession(pkgs), active, *timing)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdc-lint:", err)
		os.Exit(1)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, d := range diags {
			// One object per line so CI can annotate PRs by streaming.
			// The schema (lint.JSONDiagnostic) is pinned by a unit test.
			if err := enc.Encode(lint.ToJSON(d)); err != nil {
				fmt.Fprintln(os.Stderr, "pdc-lint:", err)
				os.Exit(1)
			}
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s\n", d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "pdc-lint: %d finding(s)\n", len(diags))
		os.Exit(2)
	}
}

// runActive applies the active analyzers over one session. Without
// -timing that is a single Run; with it, one Run per analyzer so each
// step's wall time can be measured and printed — the shared session
// keeps the call graph and CFGs cached across steps, so the split costs
// only scheduling noise.
func runActive(session *lint.Session, active []*lint.Analyzer, timing bool) ([]lint.Diagnostic, error) {
	if !timing {
		return session.Run(active)
	}
	var diags []lint.Diagnostic
	var total time.Duration
	for _, a := range active {
		start := time.Now() //lint:ignore nondeterminism -timing measures the lint run itself, not simulated behaviour
		ds, err := session.Run([]*lint.Analyzer{a})
		if err != nil {
			return nil, err
		}
		step := time.Now().Sub(start) //lint:ignore nondeterminism -timing measures the lint run itself, not simulated behaviour
		total += step
		fmt.Fprintf(os.Stderr, "pdc-lint: timing %-16s %8.1fms  %d finding(s)\n",
			a.Name, float64(step.Microseconds())/1000, len(ds))
		diags = append(diags, ds...)
	}
	fmt.Fprintf(os.Stderr, "pdc-lint: timing %-16s %8.1fms\n", "total", float64(total.Microseconds())/1000)
	// Interleaving per-analyzer runs loses the global position sort a
	// single Run would produce; restore it.
	lint.SortDiagnostics(diags)
	return diags, nil
}

// printCatalog answers -list: one analyzer per line with its scope and
// one-line summary.
func printCatalog(analyzers []*lint.Analyzer) {
	for _, a := range analyzers {
		scope := "package"
		if a.Global {
			scope = "global "
		}
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i > 0 {
			doc = doc[:i]
		}
		fmt.Printf("%-16s %s  %s\n", a.Name, scope, doc)
	}
}
