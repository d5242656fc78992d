// Package linttest is an analysistest-style harness for the lint
// package: it loads a fixture tree from testdata/src/<name>, runs one
// analyzer over it, and compares the diagnostics against "// want"
// expectations embedded in the fixture source.
//
// An expectation is a comment containing `want` followed by one or more
// quoted regular expressions; it matches diagnostics reported on the
// comment's line:
//
//	time.Sleep(d) // want `nondeterministic call time\.Sleep`
package linttest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pdcquery/internal/lint"
)

// Run loads testdata/src/<fixture> (relative to the calling test's
// directory) with lint.LoadTree — each directory holding .go files is
// one package, importable by the others under
// "<fixture>/<relative-path>" — applies the analyzer, and reports any
// mismatch between produced and expected diagnostics on t.
func Run(t *testing.T, a *lint.Analyzer, fixture string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", filepath.FromSlash(fixture))
	pkgs, err := lint.LoadTree(dir, fixture)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	diags, err := lint.RunAnalyzers(pkgs, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, fixture, err)
	}

	wants := make(map[string][]want)
	for _, pkg := range pkgs {
		if err := collectWants(pkg, wants); err != nil {
			t.Fatal(err)
		}
	}

	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		matched := false
		rest := wants[key][:0]
		for _, w := range wants[key] {
			if !matched && w.re.MatchString(d.Message) {
				matched = true
				continue
			}
			rest = append(rest, w)
		}
		wants[key] = rest
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", key, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			t.Errorf("%s: expected diagnostic matching %q, got none", key, w.re)
		}
	}
}

type want struct {
	re *regexp.Regexp
}

var wantMarker = regexp.MustCompile(`\bwant\s+(.*)$`)

// collectWants scans every fixture file's comments for expectations,
// accumulating into wants.
func collectWants(pkg *lint.Package, wants map[string][]want) error {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantMarker.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				patterns, err := parsePatterns(m[1])
				if err != nil {
					return fmt.Errorf("%s: bad want: %v", key, err)
				}
				for _, p := range patterns {
					re, err := regexp.Compile(p)
					if err != nil {
						return fmt.Errorf("%s: bad want regexp %q: %v", key, p, err)
					}
					wants[key] = append(wants[key], want{re})
				}
			}
		}
	}
	return nil
}

// parsePatterns extracts the quoted regexps following a want marker.
func parsePatterns(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '"':
			end := 1
			for end < len(s) {
				if s[end] == '\\' {
					end += 2
					continue
				}
				if s[end] == '"' {
					break
				}
				end++
			}
			if end >= len(s) {
				return nil, fmt.Errorf("unterminated %q", s)
			}
			lit, err := strconv.Unquote(s[:end+1])
			if err != nil {
				return nil, err
			}
			out = append(out, lit)
			s = strings.TrimSpace(s[end+1:])
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated %q", s)
			}
			out = append(out, s[1:1+end])
			s = strings.TrimSpace(s[end+2:])
		default:
			// Trailing prose after the patterns ends the list.
			if len(out) == 0 {
				return nil, fmt.Errorf("want not followed by a quoted pattern: %q", s)
			}
			return out, nil
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty want")
	}
	return out, nil
}

// WriteTempFixture is a helper for tests that generate fixtures on the
// fly (e.g. negative cases); it writes files into a temp dir laid out
// like testdata/src/<name> and returns the dir.
func WriteTempFixture(t *testing.T, name string, files map[string]string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), filepath.FromSlash(name))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for fname, src := range files {
		if err := os.WriteFile(filepath.Join(dir, fname), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}
