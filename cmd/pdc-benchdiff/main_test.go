package main

import (
	"strings"
	"testing"
)

// TestCompareIsExact holds both figure families to the one rule: a
// figure passes only when it equals its committed value. A lower figure
// fails too, naming the command that takes it, and a figure on one side
// only fails as a stale baseline.
func TestCompareIsExact(t *testing.T) {
	t.Run("allocs", func(t *testing.T) {
		checkCompare(t, map[string]float64{"stmt.count.warm": 126, "exec.scanRegion.warm": 0})
	})
	t.Run("modeled", func(t *testing.T) {
		checkCompare(t, map[string]int64{"fig3.logn16.PDC-H": 50889, "plancache.logn16.warm": 330200})
	})
}

func checkCompare[N int64 | float64](t *testing.T, base map[string]N) {
	with := func(name string, v N) map[string]N {
		m := make(map[string]N, len(base)+1)
		for k, b := range base {
			m[k] = b
		}
		m[name] = v
		return m
	}
	without := func(name string) map[string]N {
		m := with(name, 0)
		delete(m, name)
		return m
	}
	for name, b := range base {
		for _, tc := range []struct {
			what     string
			cur      map[string]N
			base     map[string]N
			fails    bool
			mentions string
		}{
			{what: "equal", cur: with(name, b), base: base},
			{what: "+1", cur: with(name, b+1), base: base, fails: true, mentions: "REGRESSION"},
			{what: "-1", cur: with(name, b-1), base: base, fails: true, mentions: "make bench-seed"},
			{what: "not measured", cur: without(name), base: base, fails: true, mentions: "make bench-seed"},
			{what: "not in the baseline", cur: base, base: without(name), fails: true, mentions: "make bench-seed"},
		} {
			rows, failures := compare("figure", tc.base, tc.cur)
			if len(rows) != len(base) {
				t.Errorf("%s %s: %d rows, want %d", name, tc.what, len(rows), len(base))
			}
			if got := len(failures) > 0; got != tc.fails {
				t.Errorf("%s %s: failures %q, want failing %v", name, tc.what, failures, tc.fails)
				continue
			}
			if tc.fails && (len(failures) != 1 || !strings.Contains(failures[0], name) || !strings.Contains(failures[0], tc.mentions)) {
				t.Errorf("%s %s: failures %q, want one naming %s and %q", name, tc.what, failures, name, tc.mentions)
			}
		}
	}
}
