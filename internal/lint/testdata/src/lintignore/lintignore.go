// Package lintignore exercises the lintignore analyzer: a directive that
// names an analyzer the catalog has is fine; one naming a retired or
// misspelled analyzer suppresses nothing and is a finding.
package lintignore

import "time"

// Live names a catalog analyzer.
func Live() time.Time {
	//lint:ignore nondeterminism the fixture reads the wall clock on purpose
	return time.Now()
}

// Retired names an analyzer the catalog no longer has.
func Retired() []int {
	//lint:ignore hotpath scratch reused across calls // want `//lint:ignore names "hotpath", which no analyzer of the catalog has`
	return make([]int, 4)
}

// Mixed lists a live and a misspelled analyzer; only the second is a
// finding.
func Mixed() {
	//lint:ignore nopanic,nopanics the fixture panics on purpose // want `names "nopanics"`
	panic("fixture")
}

// NoReason is no directive at all (the reason is mandatory), so its
// name is not checked.
func NoReason() {
	//lint:ignore nosuch
}
