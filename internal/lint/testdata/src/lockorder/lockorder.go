// Package lockorder exercises lockset's order rule: the global
// mutex-acquisition-order graph must be acyclic.
package lockorder

import "sync"

// A and B are two lock-bearing resources taken in opposite orders by
// lockAB and lockBA below: a cycle.
type A struct {
	mu sync.Mutex
	n  int
}

// B is the second resource.
type B struct {
	mu sync.Mutex
	n  int
}

var a A
var b B

// lockAB acquires A.mu then B.mu directly.
func lockAB() {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want `lock order cycle: lockorder\.B\.mu acquired while holding lockorder\.A\.mu`
	b.n++
	b.mu.Unlock()
	a.n++
}

// lockBA acquires B.mu then reaches A.mu through a callee: the edge is
// found transitively via the call graph.
func lockBA() {
	b.mu.Lock()
	defer b.mu.Unlock()
	touchA() // want `lock order cycle: lockorder\.A\.mu acquired via lockorder\.touchA while holding lockorder\.B\.mu`
	b.n++
}

func touchA() {
	a.mu.Lock()
	a.n++
	a.mu.Unlock()
}

// C demonstrates self-deadlock: double() calls get() with C.mu already
// held, and get() re-acquires it.
type C struct {
	mu sync.Mutex
	n  int
}

func (x *C) get() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.n
}

func (x *C) double() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.n = x.get() * 2 // want `lock order cycle: lockorder\.C\.mu acquired via lockorder\.C\.get while already held \(self-deadlock\)`
}

// handoff is the clean sequential pattern: never more than one lock
// held, so no edges and no diagnostics.
func handoff() {
	a.mu.Lock()
	a.n++
	a.mu.Unlock()
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

// lockBASuppressed takes the same bad order as lockBA but documents why
// it cannot deadlock; the directive suppresses only this site.
func lockBASuppressed() {
	b.mu.Lock()
	defer b.mu.Unlock()
	//lint:ignore lockset startup-only path, never concurrent with lockAB
	a.mu.Lock()
	a.n++
	a.mu.Unlock()
}
