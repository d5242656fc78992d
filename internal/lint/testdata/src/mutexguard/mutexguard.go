// Package mutexguard exercises lockset's guard rule, the
// position-after-mutex convention.
package mutexguard

import "sync"

// counter follows the convention: cap is configuration (before mu),
// n and hot are guarded (after mu).
type counter struct {
	cap int
	mu  sync.Mutex
	n   int
	hot map[string]int
}

func (c *counter) Cap() int { return c.cap } // before the mutex: unguarded

func (c *counter) Inc() { // locks: fine
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

func (c *counter) Peek() int {
	return c.n // want `counter\.n is guarded by "mu" .* method Peek touches it without holding the lock`
}

func (c *counter) bump(k string) {
	c.hot[k]++ // want `counter\.hot is guarded by "mu" .* method bump touches it without holding the lock`
	c.n++      // want `counter\.n is guarded by "mu" .* method bump touches it without holding the lock`
}

// incLocked is exempt by naming convention: the caller holds the lock.
func (c *counter) incLocked() { c.n++ }

func (c *counter) excused() int {
	//lint:ignore lockset single-writer phase before serving starts
	return c.n
}

// The next three take the lock somewhere in the method — all a rule that
// only asks "does the method mention the mutex" can see — but not where
// the field is touched.

func (c *counter) afterUnlock() int {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	return c.n // want `counter\.n is guarded by "mu" .* method afterUnlock touches it without holding the lock`
}

func (c *counter) oneBranch(add bool) int {
	if add {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}
	return c.n // want `counter\.n is guarded by "mu" .* method oneBranch touches it without holding the lock`
}

// spawn holds the lock, but the literal runs on another goroutine, after
// spawn has returned and released it.
func (c *counter) spawn() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.n++ // want `counter\.n is guarded by "mu" .* method spawn touches it without holding the lock`
	}()
}

// pool's wg sits after the mutex but synchronizes itself: fields typed
// from sync or sync/atomic are not guarded.
type pool struct {
	mu   sync.Mutex
	idle int
	wg   sync.WaitGroup
}

func (p *pool) Wait() { p.wg.Wait() }

// rwstate uses an RWMutex; same rules.
type rwstate struct {
	mu   sync.RWMutex
	rows []int
}

func (s *rwstate) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.rows)
}

func (s *rwstate) Raw() []int {
	return s.rows // want `rwstate\.rows is guarded by "mu" .* method Raw touches it without holding the lock`
}

// unguarded has no mutex at all: nothing to check.
type unguarded struct {
	a, b int
}

func (u *unguarded) Sum() int { return u.a + u.b }
