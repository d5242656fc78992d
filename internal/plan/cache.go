package plan

import (
	"container/list"
	"sync"
)

// Cache is the prepared-plan LRU: statement key → built plan, valid only
// for the (epoch, metadata generation) pair it was built against. A hit
// under a different epoch or generation is treated as a miss and evicted
// — rebalances and metadata mutations invalidate without any explicit
// flush.
type Cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recent
	byKey map[string]*list.Element

	stats CacheStats
}

// CacheStats is a snapshot of the cache's lifetime counters. Evictions
// counts plans dropped to make room; a stale plan is counted as a miss.
type CacheStats struct {
	Hits, Misses, Evictions int64
}

type cacheEntry struct {
	key   string
	epoch uint64
	gen   uint64
	plan  *Plan
}

// NewCache returns an LRU holding up to capacity plans (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{cap: capacity, ll: list.New(), byKey: make(map[string]*list.Element)}
}

// Get returns the cached plan for key if it was built at exactly this
// epoch and metadata generation.
func (c *Cache) Get(key string, epoch, gen uint64) (*Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.epoch != epoch || ent.gen != gen {
		// Stale: the world changed under the plan.
		c.ll.Remove(el)
		delete(c.byKey, key)
		c.stats.Misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	return ent.plan, true
}

// Put stores a plan built at (epoch, gen), evicting the least recently
// used entry when full.
func (c *Cache) Put(key string, epoch, gen uint64, p *Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.epoch, ent.gen, ent.plan = epoch, gen, p
		c.ll.MoveToFront(el)
		return
	}
	for c.ll.Len() >= c.cap {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.ll.Remove(back)
		delete(c.byKey, back.Value.(*cacheEntry).key)
		c.stats.Evictions++
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, epoch: epoch, gen: gen, plan: p})
}

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the lifetime counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
