package plan

import (
	"container/list"
	"sync"
)

// Cache is the prepared-statement LRU: statement key → what was
// prepared for it, valid only for the (epoch, metadata generation) pair
// it was built against. A hit under a different epoch or generation is
// treated as a miss and evicted — rebalances and metadata mutations
// invalidate without any explicit flush. Members keep their prepared
// plans in one; clients keep their prepared texts in another.
type Cache[V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recent
	byKey map[string]*list.Element

	stats CacheStats
}

// CacheStats is a snapshot of the cache's lifetime counters. Evictions
// counts entries dropped to make room; a stale entry is counted as a
// miss.
type CacheStats struct {
	Hits, Misses, Evictions int64
}

type cacheEntry[V any] struct {
	key   string
	epoch uint64
	gen   uint64
	val   V
}

// NewCache returns an LRU holding up to capacity entries (minimum 1).
func NewCache[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[V]{cap: capacity, ll: list.New(), byKey: make(map[string]*list.Element)}
}

// Get returns the value cached for key if it was built at exactly this
// epoch and metadata generation. The key is only read: a caller may
// pass a string that aliases a buffer it reuses afterwards.
func (c *Cache[V]) Get(key string, epoch, gen uint64) (V, bool) {
	var zero V
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.stats.Misses++
		return zero, false
	}
	ent := el.Value.(*cacheEntry[V])
	if ent.epoch != epoch || ent.gen != gen {
		// Stale: the world changed under the entry.
		c.ll.Remove(el)
		delete(c.byKey, ent.key)
		c.stats.Misses++
		return zero, false
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	return ent.val, true
}

// Peek is Get without effects: it counts nothing and leaves recency and
// stale entries as they are. A caller looks with it before it knows
// whether the lookup will serve a statement at all.
func (c *Cache[V]) Peek(key string, epoch, gen uint64) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		if ent := el.Value.(*cacheEntry[V]); ent.epoch == epoch && ent.gen == gen {
			return ent.val, true
		}
	}
	var zero V
	return zero, false
}

// Put stores a value built at (epoch, gen), evicting the least recently
// used entry when full.
func (c *Cache[V]) Put(key string, epoch, gen uint64, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		ent := el.Value.(*cacheEntry[V])
		ent.epoch, ent.gen, ent.val = epoch, gen, v
		c.ll.MoveToFront(el)
		return
	}
	for c.ll.Len() >= c.cap {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.ll.Remove(back)
		delete(c.byKey, back.Value.(*cacheEntry[V]).key)
		c.stats.Evictions++
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry[V]{key: key, epoch: epoch, gen: gen, val: v})
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the lifetime counters.
func (c *Cache[V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
