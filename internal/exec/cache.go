package exec

import (
	"container/list"
	"sync"

	"pdcquery/internal/dtype"
)

// Cache is a byte-capacity-bounded LRU of region buffers, modeling the
// PDC server's in-memory region cache (the paper caps each server at
// 64 GB). Query evaluation populates it; get-data drains it — the reason
// PDC-H/PDC-SH return data so quickly after evaluation (§VI-A) while
// PDC-HI must go back to storage.
//
// Entries are immutable shared extents: Put takes a dtype.ROBytes view
// (usually the storage extent itself) and Get hands the same view back
// with no copy. Hits are therefore zero-alloc — the copy-on-Get that
// once guarded against caller writes is gone, replaced by the static
// contract on ROBytes (the aliasguard analyzer rejects any write
// through an immutable-typed value, repo-wide). Concurrent queries on
// the same region share one buffer safely because nobody can mutate it.
type Cache struct {
	capacity int64 // set at construction, never written again

	mu    sync.Mutex
	used  int64
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	// Lifetime operational counters (monotonic, under mu); surfaced
	// through Stats into the server registry and /metrics. The cache
	// itself never records flight-recorder events: recording happens in
	// the engine (readExtent and the merge barriers), outside c.mu, so
	// the cache mutex never nests the recorder mutex and pooled region
	// tasks cannot interleave cache events in scheduling order.
	hits      int64
	misses    int64
	evictions int64
}

// CacheStats is a point-in-time snapshot of the cache's operational
// counters plus its current occupancy.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	UsedBytes int64
	Entries   int64
}

// Stats snapshots the operational counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		UsedBytes: c.used,
		Entries:   int64(len(c.items)),
	}
}

// CacheTraffic accumulates one region task's cache operations so they
// can be recorded as aggregate flight-recorder events at the serial
// merge barrier instead of per-operation from inside concurrently
// executing tasks (which would make event order and Seq numbers depend
// on scheduling). It is a plain value embedded in the task result, so
// accumulating costs no allocation.
type CacheTraffic struct {
	Hits, Misses, Evictions         int64
	HitBytes, MissBytes, EvictBytes int64
}

type cacheEntry struct {
	key  string
	data dtype.ROBytes
}

// NewCache returns an LRU cache bounded to capacity bytes. A zero or
// negative capacity disables caching (all Puts are dropped).
func NewCache(capacity int64) *Cache {
	return &Cache{capacity: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached immutable view for key, marking it most
// recently used. The view is shared — zero-copy by design — and the
// ROBytes type forbids writing through it.
func (c *Cache) Get(key string) (dtype.ROBytes, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	data := el.Value.(*cacheEntry).data
	c.hits++
	return data, true
}

// Touch marks key most recently used without returning its buffer — the
// LRU-refresh half of Get for callers that only need to know the region
// is resident (e.g. the full-scan preload, which skips re-reading cached
// regions but must keep them hot).
func (c *Cache) Touch(key string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.ll.MoveToFront(el)
	return true
}

// Put inserts an immutable view, evicting least-recently-used entries as
// needed. Views larger than the whole capacity are not cached. Because
// the data is immutable, the cache can retain the caller's view and
// later hand it to any number of readers without copies. It reports the
// entries and bytes it evicted to make room, so the caller can account
// for the eviction (the engine turns it into an EvCacheEvict event).
func (c *Cache) Put(key string, data dtype.ROBytes) (evicted int64, evictedBytes int64) {
	if c == nil || c.capacity <= 0 || int64(len(data)) > c.capacity {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.used += int64(len(data)) - int64(len(el.Value.(*cacheEntry).data))
		el.Value.(*cacheEntry).data = data
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&cacheEntry{key: key, data: data})
		c.items[key] = el
		c.used += int64(len(data))
	}
	for c.used > c.capacity {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.used -= int64(len(e.data))
		c.evictions++
		evicted++
		evictedBytes += int64(len(e.data))
	}
	return evicted, evictedBytes
}

// Contains reports whether key is cached without touching the LRU order —
// a read-only peek so instrumentation can classify an upcoming read as a
// cache hit before readRegion performs it.
func (c *Cache) Contains(key string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// Used returns the current cached byte count.
func (c *Cache) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Clear drops all entries.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element)
	c.used = 0
}
