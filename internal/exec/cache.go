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
//
// The index path keeps decoded bins here too (GetBin, PutBin): the
// dense words an index bin's WAH blob decodes to, so a server decodes
// each bin once. They share the budget and the LRU order with extents.
type Cache struct {
	capacity int64 // set at construction, never written again

	mu    sync.Mutex
	used  int64
	ll    *list.List                 // front = most recently used
	items map[string]*list.Element   // extents, by extent key
	bins  map[cacheKey]*list.Element // decoded index bins
	// Lifetime operational counters (monotonic, under mu); surfaced
	// through Stats into the server registry and /metrics. The cache
	// itself never records flight-recorder events: recording happens in
	// the engine (readExtent and the merge barriers), outside c.mu, so
	// the cache mutex never nests the recorder mutex and pooled region
	// tasks cannot interleave cache events in scheduling order.
	hits      int64
	misses    int64
	evictions int64
	// The decoded index bins' share: their lookups, and the bytes of
	// used they hold.
	binHits   int64
	binMisses int64
	binUsed   int64
}

// CacheStats is a point-in-time snapshot of the cache's operational
// counters plus its current occupancy. Hits and Misses count extent
// lookups, BinHits and BinMisses decoded-bin lookups; UsedBytes and
// Entries hold both kinds, BinBytes the decoded bins' share of
// UsedBytes, and Evictions counts both.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	UsedBytes int64
	Entries   int64
	BinHits   int64
	BinMisses int64
	BinBytes  int64
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
		Entries:   int64(len(c.items) + len(c.bins)),
		BinHits:   c.binHits,
		BinMisses: c.binMisses,
		BinBytes:  c.binUsed,
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

// cacheKey names an entry the way its source extent is named: an
// extent is {key, extentBin}; bin b of the index extent key, decoded,
// is {key, b}. Building one from a key the metadata already holds
// allocates nothing, so neither does a lookup. Extents are looked up by
// their key alone, in a map of their own: a string-keyed map hashes
// about twice as fast, and the extent path stays as it was.
type cacheKey struct {
	extent string
	bin    int
}

// extentBin is the bin of a cacheKey that names a whole extent.
const extentBin = -1

type cacheEntry struct {
	key  cacheKey
	data dtype.ROBytes
	// A decoded bin's source: the blob it was decoded from and the
	// element count it was held to. A lookup hits only for the same
	// blob — the same backing array and length — at the same count.
	src   dtype.ROBytes
	nbits uint64
}

// NewCache returns an LRU cache bounded to capacity bytes. A zero or
// negative capacity disables caching (all Puts are dropped).
func NewCache(capacity int64) *Cache {
	return &Cache{capacity: capacity, ll: list.New(), items: make(map[string]*list.Element), bins: make(map[cacheKey]*list.Element)}
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

// GetBin returns the dense words bin b of the index extent key decoded
// to, over nbits elements, when they were decoded from blob itself: the
// same backing array and length. Any other blob is a miss, which the
// caller's PutBin then replaces — the words never outlive the bytes
// they came from.
func (c *Cache) GetBin(key string, b int, nbits uint64, blob dtype.ROBytes) (dtype.ROBytes, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.bins[cacheKey{key, b}]
	if ok {
		e := el.Value.(*cacheEntry)
		if e.nbits == nbits && len(e.src) == len(blob) && len(blob) > 0 && &e.src[0] == &blob[0] {
			c.ll.MoveToFront(el)
			c.binHits++
			return e.data, true
		}
	}
	c.binMisses++
	return nil, false
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
	return c.put(cacheEntry{key: cacheKey{key, extentBin}, data: data})
}

// PutBin caches words, the dense bitset bin b of the index extent key's
// blob decodes to over nbits elements, for GetBin with the same blob.
// Eviction is Put's, over entries of both kinds.
func (c *Cache) PutBin(key string, b int, nbits uint64, blob, words dtype.ROBytes) (evicted int64, evictedBytes int64) {
	return c.put(cacheEntry{key: cacheKey{key, b}, data: words, src: blob, nbits: nbits})
}

func (c *Cache) put(ent cacheEntry) (evicted int64, evictedBytes int64) {
	if c == nil || c.capacity <= 0 || int64(len(ent.data)) > c.capacity {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.lookupLocked(ent.key); ok {
		e := el.Value.(*cacheEntry)
		c.accountLocked(e, -1)
		*e = ent
		c.ll.MoveToFront(el)
		c.accountLocked(e, 1)
	} else {
		e := new(cacheEntry) // not &ent: that would move ent to the heap on every put
		*e = ent
		if el := c.ll.PushFront(e); ent.key.bin == extentBin {
			c.items[ent.key.extent] = el
		} else {
			c.bins[ent.key] = el
		}
		c.accountLocked(e, 1)
	}
	for c.used > c.capacity {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		if e.key.bin == extentBin {
			delete(c.items, e.key.extent)
		} else {
			delete(c.bins, e.key)
		}
		c.accountLocked(e, -1)
		c.evictions++
		evicted++
		evictedBytes += int64(len(e.data))
	}
	return evicted, evictedBytes
}

// lookupLocked finds k's element in the map of its kind.
func (c *Cache) lookupLocked(k cacheKey) (*list.Element, bool) {
	if k.bin == extentBin {
		el, ok := c.items[k.extent]
		return el, ok
	}
	el, ok := c.bins[k]
	return el, ok
}

// accountLocked adds (sign 1) or removes (sign -1) e's bytes from the
// occupancy and, for a decoded bin, from the bins' share of it.
func (c *Cache) accountLocked(e *cacheEntry, sign int64) {
	n := sign * int64(len(e.data))
	c.used += n
	if e.key.bin != extentBin {
		c.binUsed += n
	}
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
	return len(c.items) + len(c.bins)
}

// Clear drops all entries, decoded bins included.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element)
	c.bins = make(map[cacheKey]*list.Element)
	c.used, c.binUsed = 0, 0
}
