package exec

import (
	"fmt"
	"sync"
	"testing"
)

func TestCacheGetPut(t *testing.T) {
	c := NewCache(100)
	if _, ok := c.Get("a"); ok {
		t.Error("empty cache returned a hit")
	}
	c.Put("a", []byte("hello"))
	got, ok := c.Get("a")
	if !ok || string(got) != "hello" {
		t.Errorf("Get = %q, %v", got, ok)
	}
	if c.Used() != 5 || c.Len() != 1 {
		t.Errorf("used=%d len=%d", c.Used(), c.Len())
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := NewCache(10)
	c.Put("a", make([]byte, 4))
	c.Put("b", make([]byte, 4))
	// Touch a so b becomes LRU.
	c.Get("a")
	c.Put("c", make([]byte, 4)) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("LRU entry not evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("recently used entry evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("new entry missing")
	}
	if c.Used() > 10 {
		t.Errorf("over capacity: %d", c.Used())
	}
}

func TestCacheOversizedEntryDropped(t *testing.T) {
	c := NewCache(10)
	c.Put("big", make([]byte, 11))
	if _, ok := c.Get("big"); ok {
		t.Error("oversized entry cached")
	}
	if c.Used() != 0 {
		t.Errorf("used = %d", c.Used())
	}
}

func TestCacheReplaceSameKey(t *testing.T) {
	c := NewCache(100)
	c.Put("k", make([]byte, 10))
	c.Put("k", make([]byte, 30))
	if c.Used() != 30 || c.Len() != 1 {
		t.Errorf("after replace: used=%d len=%d", c.Used(), c.Len())
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(0)
	c.Put("a", []byte("x"))
	if _, ok := c.Get("a"); ok {
		t.Error("disabled cache stored an entry")
	}
}

func TestCacheClear(t *testing.T) {
	c := NewCache(100)
	c.Put("a", make([]byte, 5))
	c.Clear()
	if c.Used() != 0 || c.Len() != 0 {
		t.Error("Clear left state")
	}
	if _, ok := c.Get("a"); ok {
		t.Error("entry survived Clear")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(1 << 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%32)
				c.Put(key, make([]byte, 64))
				c.Get(key)
			}
		}(g)
	}
	wg.Wait()
	if c.Used() > 1<<16 {
		t.Errorf("over capacity after concurrent use: %d", c.Used())
	}
}

// TestCacheGetZeroCopy pins the immutable-extent design: Get returns
// the same shared view Put stored — no defensive copy, no allocation.
// The old copy-on-Get guarded against callers scratching in returned
// buffers; that hazard is now excluded statically (ROBytes is
// //lint:immutable and aliasguard rejects writes through it), so a hit
// must be the identical backing array.
func TestCacheGetZeroCopy(t *testing.T) {
	c := NewCache(100)
	put := []byte("pristine")
	c.Put("region", put)
	got, ok := c.Get("region")
	if !ok {
		t.Fatal("miss on just-inserted key")
	}
	if len(got) != len(put) || &got[0] != &put[0] {
		t.Fatal("Get copied the cached view; hits must be zero-copy shares of the stored extent")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get("region"); !ok {
			t.Fatal("miss")
		}
	}); allocs != 0 {
		t.Fatalf("Get allocated %.1f times per hit, want 0", allocs)
	}
}

func TestCacheTouch(t *testing.T) {
	c := NewCache(10)
	if c.Touch("a") {
		t.Error("Touch on empty cache reported a hit")
	}
	c.Put("a", make([]byte, 4))
	c.Put("b", make([]byte, 4))
	if !c.Touch("a") {
		t.Error("Touch missed a resident key")
	}
	c.Put("c", make([]byte, 4)) // evicts b: a was touched more recently
	if _, ok := c.Get("b"); ok {
		t.Error("LRU entry survived; Touch did not refresh recency")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("touched entry evicted")
	}
	var nilCache *Cache
	if nilCache.Touch("a") {
		t.Error("nil cache Touch reported a hit")
	}
}

// TestCacheBinIdentity: a decoded bin hits only for the blob it was
// decoded from — the same backing array and length at the same element
// count — and any other blob misses and is replaced by the next PutBin.
// Bins are keyed apart from extents, counted apart in Stats, share the
// byte budget, and go with Clear.
func TestCacheBinIdentity(t *testing.T) {
	c := NewCache(1 << 10)
	blob := []byte("a bin's encoded words")
	words := make([]byte, 64)
	c.Put("idx", make([]byte, 100))
	c.PutBin("idx", 3, 500, blob, words)
	if got, ok := c.GetBin("idx", 3, 500, blob); !ok || &got[0] != &words[0] {
		t.Fatal("miss on the blob the bin was decoded from")
	}
	if _, ok := c.Get("idx"); !ok {
		t.Fatal("the bin replaced its extent")
	}
	same := append([]byte(nil), blob...)
	for name, miss := range map[string]func() bool{
		"equal bytes elsewhere": func() bool { _, ok := c.GetBin("idx", 3, 500, same); return ok },
		"shorter view":          func() bool { _, ok := c.GetBin("idx", 3, 500, blob[:len(blob)-1]); return ok },
		"other element count":   func() bool { _, ok := c.GetBin("idx", 3, 499, blob); return ok },
		"other bin":             func() bool { _, ok := c.GetBin("idx", 4, 500, blob); return ok },
		"other extent":          func() bool { _, ok := c.GetBin("idy", 3, 500, blob); return ok },
	} {
		if miss() {
			t.Errorf("%s: hit", name)
		}
	}
	if s := c.Stats(); s.BinHits != 1 || s.BinMisses != 5 || s.Hits != 1 || s.Misses != 0 ||
		s.UsedBytes != 164 || s.BinBytes != 64 || s.Entries != 2 {
		t.Errorf("stats %+v", s)
	}
	c.PutBin("idx", 3, 500, same, make([]byte, 32))
	if _, ok := c.GetBin("idx", 3, 500, blob); ok {
		t.Error("the replaced blob still hits")
	}
	if _, ok := c.GetBin("idx", 3, 500, same); !ok {
		t.Error("the replacing blob misses")
	}
	if s := c.Stats(); s.UsedBytes != 132 || s.BinBytes != 32 || s.Entries != 2 {
		t.Errorf("after replacing: %+v", s)
	}
	c.PutBin("idx", 5, 500, blob, make([]byte, 1000)) // evicts both others
	if s := c.Stats(); s.Evictions != 2 || s.BinBytes != 1000 || s.Entries != 1 {
		t.Errorf("after evicting: %+v", s)
	}
	c.Clear()
	if s := c.Stats(); s.UsedBytes != 0 || s.BinBytes != 0 || s.Entries != 0 {
		t.Errorf("after Clear: %+v", s)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		c.PutBin("idx", 3, 500, blob, words)
		c.GetBin("idx", 3, 500, blob)
	}); allocs != 0 {
		t.Errorf("a replacing PutBin and a hit allocate %.1f times, want 0", allocs)
	}
}
