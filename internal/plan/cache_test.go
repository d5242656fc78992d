package plan

import "testing"

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache[*Plan](2)
	a, b, d := &Plan{}, &Plan{}, &Plan{}
	c.Put("a", 1, 1, a)
	c.Put("b", 1, 1, b)
	if got, ok := c.Get("a", 1, 1); !ok || got != a {
		t.Fatal("a missing")
	}
	// "b" is now LRU; inserting "d" evicts it.
	c.Put("d", 1, 1, d)
	if _, ok := c.Get("b", 1, 1); ok {
		t.Error("b should have been evicted")
	}
	if got, ok := c.Get("d", 1, 1); !ok || got != d {
		t.Error("d missing")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestCacheEpochAndGenInvalidate(t *testing.T) {
	c := NewCache[*Plan](4)
	p := &Plan{}
	c.Put("k", 3, 7, p)
	if _, ok := c.Get("k", 4, 7); ok {
		t.Error("epoch change must miss")
	}
	// The stale entry was evicted by the mismatched Get.
	if c.Len() != 0 {
		t.Errorf("stale entry retained, Len = %d", c.Len())
	}
	c.Put("k", 3, 7, p)
	if _, ok := c.Get("k", 3, 8); ok {
		t.Error("generation change must miss")
	}
	c.Put("k", 3, 8, p)
	if _, ok := c.Get("k", 3, 8); !ok {
		t.Error("fresh entry must hit")
	}
}

func TestCacheStats(t *testing.T) {
	c := NewCache[*Plan](2)
	c.Put("a", 1, 1, &Plan{})
	c.Get("a", 1, 1)
	c.Get("a", 1, 1)
	c.Get("nope", 1, 1)
	c.Put("b", 1, 1, &Plan{})
	c.Put("c", 1, 1, &Plan{}) // evicts "a"
	if got, want := c.Stats(), (CacheStats{Hits: 2, Misses: 1, Evictions: 1}); got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
}

func TestCacheUpdateInPlace(t *testing.T) {
	c := NewCache[*Plan](1)
	p1, p2 := &Plan{}, &Plan{}
	c.Put("k", 1, 1, p1)
	c.Put("k", 2, 2, p2)
	if got, ok := c.Get("k", 2, 2); !ok || got != p2 {
		t.Error("update in place failed")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestParseForceRoundTrip(t *testing.T) {
	for _, f := range []Force{ForceAuto, ForceScan, ForceBitmap, ForceSorted} {
		got, err := ParseForce(f.String())
		if err != nil || got != f {
			t.Errorf("ParseForce(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseForce("turbo"); err == nil {
		t.Error("unknown forcing must error")
	}
	if f, err := ParseForce(""); err != nil || f != ForceAuto {
		t.Errorf("empty forcing = %v, %v", f, err)
	}
}
