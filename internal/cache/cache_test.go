package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := New(1024, nil)
	if _, ok := c.Get("a"); ok {
		t.Error("empty cache hit")
	}
	c.Put("a", []byte("value"))
	v, ok := c.Get("a")
	if !ok || string(v) != "value" {
		t.Errorf("Get = %q, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestReplaceUpdatesBudget(t *testing.T) {
	c := New(100, nil)
	c.Put("k", make([]byte, 80))
	c.Put("k", make([]byte, 10))
	if st := c.Stats(); st.Used != 10 || st.Items != 1 {
		t.Errorf("stats after replace = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(30, NewLRU())
	c.Put("a", make([]byte, 10))
	c.Put("b", make([]byte, 10))
	c.Put("c", make([]byte, 10))
	c.Get("a") // a becomes most recent
	c.Put("d", make([]byte, 10))
	if _, ok := c.Get("b"); ok {
		t.Error("LRU kept b; should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("LRU evicted %s", k)
		}
	}
}

func TestFIFOEvictionIgnoresAccess(t *testing.T) {
	c := New(30, NewFIFO())
	c.Put("a", make([]byte, 10))
	c.Put("b", make([]byte, 10))
	c.Put("c", make([]byte, 10))
	c.Get("a")
	c.Put("d", make([]byte, 10))
	if _, ok := c.Get("a"); ok {
		t.Error("FIFO kept a despite insertion order")
	}
}

func TestClockSecondChance(t *testing.T) {
	c := New(30, NewClock())
	c.Put("a", make([]byte, 10))
	c.Put("b", make([]byte, 10))
	c.Put("c", make([]byte, 10))
	// All have ref bits set; inserting d sweeps and evicts the first
	// slot after bits are cleared.
	c.Put("d", make([]byte, 10))
	if st := c.Stats(); st.Items != 3 || st.Used != 30 {
		t.Errorf("stats = %+v", st)
	}
	// d must survive its own insertion.
	if _, ok := c.Get("d"); !ok {
		t.Error("clock evicted the newly inserted key")
	}
}

func TestDisabledCache(t *testing.T) {
	c := New(0, nil)
	c.Put("a", []byte("v"))
	if _, ok := c.Get("a"); ok {
		t.Error("disabled cache stored data")
	}
}

func TestOversizeValueNotCached(t *testing.T) {
	c := New(10, nil)
	c.Put("huge", make([]byte, 100))
	if st := c.Stats(); st.Items != 0 {
		t.Errorf("oversize value cached: %+v", st)
	}
}

func TestInvalidate(t *testing.T) {
	for _, p := range []Policy{NewLRU(), NewFIFO(), NewClock()} {
		c := New(100, p)
		c.Put("a", []byte("1"))
		c.Put("b", []byte("2"))
		c.Invalidate("a")
		if _, ok := c.Get("a"); ok {
			t.Errorf("%s: invalidated key still cached", p.Name())
		}
		if _, ok := c.Get("b"); !ok {
			t.Errorf("%s: invalidate removed the wrong key", p.Name())
		}
		// Eviction after invalidation must not return the dead key.
		c.Put("c", make([]byte, 60))
		c.Put("d", make([]byte, 60)) // forces eviction
		if st := c.Stats(); st.Used > 100 {
			t.Errorf("%s: over budget: %+v", p.Name(), st)
		}
	}
}

func TestBudgetNeverExceeded(t *testing.T) {
	for _, p := range []Policy{NewLRU(), NewFIFO(), NewClock()} {
		c := New(1000, p)
		for i := 0; i < 500; i++ {
			c.Put(fmt.Sprintf("k%d", i%50), make([]byte, 1+i%200))
			if st := c.Stats(); st.Used > 1000 {
				t.Fatalf("%s: used %d exceeds capacity", p.Name(), st.Used)
			}
		}
	}
}

func TestConcurrent(t *testing.T) {
	c := New(10_000, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*500+i)%100)
				if i%3 == 0 {
					c.Put(key, make([]byte, 50))
				} else if i%7 == 0 {
					c.Invalidate(key)
				} else {
					c.Get(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Used > 10_000 {
		t.Errorf("over budget after concurrency: %+v", st)
	}
}

// TestStatsTrackReplaceEvictInvalidate checks the byte budget and item
// count after each way an entry's bytes can leave the cache, under every
// policy.
func TestStatsTrackReplaceEvictInvalidate(t *testing.T) {
	for _, p := range []Policy{NewLRU(), NewFIFO(), NewClock()} {
		c := New(100, p)
		c.Put("a", make([]byte, 30))
		c.Put("b", make([]byte, 30))
		check := func(step string, used int64, items int) {
			t.Helper()
			if st := c.Stats(); st.Used != used || st.Items != items {
				t.Errorf("%s after %s: used=%d items=%d, want used=%d items=%d",
					p.Name(), step, st.Used, st.Items, used, items)
			}
		}
		check("puts", 60, 2)
		c.Put("a", make([]byte, 50)) // replace grows a
		check("replace", 80, 2)
		c.Put("c", make([]byte, 40)) // 120 > 100: one 30- or 50-byte victim
		if st := c.Stats(); st.Items != 2 || (st.Used != 90 && st.Used != 70) {
			t.Errorf("%s after evict: %+v", p.Name(), st)
		}
		used := c.Stats().Used
		c.Invalidate("c")
		check("invalidate", used-40, 1)
		c.Invalidate("c") // already gone: no change
		check("second invalidate", used-40, 1)
	}
}

// TestGetBytesMatchesGet checks the byte-keyed lookup sees the same
// entries and counts hits and misses the same way.
func TestGetBytesMatchesGet(t *testing.T) {
	c := New(100, nil)
	c.Put("k1", []byte("v1"))
	if v, ok := c.GetBytes([]byte("k1")); !ok || string(v) != "v1" {
		t.Errorf("GetBytes(k1) = %q, %v", v, ok)
	}
	if _, ok := c.GetBytes([]byte("k2")); ok {
		t.Error("GetBytes(k2) hit an absent key")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	key := []byte("k1")
	if n := testing.AllocsPerRun(100, func() { c.GetBytes(key) }); n != 0 {
		t.Errorf("GetBytes hit allocates %.1f objects", n)
	}
}
