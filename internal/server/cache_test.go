package server

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
)

func fakeResult(tag string) *engine.Result {
	return &engine.Result{Cols: []string{tag}}
}

func TestResultCacheLRU(t *testing.T) {
	c := NewResultCache(2)
	c.Put("a", fakeResult("a"))
	c.Put("b", fakeResult("b"))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should be cached")
	}
	// a was just used, so inserting c must evict b.
	c.Put("c", fakeResult("c"))
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted (LRU)")
	}
	if r, ok := c.Get("a"); !ok || r.Cols[0] != "a" {
		t.Error("a should have survived")
	}
	if r, ok := c.Get("c"); !ok || r.Cols[0] != "c" {
		t.Error("c should be cached")
	}
	s := c.Stats()
	if s.Entries != 2 || s.Capacity != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.Hits != 3 || s.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 3/1", s.Hits, s.Misses)
	}
	// Overwriting a key updates in place without eviction.
	c.Put("a", fakeResult("a2"))
	if r, _ := c.Get("a"); r.Cols[0] != "a2" {
		t.Error("Put should overwrite")
	}
	if c.Stats().Entries != 2 {
		t.Error("overwrite must not grow the cache")
	}
}

func TestResultCacheByteBudget(t *testing.T) {
	// Capacity 4 → byte budget 4*cacheBytesPerEntry. Entries of half a budget
	// each: the third must evict the first even though entry count is fine.
	c := NewResultCache(4)
	big := func(tag string, bytes int64) *engine.Result {
		r := fakeResult(tag)
		r.Vecs = []engine.Vector{{Kind: dataset.KindFloat, Floats: make([]float64, bytes/8)}}
		return r
	}
	half := int64(2 * cacheBytesPerEntry)
	c.Put("a", big("a", half))
	c.Put("b", big("b", half))
	c.Put("c", big("c", half))
	if _, ok := c.Get("a"); ok {
		t.Error("a should have been evicted by the byte budget")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c should be cached")
	}
	if s := c.Stats(); s.Bytes > 4*cacheBytesPerEntry {
		t.Errorf("bytes = %d over budget", s.Bytes)
	}
	// A single result over the whole budget is counted and not cached at
	// all: it must not evict what is there on its way to being refused.
	before := c.Stats()
	c.Put("huge", big("huge", 5*cacheBytesPerEntry))
	if _, ok := c.Get("huge"); ok {
		t.Error("oversized result must not be cached")
	}
	if s := c.Stats(); s.Oversize != 1 || s.Entries != before.Entries || s.Evictions != before.Evictions {
		t.Errorf("after an oversized Put: %+v, before: %+v", s, before)
	}
	// Overwriting with a different size keeps the accounting consistent.
	c.Put("c", big("c2", 8))
	wantBytes := half + 8 // b (half) + c (8)
	if s := c.Stats(); s.Bytes != wantBytes {
		t.Errorf("bytes = %d, want %d", s.Bytes, wantBytes)
	}
}

func TestResultCacheDisabled(t *testing.T) {
	c := NewResultCache(-1)
	c.Put("a", fakeResult("a"))
	if _, ok := c.Get("a"); ok {
		t.Error("disabled cache must not store")
	}
	if s := c.Stats(); s.Entries != 0 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestResultCacheConcurrent(t *testing.T) {
	c := NewResultCache(8)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				key := fmt.Sprint("k", (g+i)%16)
				if _, ok := c.Get(key); !ok {
					c.Put(key, fakeResult(key))
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if s := c.Stats(); s.Entries > 8 {
		t.Errorf("cache grew past capacity: %+v", s)
	}
}
