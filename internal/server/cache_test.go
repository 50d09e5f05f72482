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

// sizedResult is a result whose SizeBytes is bytes, rounded down to a float.
func sizedResult(tag string, bytes int64) *engine.Result {
	r := fakeResult(tag)
	r.Vecs = []engine.Vector{{Kind: dataset.KindFloat, Floats: make([]float64, bytes/8)}}
	return r
}

// putHit stores a result and hits it once, which moves it to the main LRU.
func putHit(t *testing.T, c *ResultCache, key string, res *engine.Result) {
	t.Helper()
	c.Put(key, res)
	if _, ok := c.Get(key); !ok {
		t.Fatalf("%s missed right after its Put", key)
	}
}

func TestResultCacheLRU(t *testing.T) {
	c := NewResultCache(2)
	putHit(t, c, "a", fakeResult("a"))
	putHit(t, c, "b", fakeResult("b"))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should be cached")
	}
	// a was just used, so inserting c must evict b from main.
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
	if s.Hits != 5 || s.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 5/1", s.Hits, s.Misses)
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
	half := int64(2 * cacheBytesPerEntry)
	putHit(t, c, "a", sizedResult("a", half))
	putHit(t, c, "b", sizedResult("b", half))
	c.Put("c", sizedResult("c", half))
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
	c.Put("huge", sizedResult("huge", 5*cacheBytesPerEntry))
	if _, ok := c.Get("huge"); ok {
		t.Error("oversized result must not be cached")
	}
	if s := c.Stats(); s.Oversize != 1 || s.Entries != before.Entries || s.Evictions != before.Evictions {
		t.Errorf("after an oversized Put: %+v, before: %+v", s, before)
	}
	// Overwriting with a different size keeps the accounting consistent.
	c.Put("c", sizedResult("c2", 8))
	wantBytes := half + 8 // b (half) + c (8)
	if s := c.Stats(); s.Bytes != wantBytes {
		t.Errorf("bytes = %d, want %d", s.Bytes, wantBytes)
	}
}

// flood puts n one-off results of 8 to 40 KiB, checking after each Put that
// the cache holds at most maxEntries results in maxBytes.
func flood(t *testing.T, c *ResultCache, prefix string, n, maxEntries int, maxBytes int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := fmt.Sprint(prefix, i)
		if _, ok := c.Get(key); ok {
			t.Fatalf("%s hit before its Put", key)
		}
		c.Put(key, sizedResult(key, int64(i%5+1)*8<<10))
		if s := c.Stats(); s.Entries > maxEntries || s.Bytes > maxBytes {
			t.Fatalf("after %d one-off results: %d entries in %d bytes, want <= %d in <= %d",
				i+1, s.Entries, s.Bytes, maxEntries, maxBytes)
		}
	}
}

// TestResultCacheProbationBoundsAFlood: results nobody asks for twice never
// hold more than probation's share — ⌈capacity/10⌉ entries, budget/10 bytes —
// and every one that leaves is counted as an eviction.
func TestResultCacheProbationBoundsAFlood(t *testing.T) {
	const capacity = 64
	c := NewResultCache(capacity)
	probCap, probBudget := (capacity+9)/10, int64(capacity*cacheBytesPerEntry/10)
	flood(t, c, "once", 10*capacity, probCap, probBudget)
	s := c.Stats()
	if s.Entries == 0 || s.Evictions != int64(10*capacity-s.Entries) {
		t.Errorf("after the flood: %+v, want %d evictions", s, 10*capacity-s.Entries)
	}
}

// TestResultCacheHitSurvivesAFlood: one hit buys a result a main slot that
// ten capacities of one-off results do not displace.
func TestResultCacheHitSurvivesAFlood(t *testing.T) {
	const capacity = 64
	c := NewResultCache(capacity)
	putHit(t, c, "kept", sizedResult("kept", 40<<10))
	c.Put("unhit", sizedResult("unhit", 40<<10))
	flood(t, c, "once", 10*capacity, capacity, capacity*cacheBytesPerEntry)
	if r, ok := c.Get("kept"); !ok || r.Cols[0] != "kept" {
		t.Error("a result hit once should survive a flood of one-off results")
	}
	if _, ok := c.Get("unhit"); ok {
		t.Error("a result never hit should have been dropped by the flood")
	}
}

// TestResultCacheGhostPromotes: a key dropped from probation and asked for
// again goes straight to main, so it survives the next flood without a hit.
func TestResultCacheGhostPromotes(t *testing.T) {
	const capacity = 10 // probation holds one entry
	c := NewResultCache(capacity)
	c.Put("again", fakeResult("again"))
	c.Put("next", fakeResult("next"))
	if _, ok := c.Get("again"); ok {
		t.Fatal("again should have been dropped from probation")
	}
	c.Put("again", fakeResult("again"))
	if e := c.items["again"].Value.(*cacheEntry); !e.main {
		t.Fatal("a key the ghost remembers should go straight to main")
	}
	flood(t, c, "once", 10*capacity, capacity, capacity*cacheBytesPerEntry)
	if _, ok := c.Get("again"); !ok {
		t.Error("a ghost-promoted result should survive a flood of one-off results")
	}
}

// TestResultCacheGhostBounded: the ghost holds at most capacity hashes, the
// most recent drops: a key dropped longer ago than that goes to probation
// again.
func TestResultCacheGhostBounded(t *testing.T) {
	const capacity = 8
	c := NewResultCache(capacity)
	for i := 0; i < 10*capacity; i++ {
		c.Put(fmt.Sprint("once", i), fakeResult("once"))
		if len(c.ghost) > capacity || len(c.inGhost) > capacity {
			t.Fatalf("after %d drops the ghost holds %d hashes (%d distinct), want <= %d",
				i, len(c.ghost), len(c.inGhost), capacity)
		}
	}
	// Probation holds once79; once71..once78 are the last eight drops. The
	// remembered keys go first: a key re-Put onto probation drops another.
	for _, tc := range []struct {
		key  string
		main bool
	}{{"once71", true}, {"once78", true}, {"once70", false}, {"once0", false}} {
		c.Put(tc.key, fakeResult(tc.key))
		if e := c.items[tc.key].Value.(*cacheEntry); e.main != tc.main {
			t.Errorf("%s re-Put: in main %v, want %v", tc.key, e.main, tc.main)
		}
	}
}

// TestResultCacheLargeResultRepeats: the newest result waits on probation
// whatever its size, so an immediate repeat hits: one larger than an
// average entry, which leaves a small result beside it, and one larger than
// probation's byte share, which displaces the rest of probation.
func TestResultCacheLargeResultRepeats(t *testing.T) {
	const capacity = 64
	for _, large := range []int64{2 * cacheBytesPerEntry, capacity * cacheBytesPerEntry / 2} {
		c := NewResultCache(capacity)
		c.Put("small", sizedResult("small", 8<<10))
		c.Put("large", sizedResult("large", large))
		entries, bytes := 2, large+8<<10
		if large > c.budget/10 {
			entries, bytes = 1, large
		}
		if s := c.Stats(); s.Entries != entries || s.Bytes != bytes {
			t.Errorf("after a %d-byte Put: %+v, want %d entries in %d bytes", large, s, entries, bytes)
		}
		if r, ok := c.Get("large"); !ok || r.Cols[0] != "large" {
			t.Errorf("an immediate repeat of a %d-byte result should hit", large)
		}
	}
}

// TestResultCacheLargeFloodPinsTheNewest: a flood of distinct results
// larger than an average entry, each within probation's byte share, pins
// only the newest one; every other leaves as a counted eviction.
func TestResultCacheLargeFloodPinsTheNewest(t *testing.T) {
	const capacity = 64
	c := NewResultCache(capacity)
	for i := 0; i < 10*capacity; i++ {
		key := fmt.Sprint("large", i)
		size := int64(cacheBytesPerEntry + (i%4+1)*8<<10)
		c.Put(key, sizedResult(key, size))
		if s := c.Stats(); s.Entries != 1 || s.Bytes != size || s.Evictions != int64(i) {
			t.Fatalf("after %d large one-off results: %+v, want the newest alone (%d bytes) and %d evictions",
				i+1, s, size, i)
		}
	}
}

// TestResultCacheLargeInterleaved: for large results A, B, A, A the second
// ask of A misses once, since B's arrival dropped A into the ghost; its
// Put goes straight to main through the ghost, and the third ask hits.
func TestResultCacheLargeInterleaved(t *testing.T) {
	c := NewResultCache(64)
	ask := func(key string) bool {
		if _, ok := c.Get(key); ok {
			return true
		}
		c.Put(key, sizedResult(key, 2*cacheBytesPerEntry))
		return false
	}
	for i, step := range []struct {
		key string
		hit bool
	}{{"A", false}, {"B", false}, {"A", false}, {"A", true}} {
		if got := ask(step.key); got != step.hit {
			t.Fatalf("ask %d (%s): hit %v, want %v", i+1, step.key, got, step.hit)
		}
	}
	if !c.items["A"].Value.(*cacheEntry).main {
		t.Error("A returning from the ghost should have gone straight to main")
	}
}

// TestResultCacheSmallResultsKeepTheWindow: results no larger than an
// average entry (small0 is exactly that size) keep probation's window of
// ⌈capacity/10⌉ entries, and a large result passing through drops only
// itself.
func TestResultCacheSmallResultsKeepTheWindow(t *testing.T) {
	const capacity = 64
	probCap := (capacity + 9) / 10
	c := NewResultCache(capacity)
	for i := 0; i < probCap-1; i++ {
		key, size := fmt.Sprint("small", i), int64(16<<10)
		if i == 0 {
			size = cacheBytesPerEntry
		}
		c.Put(key, sizedResult(key, size))
	}
	c.Put("large", sizedResult("large", cacheBytesPerEntry+8))
	c.Put("last", sizedResult("last", 16<<10))
	if s := c.Stats(); s.Entries != probCap || s.Evictions != 1 {
		t.Errorf("after %d small results and a large one: %+v, want %d entries and 1 eviction", probCap, s, probCap)
	}
	for i := 0; i < probCap-1; i++ {
		if _, ok := c.Get(fmt.Sprint("small", i)); !ok {
			t.Errorf("small%d should still be on probation", i)
		}
	}
	if _, ok := c.Get("large"); ok {
		t.Error("the large result should have left when the next result arrived")
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
