package server

import (
	"container/list"
	"context"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/minisql"
)

// ResultCache is a bounded cache of engine results keyed by the canonical
// rendered SQL of a prepared plan (engine.Plan.SQL). The canonical renderer
// makes the key insensitive to the request that produced the query: two
// browser sessions asking for the same slice hit the same entry.
//
// A result earns its slot (S3-FIFO, Yang et al., SOSP 2023: most keys are
// asked for once). It enters a probation FIFO of at most a tenth of the
// entries and a tenth of the byte budget, which always keeps its newest
// entry, so an immediate repeat of any admitted result hits. A hit moves it
// to the main LRU. A result that falls out of probation unhit is dropped and
// its key's hash joins a ghost ring of the last capacity such drops; a later
// miss whose hash is there goes straight to main. The ghost only ever
// promotes: Get matches the full key, so a hash collision cannot serve a
// wrong result.
//
// Cached *engine.Result values are shared between requests and MUST be
// treated as read-only by every consumer; the zexec splitter and the JSON
// encoders only read them.
type ResultCache struct {
	mu        sync.Mutex
	cap       int
	budget    int64      // bytes of results (engine.Result.SizeBytes) held across entries
	bytes     int64      // both queues
	probBytes int64      // of which on probation
	probation *list.List // front = newest
	main      *list.List // front = most recently used
	items     map[string]*list.Element

	seed      maphash.Seed
	ghost     []uint64 // ring of the hashes of keys dropped from probation
	ghostNext int      // the slot the next drop overwrites once the ring is full
	inGhost   map[uint64]struct{}

	// ctr is a pointer so a successor cache (dataset append swap) can adopt
	// its predecessor's cell: late increments from requests still running on
	// the old view land in the same totals, keeping /stats exact.
	ctr *cacheCounters
}

// cacheCounters holds the cumulative effectiveness counters that survive
// dataset snapshot swaps.
type cacheCounters struct {
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	oversize  atomic.Int64
}

type cacheEntry struct {
	key   string
	res   *engine.Result
	bytes int64
	main  bool // in the main LRU, not on probation
}

// cacheBytesPerEntry scales the cache's byte budget: entry count alone is a
// poor memory bound because a raw (no GROUP BY) result can hold a table's
// worth of rows, so the cache also evicts by the bytes its results pin —
// capacity entries of this average size, which is 1024 rows of a
// three-column (code, int, float) result with a fifth to spare.
const cacheBytesPerEntry = 24 << 10

// NewResultCache creates a cache holding up to capacity results totalling at
// most capacity*cacheBytesPerEntry bytes. A capacity <= 0 disables caching:
// Get always misses and Put is a no-op.
func NewResultCache(capacity int) *ResultCache {
	return &ResultCache{
		cap:       capacity,
		budget:    int64(capacity) * cacheBytesPerEntry,
		probation: list.New(),
		main:      list.New(),
		items:     make(map[string]*list.Element),
		seed:      maphash.MakeSeed(),
		inGhost:   make(map[uint64]struct{}),
		ctr:       &cacheCounters{},
	}
}

// Get returns the cached result for key, moving a probation entry to the
// main LRU and marking it most recently used.
func (c *ResultCache) Get(key string) (*engine.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.ctr.misses.Add(1)
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if e.main {
		c.main.MoveToFront(el)
	} else {
		c.probation.Remove(el)
		c.probBytes -= e.bytes
		e.main = true
		c.items[key] = c.main.PushFront(e)
	}
	c.ctr.hits.Add(1)
	return e.res, true
}

// Put stores a result under key: on probation, or in main when the ghost
// remembers the key. It then drops the oldest probation entries past
// probation's share into the ghost, and evicts least recently used main
// entries while the cache exceeds its entry capacity or its byte budget. A
// single result bigger than the whole budget is counted (oversize) and not
// cached at all — pinning the entire budget for one query would evict
// everything else for no aggregate gain.
func (c *ResultCache) Put(key string, res *engine.Result) {
	if c.cap <= 0 {
		return
	}
	bytes := res.SizeBytes()
	if bytes > c.budget {
		c.ctr.oversize.Add(1)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += bytes - e.bytes
		if !e.main {
			c.probBytes += bytes - e.bytes
		}
		e.res, e.bytes = res, bytes
		c.queue(e).MoveToFront(el)
	} else {
		_, seen := c.inGhost[maphash.String(c.seed, key)]
		e := &cacheEntry{key: key, res: res, bytes: bytes, main: seen}
		if !seen {
			c.probBytes += bytes
		}
		c.items[key] = c.queue(e).PushFront(e)
		c.bytes += bytes
	}
	probCap, probBudget := (c.cap+9)/10, c.budget/10
	for c.probation.Len() > 1 && (c.probation.Len() > probCap || c.probBytes > probBudget) {
		e := c.evict(c.probation.Back())
		c.remember(maphash.String(c.seed, e.key))
	}
	// Probation now fits its share, or holds one result within the budget;
	// either way, what is over the bounds is in main.
	for len(c.items) > c.cap || c.bytes > c.budget {
		c.evict(c.main.Back())
	}
}

func (c *ResultCache) queue(e *cacheEntry) *list.List {
	if e.main {
		return c.main
	}
	return c.probation
}

// evict removes el's entry from its queue and the cache.
func (c *ResultCache) evict(el *list.Element) *cacheEntry {
	e := el.Value.(*cacheEntry)
	c.queue(e).Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.bytes
	if !e.main {
		c.probBytes -= e.bytes
	}
	c.ctr.evictions.Add(1)
	return e
}

// remember adds a dropped key's hash to the ghost ring, forgetting the
// oldest once the ring holds capacity hashes.
func (c *ResultCache) remember(h uint64) {
	if len(c.ghost) < c.cap {
		c.ghost = append(c.ghost, h)
	} else {
		delete(c.inGhost, c.ghost[c.ghostNext])
		c.ghost[c.ghostNext] = h
		c.ghostNext = (c.ghostNext + 1) % c.cap
	}
	c.inGhost[h] = struct{}{}
}

// InheritStats adopts a predecessor cache's counter cell and counts every
// entry the predecessor still held as evicted — the dataset
// replacement/append path, where the old cache is dropped wholesale because
// its results describe a superseded snapshot. Sharing the cell (rather than
// copying values) keeps /stats exact and monotonic even while requests on
// the old view are still completing. Must be called before the new cache
// serves traffic.
func (c *ResultCache) InheritStats(prev *ResultCache) {
	prev.ctr.evictions.Add(int64(prev.Stats().Entries))
	c.ctr = prev.ctr
}

// CacheStats is a point-in-time snapshot of cache effectiveness. Entries and
// Bytes span both queues. Evictions counts probation drops, main-queue
// displacements and wholesale invalidations when a dataset is replaced by an
// append; Oversize counts results never cached because one alone exceeded
// the whole byte budget.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	Bytes     int64 `json:"bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Oversize  int64 `json:"oversize"`
}

// Stats snapshots the cache counters.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   len(c.items),
		Capacity:  c.cap,
		Bytes:     c.bytes,
		Hits:      c.ctr.hits.Load(),
		Misses:    c.ctr.misses.Load(),
		Evictions: c.ctr.evictions.Load(),
		Oversize:  c.ctr.oversize.Load(),
	}
}

// cachingDB interposes the result cache between callers and an inner back-end:
// every plan of a batch is first looked up by its canonical SQL; only the
// misses reach the inner ExecuteBatch (and from there the coalescer and the
// store's shared scans). It implements engine.DB so the whole client / zexec /
// recommend stack runs over it unchanged.
type cachingDB struct {
	inner engine.DB
	cache *ResultCache
}

func (d *cachingDB) Name() string                                   { return d.inner.Name() }
func (d *cachingDB) Table(name string) *dataset.Table               { return d.inner.Table(name) }
func (d *cachingDB) Counters() engine.Counters                      { return d.inner.Counters() }
func (d *cachingDB) Stats(table string) engine.Stats                { return d.inner.Stats(table) }
func (d *cachingDB) Prepare(q *minisql.Query) (*engine.Plan, error) { return d.inner.Prepare(q) }

// Execute runs one query through the cache.
func (d *cachingDB) Execute(q *minisql.Query) (*engine.Result, error) {
	p, err := d.Prepare(q)
	if err != nil {
		return nil, err
	}
	results, err := d.ExecuteBatch(context.Background(), []*engine.Plan{p})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// ExecuteSQL parses and runs SQL text through the cache.
func (d *cachingDB) ExecuteSQL(sql string) (*engine.Result, error) {
	q, err := minisql.Parse(sql)
	if err != nil {
		return nil, err
	}
	return d.Execute(q)
}

// ExecuteBatch serves cache hits immediately and forwards only the missing
// plans to the inner back-end as one (smaller) batch. Cache hits cost no
// admission: a fully-hit batch never consults ctx or the coalescer's queue.
func (d *cachingDB) ExecuteBatch(ctx context.Context, plans []*engine.Plan) ([]*engine.Result, error) {
	results := make([]*engine.Result, len(plans))
	var missIdx []int
	var missPlans []*engine.Plan
	for i, p := range plans {
		if r, ok := d.cache.Get(p.SQL()); ok {
			results[i] = r
			continue
		}
		missIdx = append(missIdx, i)
		missPlans = append(missPlans, p)
	}
	if len(missPlans) == 0 {
		return results, nil
	}
	fetched, err := d.inner.ExecuteBatch(ctx, missPlans)
	if err != nil {
		return nil, err
	}
	for k, i := range missIdx {
		results[i] = fetched[k]
		d.cache.Put(plans[i].SQL(), fetched[k])
	}
	return results, nil
}
