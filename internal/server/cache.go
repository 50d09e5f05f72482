package server

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/minisql"
)

// ResultCache is a bounded LRU cache of engine results keyed by the canonical
// rendered SQL of a prepared plan (engine.Plan.SQL). The canonical renderer
// makes the key insensitive to the request that produced the query: two
// browser sessions asking for the same slice hit the same entry.
//
// Cached *engine.Result values are shared between requests and MUST be
// treated as read-only by every consumer; the zexec splitter and the JSON
// encoders only read them.
type ResultCache struct {
	mu     sync.Mutex
	cap    int
	budget int64 // bytes of results (engine.Result.SizeBytes) held across entries
	bytes  int64
	ll     *list.List // front = most recently used
	items  map[string]*list.Element

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
		cap:    capacity,
		budget: int64(capacity) * cacheBytesPerEntry,
		ll:     list.New(),
		items:  make(map[string]*list.Element),
		ctr:    &cacheCounters{},
	}
}

// Get returns the cached result for key, marking it most recently used.
func (c *ResultCache) Get(key string) (*engine.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.ctr.hits.Add(1)
		return el.Value.(*cacheEntry).res, true
	}
	c.ctr.misses.Add(1)
	return nil, false
}

// Put stores a result under key, evicting least recently used entries while
// the cache exceeds its entry capacity or its byte budget. A single result
// bigger than the whole budget is counted (oversize) and not cached at all —
// pinning the entire budget for one query would evict everything else for no
// aggregate gain.
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
		e.res, e.bytes = res, bytes
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res, bytes: bytes})
		c.bytes += bytes
	}
	for c.ll.Len() > c.cap || c.bytes > c.budget {
		oldest := c.ll.Back()
		e := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.items, e.key)
		c.bytes -= e.bytes
		c.ctr.evictions.Add(1)
	}
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

// CacheStats is a point-in-time snapshot of cache effectiveness. Evictions
// counts LRU/byte-budget displacements plus wholesale invalidations when a
// dataset is replaced by an append; Oversize counts results never cached
// because one alone exceeded the whole byte budget.
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
		Entries:   c.ll.Len(),
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
//
// It deliberately does NOT implement engine.Parallel: the store's scan-worker
// bound is server configuration, not per-request state.
type cachingDB struct {
	inner engine.DB
	cache *ResultCache
}

func (d *cachingDB) Name() string                                   { return d.inner.Name() }
func (d *cachingDB) Table(name string) *dataset.Table               { return d.inner.Table(name) }
func (d *cachingDB) Counters() engine.Counters                      { return d.inner.Counters() }
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
