// Package server is the serving layer of zenvisage: the HTTP JSON API the
// paper's architecture diagram (Figure 6.1) puts between the browser
// front-end and the ZQL engine. It holds a registry of named datasets, each
// wrapped in a per-dataset result cache and a request coalescer so that
// concurrent interactive traffic over one dataset shares scans and reuses
// prior work instead of multiplying cold scans. Every dataset is served from
// a zpack file through a lazy zpack.Reader: a .zpack as it is, a CSV or a
// generated table from its spill, an unnamed file holding the same bytes.
//
// Stacking, per dataset, bottom to top:
//
//	engine.ColumnStore                  one immutable store, shared read-only, over
//	                                    a zpack reader; cut into fixed-size fragments
//	                                    scanned in parallel
//	  batcher                           queued submissions fold into one store ExecuteBatch
//	    servingDB                       the one engine.DB adapter: hits answered from the
//	                                    ResultCache (canonical plan SQL, probation + LRU),
//	                                    misses submitted to the batcher
//	      client.Session                ZQL parse/execute + bounded history
//	        HTTP handlers               /query /spec /recommend /datasets /stats
//
// docs/OPERATIONS.md is the operator-facing reference for the endpoints,
// counters, and tuning knobs this package exposes.
package server

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/client"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/zexec"
	"repro/internal/zpack"
)

// DefaultCacheEntries is the per-dataset result cache capacity when the
// config does not set one.
const DefaultCacheEntries = 1024

// DefaultMaxQueue is the per-dataset admission-queue bound when the config
// does not set one: the most submissions that may be parked at the coalescer
// before new arrivals are shed with 429. Cache hits bypass the queue, so the
// bound only gates work that would actually reach the engine.
const DefaultMaxQueue = 256

// Config tunes one registered dataset.
type Config struct {
	// Backend is the name /datasets reports for the one executor the server
	// serves, the column store: "column" (also "") or "auto", a second name
	// for it. Every other name is refused; the row and bitmap stores are the
	// paper's baselines, reached through zenvisage -backend. Only the
	// benchmark module still sets it; the next change to the benchmark
	// deletes it.
	Backend string
	// Opt names the default ZQL batching level for requests that do not
	// carry one: "noopt", "intraline", "intratask", or "intertask"
	// ("" = intertask, the strongest).
	Opt string
	// Metric names the distance metric D ("" = z-normalized Euclidean).
	Metric string
	// Seed makes R (k-means) and recommendations deterministic (0 = 1).
	Seed int64
	// CacheEntries bounds the result cache: 0 means DefaultCacheEntries,
	// negative disables caching.
	CacheEntries int
	// MaxQueue bounds the submissions parked at the coalescer before new
	// arrivals are shed with 429: 0 means DefaultMaxQueue, negative disables
	// shedding (unbounded queue).
	MaxQueue int
	// Shards is ignored: the column store cuts every table into fragments
	// whose size the data fixes (docs/ARCHITECTURE.md, "Fragments"). Only the
	// benchmark module still sets it; the benchmark's catch-up (ROADMAP item
	// 4) deletes it.
	Shards int
}

// Dataset is one registered table with its store, cache, coalescer, and
// session. All fields are fixed at registration; every method is safe for
// concurrent use. An append does not mutate a Dataset — it builds a
// successor and swaps it into the registry, so requests already executing
// against this Dataset finish on the view they started with. The successor's
// zpack snapshot shares the predecessor's column arrays and the load state of
// every unchanged segment (zpack.Reader.Reopen); the store, result cache,
// coalescer and session around it are rebuilt, so nothing computed over the
// shorter table is ever served for the longer one. An idle dataset is
// released the same way (Registry.release): its successor is the same
// snapshot with nothing loaded, and keeps its result cache.
type Dataset struct {
	name    string
	backend string
	table   *dataset.Table
	cfg     Config // as registered; appends rebuild the stack from it

	opt     zexec.OptLevel
	store   engine.DB // the real back-end; counters live here
	cache   *ResultCache
	bat     *batcher
	session *client.Session

	// zpack backing. packPath is empty, and packW nil, for a spill (see
	// Spilled). packW is atomic because Appendable() reads it from request
	// handlers while recoverWriter may replace it on a failed append; all
	// writer USE is serialized by the registry's appendMu.
	packPath string
	packR    *zpack.Reader
	packW    atomic.Pointer[zpack.Writer]

	// The whole append lineage of one inode shares one descriptor, owned by
	// its newest Reader, packR. A compaction replaces the inode and so opens a
	// new lineage; the superseded generation's descriptor, and nothing else of
	// it, moves to packRetired and is closed one compaction later, when every
	// query that could still hold an old snapshot is long finished (see
	// Registry.Compact).
	packRetired io.Closer

	// ctr is SHARED across a dataset's generations: an append swaps in a
	// successor Dataset that points at the same counter cell, so increments
	// from requests still running on the old view land in the totals /stats
	// reports — the counters stay exact and monotonic across swaps.
	ctr *dsCounters
}

// dsCounters holds the per-dataset HTTP and process-phase totals that
// survive snapshot swaps.
type dsCounters struct {
	queries    atomic.Int64
	specs      atomic.Int64
	recommends atomic.Int64
	errors     atomic.Int64

	// Process-phase totals accumulated over every query served. The result
	// cache sits below the ZQL layer (it caches engine results, not zexec
	// results), so the process phase runs per request and these are exact.
	procTuples    atomic.Int64
	procDist      atomic.Int64
	procAbandoned atomic.Int64

	// timeouts counts requests that hit their deadline (504) or whose client
	// went away mid-execution (499) — both are executions the context cut
	// short at an engine cancellation point.
	timeouts atomic.Int64

	// Compaction state, shared across generations like everything else in this
	// struct. generation counts successful compactions (0 = as loaded);
	// unsortedSegs is a gauge over the current file, refreshed at registration,
	// after every append, and after every compaction — not at scrape time,
	// because /metrics reads Stats() once per series. lastAppendNano is what
	// the background compactor's pause-during-append debounce checks.
	compactions    atomic.Int64
	compactFails   atomic.Int64
	rowsRewritten  atomic.Int64
	generation     atomic.Int64
	lastCompactNs  atomic.Int64
	lastCols       atomic.Pointer[[]string]
	clusterCol     atomic.Pointer[string]
	unsortedSegs   atomic.Int64
	lastAppendNano atomic.Int64

	// released counts the blocks the snapshots that idle sweeps dropped had
	// in place (Registry.release), over every generation.
	released atomic.Int64

	// The idle sweep's view of the dataset (Registry.sweepIdle), under the
	// registry's sweepMu: the store's query count at the previous sweep, and
	// how many sweeps in a row have found it unchanged.
	sweepQueries int64
	idleRuns     int
}

// recordProcess folds one execution's process-phase counters into the
// dataset totals.
func (d *Dataset) recordProcess(s zexec.ProcessStats) {
	d.ctr.procTuples.Add(s.Tuples)
	d.ctr.procDist.Add(s.DistCalls)
	d.ctr.procAbandoned.Add(s.DistAbandoned)
}

// Name returns the registry name of the dataset.
func (d *Dataset) Name() string { return d.name }

// Backend returns the name the dataset's executor was registered under:
// "column" or "auto".
func (d *Dataset) Backend() string { return d.backend }

// Table returns the immutable base table.
func (d *Dataset) Table() *dataset.Table { return d.table }

// Session returns the shared session over the cached, coalescing back-end.
func (d *Dataset) Session() *client.Session { return d.session }

// Opt returns the dataset's default optimization level.
func (d *Dataset) Opt() zexec.OptLevel { return d.opt }

// Segments returns the zone-map segment count of the dataset's store.
func (d *Dataset) Segments() int { return d.store.Stats(d.table.Name).Segments }

// ResidentBytes returns the memory the dataset's loaded column data holds:
// the blocks its reader has in place now, at their width in memory
// (zpack.Reader.ResidentBytes).
func (d *Dataset) ResidentBytes() int64 { return d.packR.ResidentBytes() }

// Appendable reports whether POST /datasets/{name}/append can extend this
// dataset (datasets served from a .zpack file only).
func (d *Dataset) Appendable() bool { return d.packW.Load() != nil }

// DatasetStats aggregates every per-dataset counter for /stats.
type DatasetStats struct {
	Backend string `json:"backend"`
	Rows    int    `json:"rows"`
	// Engine counters are cumulative over the real store, so cache hits
	// leave RowsScanned untouched — the visible win of the cache.
	// SegmentsSkipped counts segments the zone maps proved empty and never
	// scanned; SegmentsScanned are the ones that were actually visited, and
	// SegmentLoads, summed over the dataset's snapshots, the distinct segments
	// each snapshot's store has visited at least once (for zpack, read from
	// disk then, unless an earlier snapshot of the append lineage had loaded
	// them). BlocksReleased counts the (segment, column) blocks that the
	// snapshots idle sweeps dropped had in place, to be read again by the
	// next scan that needs them.
	Queries         int64         `json:"queries"`
	RowsScanned     int64         `json:"rowsScanned"`
	SegmentsScanned int64         `json:"segmentsScanned"`
	SegmentsSkipped int64         `json:"segmentsSkipped"`
	SegmentLoads    int64         `json:"segmentLoads,omitempty"`
	BlocksReleased  int64         `json:"blocksReleased,omitempty"`
	Cache           CacheStats    `json:"cache"`
	Coalesce        BatchStats    `json:"coalesce"`
	Process         ProcessTotals `json:"process"`
	HTTP            HTTPStats     `json:"http"`
	History         int           `json:"historyEntries"`
	// SkipProvenance attributes zone-map skips to the (column, metadata kind)
	// that proved each skipped segment empty — highest count first.
	SkipProvenance []SkipProvEntry `json:"skipProvenance,omitempty"`
	// Planner reports the conjunct planner's activity: plans that went
	// through scoring and plans whose conjunct order actually changed.
	Planner *PlannerStats `json:"planner,omitempty"`
	// Pool is the scan pool: the scan jobs in flight against the worker
	// bound of one batch.
	Pool *engine.PoolStats `json:"pool,omitempty"`
	// Compaction is present only on zpack-backed datasets: the re-clustering
	// lifecycle counters (docs/OPERATIONS.md, "Compaction").
	Compaction *CompactionStats `json:"compaction,omitempty"`
}

// CompactionStats is the compaction lifecycle of one zpack-backed dataset.
type CompactionStats struct {
	// Generation counts successful compactions since the dataset registered
	// (0 = serving the file as loaded).
	Generation int64 `json:"generation"`
	// Compactions / Failures / RowsRewritten are cumulative across
	// generations; a failure leaves the old generation serving.
	Compactions   int64 `json:"compactions"`
	Failures      int64 `json:"failures"`
	RowsRewritten int64 `json:"rowsRewritten"`
	// LastDurationMs and LastCols describe the most recent successful
	// compaction: wall time and the cluster columns used.
	LastDurationMs int64    `json:"lastDurationMs,omitempty"`
	LastCols       []string `json:"lastCols,omitempty"`
	// ClusterCol is the primary cluster column the UnsortedSegments gauge is
	// measured against; UnsortedSegments counts segments out of order on it —
	// the disorder appends accumulate and the background compactor thresholds
	// on. Zero right after a compaction, by construction.
	ClusterCol       string `json:"clusterCol,omitempty"`
	UnsortedSegments int64  `json:"unsortedSegments"`
}

// SkipProvEntry is one skip-attribution bucket: segments proved empty for
// this dataset by the named column's metadata, via "dict" (categorical
// dictionary bitset), "zonemap" (numeric min/max), "const" (constant-false
// predicate), or "expr" (composite AND/OR proof).
type SkipProvEntry struct {
	Column string `json:"column"`
	Via    string `json:"via"`
	Count  int64  `json:"count"`
}

// PlannerStats is the conjunct planner's activity for one dataset.
type PlannerStats struct {
	// PlansPlanned counts multi-conjunct plans the greedy scorer examined;
	// PlansReordered the subset whose evaluation order actually changed.
	PlansPlanned   int64 `json:"plansPlanned"`
	PlansReordered int64 `json:"plansReordered"`
}

// ProcessTotals aggregates process-phase work over every query the dataset
// served: tuples scored, distance calls made, and distance calls the pruning
// kernels abandoned early (work saved without changing results).
type ProcessTotals struct {
	Tuples        int64 `json:"tuples"`
	DistCalls     int64 `json:"distCalls"`
	DistAbandoned int64 `json:"distAbandoned"`
}

// HTTPStats counts requests served per endpoint kind. Timeouts counts
// executions cut short by their request context — deadline exceeded (504) or
// client disconnect (499); both also count under Errors.
type HTTPStats struct {
	Queries    int64 `json:"queries"`
	Specs      int64 `json:"specs"`
	Recommends int64 `json:"recommends"`
	Errors     int64 `json:"errors"`
	Timeouts   int64 `json:"timeouts"`
}

// skipProvenance renders the store's skip attribution in emit order, or nil
// when nothing was attributed.
func skipProvenance(m map[engine.SkipAttr]int64) []SkipProvEntry {
	if len(m) == 0 {
		return nil
	}
	out := make([]SkipProvEntry, 0, len(m))
	for _, a := range engine.SortedSkipAttrs(m) {
		out = append(out, SkipProvEntry{Column: a.Column, Via: a.Via, Count: m[a]})
	}
	return out
}

// Stats snapshots the dataset's counters.
func (d *Dataset) Stats() DatasetStats {
	st := d.store.Stats(d.table.Name)
	var compaction *CompactionStats
	if d.packPath != "" {
		compaction = &CompactionStats{
			Generation:       d.ctr.generation.Load(),
			Compactions:      d.ctr.compactions.Load(),
			Failures:         d.ctr.compactFails.Load(),
			RowsRewritten:    d.ctr.rowsRewritten.Load(),
			LastDurationMs:   d.ctr.lastCompactNs.Load() / 1e6,
			UnsortedSegments: d.ctr.unsortedSegs.Load(),
		}
		if cols := d.ctr.lastCols.Load(); cols != nil {
			compaction.LastCols = *cols
		}
		if col := d.ctr.clusterCol.Load(); col != nil {
			compaction.ClusterCol = *col
		}
	}
	return DatasetStats{
		Compaction:      compaction,
		Backend:         d.backend,
		Rows:            d.table.NumRows(),
		Queries:         st.Queries,
		RowsScanned:     st.RowsScanned,
		SegmentsScanned: st.SegmentsScanned,
		SegmentsSkipped: st.SegmentsSkipped,
		SegmentLoads:    st.SegmentLoads,
		BlocksReleased:  d.ctr.released.Load(),
		Cache:           d.cache.Stats(),
		Coalesce:        d.bat.stats(),
		SkipProvenance:  skipProvenance(st.SkipProvenance),
		Planner:         &PlannerStats{PlansPlanned: st.PlansPlanned, PlansReordered: st.PlansReordered},
		Pool:            st.Pool,
		Process: ProcessTotals{
			Tuples:        d.ctr.procTuples.Load(),
			DistCalls:     d.ctr.procDist.Load(),
			DistAbandoned: d.ctr.procAbandoned.Load(),
		},
		HTTP: HTTPStats{
			Queries:    d.ctr.queries.Load(),
			Specs:      d.ctr.specs.Load(),
			Recommends: d.ctr.recommends.Load(),
			Errors:     d.ctr.errors.Load(),
			Timeouts:   d.ctr.timeouts.Load(),
		},
		History: d.session.HistoryLen(),
	}
}

// Registry names and owns the served datasets. Registration is expected at
// startup but is safe at any time; lookups are lock-cheap reads. Appends
// serialize on their own lock so a slow append never blocks queries.
type Registry struct {
	mu       sync.RWMutex
	datasets map[string]*Dataset
	appendMu sync.Mutex

	// Readiness for /readyz: ready flips true once startup loading completes
	// (zserved calls SetReady after the last dataset registers), and swaps
	// counts snapshot-swap windows in flight — an append rebuilding and
	// swapping a dataset stack briefly reports not-ready so rolling deploys
	// and probes don't route traffic into the swap.
	ready atomic.Bool
	swaps atomic.Int64

	// sweepMu serializes idle sweeps (sweepIdle).
	sweepMu sync.Mutex
}

// SetReady marks the registry ready (or not) for /readyz. Call with true
// once startup loading is complete.
func (r *Registry) SetReady(ready bool) { r.ready.Store(ready) }

// Ready reports whether the registry should pass readiness probes: marked
// ready and no dataset snapshot swap in flight.
func (r *Registry) Ready() bool { return r.ready.Load() && r.swaps.Load() == 0 }

// ErrNotAppendable marks an append against a dataset not served from a
// .zpack file; the HTTP layer maps it to 409 Conflict.
var ErrNotAppendable = errors.New("server: dataset is not appendable (only datasets served from a .zpack file accept appends)")

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{datasets: make(map[string]*Dataset)}
}

// AddTable registers t under its own name, spilled to an unnamed file in
// os.TempDir() (zpack.Spill) and served from it as a spilled CSV is (see
// LoadCSV). The spill shares t's dictionaries: the caller hands the table
// over and builds on it no further.
func (r *Registry) AddTable(t *dataset.Table, cfg Config) (*Dataset, error) {
	if t == nil || t.Name == "" {
		return nil, fmt.Errorf("server: dataset needs a named table")
	}
	return r.addSpill(t.Name, t, cfg, os.TempDir())
}

// backendName resolves Config.Backend to the name /datasets reports: "" is
// "column", and "column" and "auto" name the column executor, the only one
// the server serves. Any other name is refused.
func backendName(name string) (string, error) {
	switch name {
	case "":
		return "column", nil
	case "column", "auto":
		return name, nil
	}
	return "", fmt.Errorf("server: backend %q is not served (want column or auto); the paper's row and bitmap baselines run in zenvisage -backend", name)
}

// AddZpack registers a persistent zpack dataset under name: the file's
// footer is read, the table opens lazily, and the store is the column
// executor over the reader's segment source — warm start, no CSV parse, no
// data deserialized until queries touch it. The file also opens for append,
// backing POST /datasets/{name}/append.
func (r *Registry) AddZpack(name, path string, cfg Config) (*Dataset, error) {
	if name == "" {
		return nil, fmt.Errorf("server: dataset needs a name")
	}
	backend, err := backendName(cfg.Backend)
	if err != nil {
		return nil, err
	}
	reader, err := zpack.Open(path)
	if err != nil {
		return nil, err
	}
	writer, err := zpack.OpenAppend(path)
	if err != nil {
		reader.Close()
		return nil, err
	}
	d, err := newDataset(name, reader, backend, cfg, nil)
	if err != nil {
		reader.Close()
		writer.Discard()
		return nil, err
	}
	d.packPath = path
	d.packW.Store(writer)
	d.refreshUnsorted()
	return r.add(d)
}

// newDataset assembles the serving stack — store, cache, coalescer, session
// — around a zpack reader's table, registered as name, answering from cache,
// or from a new cache when it is nil. The store is the column executor over
// the reader's segments, cut into fragments over the same reader, so a file
// is never rewritten and lazily-skipped segments are still never read from
// disk. Every swap rebuilds through this constructor, so appended segments
// land in the tail fragment or in new ones after it.
func newDataset(name string, reader *zpack.Reader, backend string, cfg Config, cache *ResultCache) (*Dataset, error) {
	t := reader.Table()
	t.Name = name
	store := engine.NewColumnStoreFromSource(reader)
	opt := zexec.InterTask
	if cfg.Opt != "" {
		var err error
		if opt, err = zexec.OptLevelByName(cfg.Opt); err != nil {
			return nil, err
		}
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cache == nil {
		entries := cfg.CacheEntries
		if entries == 0 {
			entries = DefaultCacheEntries
		}
		cache = NewResultCache(entries)
	}
	maxQueue := cfg.MaxQueue
	if maxQueue == 0 {
		maxQueue = DefaultMaxQueue
	}
	bat := newBatcher(store, maxQueue)
	db := &servingDB{DB: store, cache: cache, bat: bat}

	sessOpts := []client.Option{
		client.WithOptLevel(opt),
		client.WithSeed(cfg.Seed),
	}
	if cfg.Metric != "" {
		sessOpts = append(sessOpts, client.WithMetric(cfg.Metric))
	}
	sess, err := client.OpenDB(db, name, sessOpts...)
	if err != nil {
		return nil, err
	}
	return &Dataset{
		name:    name,
		backend: backend,
		table:   t,
		cfg:     cfg,
		opt:     opt,
		store:   store,
		cache:   cache,
		bat:     bat,
		session: sess,
		packR:   reader,
		ctr:     &dsCounters{},
	}, nil
}

// add installs a built dataset, failing on a taken name.
func (r *Registry) add(d *Dataset) (*Dataset, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.datasets[d.name]; exists {
		return nil, fmt.Errorf("server: dataset %q already registered", d.name)
	}
	r.datasets[d.name] = d
	return d, nil
}

// LoadCSV registers a CSV file under name. The decoded chunks are spilled to
// an unnamed file (zpack.Spill) and served from it as a .zpack is, without
// appends or compaction: only the blocks queries read are resident, and no
// table is stitched. The spill goes to the CSV's directory, or, where that
// takes none (read-only, full), to os.TempDir(); where neither does, LoadCSV
// fails.
func (r *Registry) LoadCSV(name, path string, cfg Config) (*Dataset, error) {
	ch, err := dataset.DecodeCSVFile(name, path)
	if err != nil {
		return nil, err
	}
	return r.addSpill(name, ch, cfg, filepath.Dir(path), os.TempDir())
}

// addSpill registers src as name, served from its spill in the first of dirs
// that takes one.
func (r *Registry) addSpill(name string, src zpack.Source, cfg Config, dirs ...string) (*Dataset, error) {
	backend, err := backendName(cfg.Backend)
	if err != nil {
		return nil, err
	}
	var failed []string
	for _, dir := range dirs {
		reader, err := zpack.Spill(src, dir)
		if err != nil {
			failed = append(failed, dir+": "+err.Error())
			continue
		}
		if len(failed) > 0 {
			log.Printf("%s: spilled to %s (%s)", name, dir, strings.Join(failed, "; "))
		}
		d, err := newDataset(name, reader, backend, cfg, nil)
		if err == nil {
			d, err = r.add(d)
		}
		if err != nil {
			reader.Close()
		}
		return d, err
	}
	return nil, fmt.Errorf("server: no directory takes the spill of %s: %s", name, strings.Join(failed, "; "))
}

// Spilled reports whether the dataset is served from a spill (see LoadCSV
// and AddTable) rather than from a .zpack file.
func (d *Dataset) Spilled() bool { return d.packPath == "" }

// Append extends a zpack-backed dataset with rows and swaps the successor
// snapshot into the registry. The commit order is what makes the swap
// snapshot-consistent:
//
//  1. rows are appended and flushed to the file (durable before visible);
//  2. the reader reopens over the extended footer, adopting the old reader's
//     loaded segments (committed blocks are append-only, so the old reader
//     stays valid, and the new one only ever writes rows the old cannot see);
//  3. a fresh stack (store, cache, coalescer, session) is built around the
//     new snapshot, inheriting the predecessor's cumulative counters, with
//     the old cache's entries counted as evicted;
//  4. the registry entry is swapped; in-flight queries finish on the old
//     view, new requests see the extended one.
//
// It returns the successor dataset.
func (r *Registry) Append(name string, rows []dataset.Row) (*Dataset, error) {
	r.appendMu.Lock()
	defer r.appendMu.Unlock()
	d := r.Get(name)
	if d == nil {
		return nil, fmt.Errorf("server: no dataset %q", name)
	}
	if !d.Appendable() {
		return nil, fmt.Errorf("%w: %q has backend %q with no usable zpack file", ErrNotAppendable, name, d.backend)
	}
	// Validate arity up front so a bad row cannot leave half a batch
	// buffered in the writer's tail.
	for i, row := range rows {
		if len(row) != d.table.NumCols() {
			return nil, fmt.Errorf("server: append row %d has %d values, schema has %d columns", i, len(row), d.table.NumCols())
		}
	}
	if len(rows) == 0 {
		return d, nil
	}
	w := d.packW.Load()
	if err := w.Append(rows); err != nil {
		d.recoverWriter(w)
		return nil, err
	}
	if err := w.Flush(); err != nil {
		// The batch may be half-buffered in the writer's tail; a client
		// retry against that state would commit the rows twice. Rebuild the
		// writer from the last committed footer so a retry starts clean.
		d.recoverWriter(w)
		return nil, err
	}
	// Readiness gate: from here to the registry swap the dataset's serving
	// stack is being replaced; /readyz reports 503 for the window.
	r.swaps.Add(1)
	defer r.swaps.Add(-1)
	fresh, err := d.packR.Reopen()
	if err != nil {
		// The flush committed; the writer is consistent. The caller sees an
		// error for durable rows — at-least-once, like any non-idempotent
		// append API without client-supplied request IDs.
		return nil, err
	}
	return r.swapSuccessor(d, fresh, w, d.packRetired, nil, func(c *dsCounters) {
		c.lastAppendNano.Store(nowNano())
	})
}

// release swaps the named dataset's successor over the unloaded twin of its
// snapshot (zpack.Reader.Unloaded) into the registry, if it still has
// blocks in place. The successor answers from the same result cache: same
// data, same keys. Scans still running on the old snapshot, and results
// still cached from it, keep what they read; once nothing reaches the old
// snapshot's arrays the collector unmaps them. release takes appendMu only if
// it is free, so the GC hook that runs it never waits behind an append or a
// compaction: a busy lock skips the release.
func (r *Registry) release(name string) {
	if !r.appendMu.TryLock() {
		return
	}
	defer r.appendMu.Unlock()
	d := r.Get(name)
	if d == nil || d.ResidentBytes() == 0 {
		return
	}
	twin, blocks := d.packR.Unloaded()
	// The twin owns the descriptor from here on. Should the swap fail, d
	// serves on through it, and the os.File closes once unreachable.
	r.swapSuccessor(d, twin, d.packW.Load(), d.packRetired, d.cache, func(c *dsCounters) {
		c.released.Add(int64(blocks))
	})
}

// swapSuccessor builds d's successor around a reader of d's file (reopened,
// or d's unloaded twin) and its writer, under d's name, backend and config,
// and swaps it into the registry. retired becomes the successor's
// packRetired. The successor answers from cache when it is not nil (a
// release: the data is d's), from a fresh cache otherwise. note records the
// caller's counters before the unsorted-segments gauge, which reads them, is
// refreshed. Callers hold appendMu.
//
// Counter continuity: every /stats and /metrics counter stays exact and
// monotonic across the swap. HTTP, process and compaction counters, the
// engine counters (rows and segments scanned, skipped and loaded, plans,
// skip provenance) and the coalescer counters are shared
// cells the successor adopts from d, so what queries still running on d add
// lands in them too; a fresh cache inherits d's counters, with d's entries
// counted as evictions. Only the session's history restarts.
func (r *Registry) swapSuccessor(d *Dataset, fresh *zpack.Reader, w *zpack.Writer, retired io.Closer, cache *ResultCache, note func(*dsCounters)) (*Dataset, error) {
	nd, err := newDataset(d.name, fresh, d.backend, d.cfg, cache)
	if err != nil {
		return nil, err
	}
	nd.store.(*engine.ColumnStore).ShareCounters(d.store.(*engine.ColumnStore))
	nd.packPath, nd.packRetired = d.packPath, retired
	nd.packW.Store(w)
	nd.ctr = d.ctr
	nd.bat.ctr = d.bat.ctr
	if cache == nil {
		nd.cache.InheritStats(d.cache)
	}
	note(nd.ctr)
	nd.refreshUnsorted()
	r.mu.Lock()
	r.datasets[d.name] = nd
	r.mu.Unlock()
	return nd, nil
}

// recoverWriter discards a zpack writer whose in-memory state may have
// diverged from the file (a failed append or flush) and reopens it from the
// last committed footer. If even that fails the dataset stops accepting
// appends rather than risking duplicate or torn commits; queries are
// unaffected either way. Callers hold appendMu, which is what serializes
// every packW access.
func (d *Dataset) recoverWriter(w *zpack.Writer) {
	w.Discard()
	fresh, err := zpack.OpenAppend(d.packPath)
	if err != nil {
		d.packW.Store(nil)
		return
	}
	d.packW.Store(fresh)
}

// Get returns the named dataset, or nil.
func (r *Registry) Get(name string) *Dataset {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.datasets[name]
}

// List returns the datasets sorted by name.
func (r *Registry) List() []*Dataset {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Dataset, 0, len(r.datasets))
	for _, d := range r.datasets {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
