package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/minisql"
	"repro/internal/trace"
)

// Sharded scatter-gather execution. A ShardedStore splits each table's
// segments into N contiguous shards — every shard a full ColumnStore over a
// rangeSource view of one shared SegmentSource — and ExecuteBatch scatters a
// prepared-plan batch across the shards on a bounded worker pool, then
// gathers: partial group-by accumulators merge in shard order (preserving
// global first-seen group order), projection rows concatenate, and per-shard
// counters sum. Because shards cover contiguous, ascending row ranges of the
// SAME table (rows, dictionaries, zone maps all globally indexed), the
// gathered result is identical to the unsharded single-walk scan.

// SegmentRanged is implemented by segment sources that own a contiguous
// sub-range of a parent table's segments. The column store then scans exactly
// [lo, hi) — in global segment ids — instead of [0, NumSegments()).
type SegmentRanged interface {
	// SegRange returns the owned global segment range [lo, hi).
	SegRange() (lo, hi int)
}

// rangeSource is a contiguous segment-range view of a parent source: the cut
// point sharding uses. Table, zone maps, and dictionaries are the parent's,
// globally indexed — only the owned segment range differs — so a shard built
// over the view scans its own segments while sharing every byte of metadata
// and column storage with its siblings. The view also counts the distinct
// segments materialized through it: the per-shard load observability the
// parent's global counter can't provide.
type rangeSource struct {
	src    SegmentSource
	lo, hi int
	loaded []atomic.Bool // owned segments this view has materialized
	loads  atomic.Int64
}

func (r *rangeSource) Table() *dataset.Table     { return r.src.Table() }
func (r *rangeSource) NumSegments() int          { return r.hi - r.lo }
func (r *rangeSource) SegRange() (lo, hi int)    { return r.lo, r.hi }
func (r *rangeSource) Zone(col string) *ZoneData { return r.src.Zone(col) }

// Load delegates to the parent (which synchronizes and loads once), counting
// the first successful materialization of each owned segment.
func (r *rangeSource) Load(seg int) error {
	if err := r.src.Load(seg); err != nil {
		return err
	}
	if seg >= r.lo && seg < r.hi && !r.loaded[seg-r.lo].Swap(true) {
		r.loads.Add(1)
	}
	return nil
}

// SegmentLoads returns how many of the view's segments have been materialized
// through it — for zpack-backed shards, segments this shard's scans asked the
// reader for (read from disk unless an earlier snapshot had loaded them).
func (r *rangeSource) SegmentLoads() int64 { return r.loads.Load() }

// SplitSource cuts a source's segments into n contiguous range views of as
// equal size as integer division allows (n is capped at the segment count,
// and an empty table yields one empty shard). The views share the parent's
// table, zone maps, and dictionaries; only segment ownership is partitioned.
func SplitSource(src SegmentSource, n int) []SegmentSource {
	nseg := src.NumSegments()
	if n > nseg {
		n = nseg
	}
	if n < 1 {
		n = 1
	}
	cuts := make([]int, 0, n-1)
	for i := 1; i < n; i++ {
		cuts = append(cuts, i*nseg/n)
	}
	return SplitSourceAt(src, cuts)
}

// SplitSourceAt cuts a source at explicit interior segment boundaries:
// len(cuts)+1 contiguous range views, shard i owning [cuts[i-1], cuts[i]).
// Cuts must be ascending within [0, NumSegments()]; empty shards are legal
// (they scan nothing and merge as identities), which is what lets a fixed
// shard count serve tables smaller than the shard count.
func SplitSourceAt(src SegmentSource, cuts []int) []SegmentSource {
	nseg := src.NumSegments()
	out := make([]SegmentSource, 0, len(cuts)+1)
	lo := 0
	for _, c := range append(append(make([]int, 0, len(cuts)+1), cuts...), nseg) {
		if c < lo || c > nseg {
			panic(fmt.Sprintf("engine: shard cut %d outside [%d, %d]", c, lo, nseg))
		}
		out = append(out, &rangeSource{src: src, lo: lo, hi: c, loaded: make([]atomic.Bool, c-lo)})
		lo = c
	}
	return out
}

// ShardedStore is the scatter-gather batch executor: a column-store DB whose
// tables are split into contiguous segment shards scanned in parallel. It
// implements the same DB contract as the stores it is built from — results
// are identical to an unsharded ColumnStore over the same data — and
// multiplies the columnar batch wins across cores: each shard's worker walks
// its own segments once for every plan in the batch, and the gather point
// merges partial accumulators instead of rows.
type ShardedStore struct {
	parLimit
	planToggle
	tables map[string]*dataset.Table
	shards map[string][]*ColumnStore
	stats  counters     // Queries and planner counters; scan counters live in the shard stores
	busy   atomic.Int64 // scatter workers currently running (pool saturation)
}

// NewShardedStore builds a sharded store over in-memory tables, splitting
// each into nshards contiguous segment shards.
func NewShardedStore(nshards int, tables ...*dataset.Table) *ShardedStore {
	sets := make([][]SegmentSource, len(tables))
	for i, t := range tables {
		sets[i] = SplitSource(NewMemSource(t), nshards)
	}
	return NewShardedStoreFromShards(sets...)
}

// NewShardedStoreFromSource builds a sharded store over lazy segment sources
// (one table each), splitting each into nshards contiguous shards. A zpack
// Reader shards this way without rewriting a byte: each shard is a range view
// over the same footer index, and zone-map-skipped segments are still never
// read from disk.
func NewShardedStoreFromSource(nshards int, sources ...SegmentSource) *ShardedStore {
	sets := make([][]SegmentSource, len(sources))
	for i, src := range sources {
		sets[i] = SplitSource(src, nshards)
	}
	return NewShardedStoreFromShards(sets...)
}

// NewShardedStoreFromShards builds the store from explicit shard sets: each
// set is one table's ordered, contiguous shard views, as produced by
// SplitSource or SplitSourceAt (which is how callers control uneven splits).
// Every view in a set must share one parent table.
func NewShardedStoreFromShards(shardSets ...[]SegmentSource) *ShardedStore {
	s := &ShardedStore{
		tables: make(map[string]*dataset.Table, len(shardSets)),
		shards: make(map[string][]*ColumnStore, len(shardSets)),
	}
	for _, set := range shardSets {
		if len(set) == 0 {
			panic("engine: empty shard set")
		}
		t := set[0].Table()
		s.tables[t.Name] = t
		stores := make([]*ColumnStore, len(set))
		for i, src := range set {
			if src.Table() != t {
				panic(fmt.Sprintf("engine: shard %d of table %q is a view of a different table", i, t.Name))
			}
			stores[i] = NewColumnStoreFromSource(src)
		}
		s.shards[t.Name] = stores
	}
	return s
}

// Name identifies the back-end.
func (s *ShardedStore) Name() string { return "shardedstore" }

// Table returns the named base table, or nil.
func (s *ShardedStore) Table(name string) *dataset.Table { return s.tables[name] }

// NumShards returns the shard count of the named table, or 0.
func (s *ShardedStore) NumShards(table string) int { return len(s.shards[table]) }

// NumSegments returns the total segment count of the named table across its
// shards, or 0 (the Segmented interface).
func (s *ShardedStore) NumSegments(table string) int {
	n := 0
	for _, st := range s.shards[table] {
		n += st.NumSegments(table)
	}
	return n
}

// Counters returns cumulative execution statistics, summed across shards.
// Planner counters live at the sharded store itself: it plans once over the
// global metadata and every shard adopts the order.
func (s *ShardedStore) Counters() Counters {
	c := Counters{
		Queries:        s.stats.queries.Load(),
		PlansPlanned:   s.stats.plansPlanned.Load(),
		PlansReordered: s.stats.plansReordered.Load(),
	}
	for _, stores := range s.shards {
		for _, st := range stores {
			sc := st.Counters()
			c.RowsScanned += sc.RowsScanned
			c.SegmentsScanned += sc.SegmentsScanned
			c.SegmentsSkipped += sc.SegmentsSkipped
		}
	}
	return c
}

// SkipProvenance returns cumulative skip attribution, summed across shards.
func (s *ShardedStore) SkipProvenance() map[SkipAttr]int64 {
	var out map[SkipAttr]int64
	for _, stores := range s.shards {
		for _, st := range stores {
			out = mergeSkipProv(out, st.SkipProvenance())
		}
	}
	if out == nil {
		out = make(map[SkipAttr]int64)
	}
	return out
}

// SegmentLoads returns how many distinct segments of the named table have
// been materialized, summed across shards.
func (s *ShardedStore) SegmentLoads(table string) int64 {
	var n int64
	for _, c := range s.ShardStats(table) {
		n += c.SegmentLoads
	}
	return n
}

// PoolStats reports the scatter pool's saturation: workers currently running
// and the pool's capacity bound.
func (s *ShardedStore) PoolStats() (busy, capacity int) {
	return int(s.busy.Load()), s.parallelism()
}

// ShardCounters reports one shard's cumulative share of the scan work.
type ShardCounters struct {
	// Segments is the shard's owned segment count.
	Segments int
	// RowsScanned and SegmentsSkipped are the Counters semantics, restricted
	// to this shard's segment range.
	RowsScanned     int64
	SegmentsSkipped int64
	// SegmentLoads counts distinct owned segments materialized through the
	// shard's source — for zpack-backed shards, segments this shard asked the
	// reader for. Skip-heavy shards stay near zero.
	SegmentLoads int64
}

// ShardedDB is implemented by stores that scatter batches across segment
// shards; the serving layer surfaces per-shard totals on /stats.
type ShardedDB interface {
	// ShardStats returns per-shard counters for the named table in shard
	// order, or nil when the table is unknown.
	ShardStats(table string) []ShardCounters
}

// ShardStats returns per-shard counters for the named table in shard order.
func (s *ShardedStore) ShardStats(table string) []ShardCounters {
	stores := s.shards[table]
	if stores == nil {
		return nil
	}
	out := make([]ShardCounters, len(stores))
	for i, st := range stores {
		c := st.Counters()
		out[i] = ShardCounters{
			Segments:        st.NumSegments(table),
			RowsScanned:     c.RowsScanned,
			SegmentsSkipped: c.SegmentsSkipped,
		}
		if ct := st.cols[table]; ct != nil {
			if l, ok := ct.src.(interface{ SegmentLoads() int64 }); ok {
				out[i].SegmentLoads = l.SegmentLoads()
			}
		}
	}
	return out
}

// Prepare validates and column-resolves a parsed query against the shared
// table, then prepares one sub-plan per shard (each carrying the shard's
// vectorized compilation). The sub-plans are what the scatter executes; the
// returned plan is what callers hold and batch.
//
// With planning on, the conjunct order is decided ONCE here — over the
// table's global zone maps (shards share them) and the provenance merged
// across shards — and every shard sub-plan adopts it, so the scatter
// evaluates one consistent order instead of letting per-shard provenance
// drift the shards apart.
func (s *ShardedStore) Prepare(q *minisql.Query) (*Plan, error) {
	p, err := newPlan(s, s.tables[q.From], q)
	if err != nil {
		return nil, err
	}
	shards := s.shards[q.From]
	if s.planningOn() && len(p.conjs) > 1 && len(shards) > 0 {
		ct := shards[0].cols[q.From] // zone/dict arrays are global, any shard's view works
		ps := newPlannerStats(p.t)
		ps.addZones(ct.zones)
		if err := p.applyPlanOrder(ps.withProv(s.SkipProvenance())); err != nil {
			return nil, err
		}
		s.stats.notePlanned(p.reordered)
	}
	p.sub = make([]*Plan, len(shards))
	for i, shard := range shards {
		sp, err := shard.prepareOrdered(q, p.conjs, p.reordered)
		if err != nil {
			return nil, err
		}
		p.sub[i] = sp
	}
	return p, nil
}

// Execute runs a parsed query (Prepare + Plan.Execute, which routes through
// ExecuteBatch — the scatter path serves single plans too).
func (s *ShardedStore) Execute(q *minisql.Query) (*Result, error) {
	p, err := s.Prepare(q)
	if err != nil {
		return nil, err
	}
	return p.Execute()
}

// ExecuteSQL parses and runs SQL text.
func (s *ShardedStore) ExecuteSQL(sql string) (*Result, error) {
	q, err := minisql.Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.Execute(q)
}

// ExecuteBatch scatters the batch across each table's shards on a worker pool
// bounded by Parallelism, then gathers. One scatter job is (table, shard):
// the shard's worker walks its owned segments once for EVERY plan of the
// batch over that table — batch-wide conjunct sharing within the shard — and
// returns raw, unfinished sinks. The gather merges each plan's per-shard
// sinks in shard order and finishes once (ordering and LIMIT applied at the
// gather point only). Error selection mirrors the process pool's convention:
// every shard runs to completion (no partial-batch aborts), panics are
// contained per shard job, and the error of the lowest failing shard index
// wins deterministically.
func (s *ShardedStore) ExecuteBatch(ctx context.Context, plans []*Plan) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := checkBatch(s, plans); err != nil {
		return nil, err
	}
	results := make([]*Result, len(plans))
	errs := make([]error, len(plans))
	type scatterJob struct {
		grp       *planGroup
		parts     [][]rowSink // shard index -> plan-aligned sinks
		shardErrs []error
	}
	var jobs []*scatterJob
	parent := trace.FromContext(ctx)
	var wg sync.WaitGroup
	sem := make(chan struct{}, s.parallelism())
	for _, grp := range groupPlansByTable(plans) {
		shards := s.shards[grp.t.Name]
		tname := grp.t.Name
		s.stats.queries.Add(int64(len(grp.idx)))
		job := &scatterJob{
			grp:       grp,
			parts:     make([][]rowSink, len(shards)),
			shardErrs: make([]error, len(shards)),
		}
		jobs = append(jobs, job)
		for si, shard := range shards {
			sub := make([]*Plan, len(grp.idx))
			for k, pi := range grp.idx {
				sub[k] = plans[pi].sub[si]
			}
			wg.Add(1)
			sem <- struct{}{}
			go func(si int, shard *ColumnStore, sub []*Plan) {
				defer wg.Done()
				defer func() { <-sem }()
				s.busy.Add(1)
				defer s.busy.Add(-1)
				// One scan span per (table, shard) scatter job; scanPartial
				// picks it out of the context and annotates it with the
				// shard's row/segment counts.
				sp := parent.StartChild("scan")
				sp.SetStr("backend", "sharded")
				sp.SetStr("table", tname)
				sp.SetInt("shard", int64(si))
				sp.SetInt("plans", int64(len(sub)))
				job.parts[si], job.shardErrs[si] = runShardContained(trace.WithSpan(ctx, sp), shard, sub)
				sp.End()
			}(si, shard, sub)
		}
	}
	wg.Wait()
	gsp := parent.StartChild("gather")
	gsp.SetInt("plans", int64(len(plans)))
	defer gsp.End()
	for _, job := range jobs {
		// Lowest-shard-index error wins; it poisons every plan of the table
		// group, exactly as a failed segment load poisons every plan of an
		// unsharded scan worker.
		var shardErr error
		for _, e := range job.shardErrs {
			if e != nil {
				shardErr = e
				break
			}
		}
		for k, pi := range job.grp.idx {
			if shardErr != nil {
				errs[pi] = shardErr
				continue
			}
			parts := make([]rowSink, len(job.parts))
			for si := range job.parts {
				parts[si] = job.parts[si][k]
			}
			results[pi] = gatherPartials(parts)
		}
	}
	if err := firstError(plans, errs); err != nil {
		return nil, err
	}
	return results, nil
}

// runShardContained executes one shard's scan, containing panics as errors:
// an unrecovered panic on a scatter goroutine would kill the whole process
// (cf. the process pool's runContained and the server batcher's drain).
func runShardContained(ctx context.Context, shard *ColumnStore, plans []*Plan) (sinks []rowSink, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: shard panic: %v", r)
		}
	}()
	return shard.scanPartial(ctx, plans)
}

// gatherPartials merges one plan's per-shard sinks in shard order and
// finishes the first. Shards cover contiguous ascending row ranges, so
// merging in shard order reproduces the unsharded scan exactly: projection
// rows concatenate into ascending row order, and a group's global first-seen
// position is its position in the lowest shard that saw it. Every shard picks
// its sink kind from the same plan and global dictionaries, so the kinds agree.
func gatherPartials(parts []rowSink) *Result {
	for _, part := range parts[1:] {
		parts[0].mergeFrom(part)
	}
	return parts[0].finish()
}
