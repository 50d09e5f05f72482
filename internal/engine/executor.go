package engine

import (
	"context"
	"math"
	"runtime"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/minisql"
)

// DB is a queryable storage back-end. The row, bitmap and column stores
// implement it.
type DB interface {
	// Name identifies the back-end: "rowstore", "bitmapstore", or
	// "columnstore".
	Name() string
	// Table returns the named base table, or nil.
	Table(name string) *dataset.Table
	// Prepare validates and column-resolves a parsed query into a reusable
	// plan bound to this back-end.
	Prepare(q *minisql.Query) (*Plan, error)
	// ExecuteBatch runs a batch of prepared plans as one request, sharing
	// work across plans over the same table: the row store serves every plan
	// in the batch from shared scans, the bitmap store computes common
	// predicate conjunct bitmaps once, and the column store evaluates common
	// predicate conjuncts segment-at-a-time once per scan job. Results
	// align with plans.
	//
	// The context bounds the batch: cancellation is observed at store-specific
	// boundaries (segment boundaries for the column store, scan blocks for
	// the row store, plan drains for the bitmap store) and the batch returns
	// ctx.Err(). A nil context is treated as context.Background. Jobs run on
	// par.Do: a panic is an error, and the lowest failing job's is reported.
	ExecuteBatch(ctx context.Context, plans []*Plan) ([]*Result, error)
	// Counters returns cumulative execution statistics.
	Counters() Counters
	// Stats returns everything the store can report, for the named table.
	Stats(table string) Stats
}

// Stats is a store's observability snapshot, read in one call by the serving
// layer. Counters, SkipProvenance and Pool are store-wide; the rest describe
// the named table. Fields a store cannot report stay zero or nil.
type Stats struct {
	Counters
	// Segments is the table's zone-map segment count (column stores only).
	Segments int
	// SegmentLoads counts the table's distinct segments this store's scans
	// have materialized — for zpack-backed sources, read from disk unless an
	// earlier snapshot of the file had loaded them. Zone-map-skipped
	// segments never load.
	SegmentLoads int64
	// SkipProvenance attributes every zone-map skip to the column and
	// metadata kind that proved the segment empty (column stores only).
	SkipProvenance map[SkipAttr]int64
	// Pool is the scan pool's saturation (column stores only).
	Pool *PoolStats
}

// PoolStats is the scan pool's instantaneous saturation: jobs running
// against the pool's bound.
type PoolStats struct {
	Busy     int `json:"busy"`
	Capacity int `json:"capacity"`
}

// parLimit is the store-level worker bound every back-end embeds. The bound
// applies to every batch the store executes; concurrent callers see the
// last value written.
type parLimit struct {
	par atomic.Int32
}

// SetParallelism bounds the concurrent workers ExecuteBatch uses; n <= 0
// restores the default (GOMAXPROCS).
func (p *parLimit) SetParallelism(n int) { p.par.Store(int32(n)) }

func (p *parLimit) parallelism() int {
	if n := p.par.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Counters accumulates execution statistics across queries.
//
// RowsScanned counts the rows an executor actually visits to produce a
// plan's matching set, so the number is comparable across back-ends even
// though each produces matches differently: the row store visits every row
// of each shared scan (one table length per scan worker), the bitmap store
// visits the candidate rows of the intersected index bitmaps (plus full
// table lengths when a plan falls back to scanning), and the column store
// visits the rows of every segment its zone maps could not prove empty.
// SegmentsSkipped is column-store only: the number of (plan, segment) pairs
// the zone maps proved empty, each saving a segment's worth of scanning.
// SegmentsScanned is its complement: the number of (scan job, segment) pairs a
// scan actually materialized and visited.
// PlansPlanned counts Prepares where the greedy conjunct planner ran (two or
// more top-level conjuncts with planning enabled); PlansReordered counts the
// subset whose execution order actually changed away from written order.
type Counters struct {
	Queries         int64
	RowsScanned     int64
	SegmentsScanned int64
	SegmentsSkipped int64
	PlansPlanned    int64
	PlansReordered  int64
}

type counters struct {
	queries         atomic.Int64
	rowsScanned     atomic.Int64
	segmentsScanned atomic.Int64
	segmentsSkipped atomic.Int64
	plansPlanned    atomic.Int64
	plansReordered  atomic.Int64
}

func (c *counters) snapshot() Counters {
	return Counters{
		Queries:         c.queries.Load(),
		RowsScanned:     c.rowsScanned.Load(),
		SegmentsScanned: c.segmentsScanned.Load(),
		SegmentsSkipped: c.segmentsSkipped.Load(),
		PlansPlanned:    c.plansPlanned.Load(),
		PlansReordered:  c.plansReordered.Load(),
	}
}

// notePlanned records one planner run and whether it changed the order.
func (c *counters) notePlanned(reordered bool) {
	c.plansPlanned.Add(1)
	if reordered {
		c.plansReordered.Add(1)
	}
}

// rowIter produces the matching row indices in ascending order.
type rowIter func(yield func(i int))

func binValue(v float64, width float64) float64 {
	return math.Floor(v/width) * width
}

// aggState accumulates one aggregate over one group.
type aggState struct {
	sum   float64
	count int64
	min   float64
	max   float64
}

func (a *aggState) add(v float64) {
	if a.count == 0 {
		a.min, a.max = v, v
	} else {
		// NaN is the identity for MIN/MAX: a NaN cell never displaces a real
		// bound AND a real value always displaces a NaN seed. Both directions
		// are needed to keep the fold associative — otherwise a fragment whose
		// first matching cell is NaN would swallow its later real values,
		// diverging from the sequential fold.
		if v < a.min || (math.IsNaN(a.min) && !math.IsNaN(v)) {
			a.min = v
		}
		if v > a.max || (math.IsNaN(a.max) && !math.IsNaN(v)) {
			a.max = v
		}
	}
	a.sum += v
	a.count++
}

// merge folds a later partial accumulation into a: a's rows all precede o's
// (fragments cover ascending rows), so the fold mirrors add's semantics — an
// empty side is the identity, min/max comparisons match add's (NaN is the
// MIN/MAX identity in both directions), and sums add. Summation order
// differs from one sequential fold only at fragment boundaries, which the
// table fixes: a sum's bits depend on where those lie, never on the workers.
// Across different boundaries SUM/AVG agree bit for bit only when the
// column's values accumulate exactly (integers, quarters); COUNT/MIN/MAX
// always do.
func (a *aggState) merge(o *aggState) {
	if o.count == 0 {
		return
	}
	if a.count == 0 {
		*a = *o
		return
	}
	if o.min < a.min || (math.IsNaN(a.min) && !math.IsNaN(o.min)) {
		a.min = o.min
	}
	if o.max > a.max || (math.IsNaN(a.max) && !math.IsNaN(o.max)) {
		a.max = o.max
	}
	a.sum += o.sum
	a.count += o.count
}
