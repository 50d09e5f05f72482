package engine

import (
	"context"
	"math"
	"runtime"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/minisql"
)

// DB is a queryable storage back-end over one base table. The row, bitmap
// and column stores implement it.
type DB interface {
	// Name identifies the back-end: "rowstore", "bitmapstore", or
	// "columnstore".
	Name() string
	// Table returns the store's table if name is its name, or nil: the check
	// a query's FROM passes at Prepare.
	Table(name string) *dataset.Table
	// Prepare validates and column-resolves a parsed query into a reusable
	// plan bound to this back-end.
	Prepare(q *minisql.Query) (*Plan, error)
	// ExecuteBatch runs a batch of prepared plans as one request, sharing
	// work across the plans: the row store serves every plan in the batch
	// from shared scans, the bitmap store computes common predicate
	// conjunct bitmaps once, and the column store evaluates common predicate
	// conjuncts segment-at-a-time once per scan job. Every store schedules
	// the batch one way (executeFragments): a scan job is a share of the
	// plans times a fragment of the table, and each plan's fragment sinks
	// merge in fragment order. Results align with plans.
	//
	// The context bounds the batch: cancellation is observed at store-specific
	// boundaries (segment boundaries for the column store, scan blocks for
	// the row store, a plan's drain over a fragment for the bitmap store) and
	// the batch returns ctx.Err(). A nil context is treated as
	// context.Background. Jobs run on par.Do: a panic is an error, and the
	// lowest failing job's is reported.
	ExecuteBatch(ctx context.Context, plans []*Plan) ([]*Result, error)
	// Counters returns cumulative execution statistics.
	Counters() Counters
	// Stats returns everything the store can report.
	Stats() Stats
}

// tableNamed returns t if name is its name, or nil: every store's Table.
func tableNamed(t *dataset.Table, name string) *dataset.Table {
	if t.Name != name {
		return nil
	}
	return t
}

// Stats is a store's observability snapshot, read in one call by the serving
// layer. Fields a store cannot report stay zero or nil.
type Stats struct {
	Counters
	// Segments is the table's zone-map segment count (column stores only).
	Segments int
	// SkipProvenance attributes every zone-map skip to the column and
	// metadata kind that proved the segment empty (column stores only).
	SkipProvenance map[SkipAttr]int64
	// Pool is the scan pool's saturation (column stores only).
	Pool *PoolStats
}

// PoolStats is the scan pool's instantaneous saturation: jobs running
// against the pool's bound. The metric tags name the server's per-dataset
// /metrics series (server.DatasetStats).
type PoolStats struct {
	Busy     int `json:"busy" metric:"zen_scan_pool_busy,gauge" help:"Scan jobs (a fragment for a share of a batch's plans) running now."`
	Capacity int `json:"capacity" metric:"zen_scan_pool_capacity,gauge" help:"The scan workers one batch may use."`
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
// of each shared scan (one fragment length per scan job), the bitmap store
// visits the candidate rows of the intersected index bitmaps (plus full
// table lengths when a plan falls back to scanning), and the column store
// visits the rows of every segment its zone maps could not prove empty.
// SegmentsSkipped is column-store only: the number of (plan, segment) pairs
// the zone maps proved empty, each saving a segment's worth of scanning.
// SegmentsScanned is its complement: the number of (scan job, segment) pairs a
// scan actually read and visited.
type Counters struct {
	Queries         int64
	RowsScanned     int64
	SegmentsScanned int64
	SegmentsSkipped int64
}

type counters struct {
	queries         atomic.Int64
	rowsScanned     atomic.Int64
	segmentsScanned atomic.Int64
	segmentsSkipped atomic.Int64
}

func (c *counters) snapshot() Counters {
	return Counters{
		Queries:         c.queries.Load(),
		RowsScanned:     c.rowsScanned.Load(),
		SegmentsScanned: c.segmentsScanned.Load(),
		SegmentsSkipped: c.segmentsSkipped.Load(),
	}
}

func binValue(v float64, width float64) float64 {
	return math.Floor(v/width) * width
}

// aggState accumulates one aggregate over one group in 16 bytes: the value
// word v is the sum for SUM and AVG, the extremum for MIN and MAX, and unused
// for COUNT. Which it is, the aggregate's function says (add, merge).
type aggState struct {
	v     float64
	count int64
}

// add folds cell x into an accumulator of function f. A sum starts from 0
// (a first cell of -0 sums to +0), an extremum from the first cell. NaN is
// the identity for MIN/MAX: a NaN cell never displaces a real bound AND a
// real value always displaces a NaN seed. Both directions keep the fold
// associative — else a fragment whose first matching cell is NaN would
// swallow its later real values, diverging from the sequential fold.
func (a *aggState) add(f minisql.AggFunc, x float64) {
	switch f {
	case minisql.AggSum, minisql.AggAvg:
		a.v += x
	case minisql.AggMin:
		if a.count == 0 || x < a.v || (a.v != a.v && x == x) {
			a.v = x
		}
	case minisql.AggMax:
		if a.count == 0 || x > a.v || (a.v != a.v && x == x) {
			a.v = x
		}
	}
	a.count++
}

// merge folds a later partial accumulation of the same aggregate into a: a's
// rows all precede o's (fragments cover ascending rows), so the fold mirrors
// add's semantics — an empty side is the identity, an extremum meets add's
// comparisons, and sums add. Summation order differs from one sequential fold
// only at fragment boundaries, which the table fixes: a sum's bits depend on
// where those lie, never on the workers or the store.
// Across different boundaries SUM/AVG agree bit for bit only when the
// column's values accumulate exactly (integers, quarters); COUNT/MIN/MAX
// always do.
func (a *aggState) merge(f minisql.AggFunc, o *aggState) {
	switch n := a.count; {
	case n == 0:
		*a = *o
	case o.count > 0:
		a.add(f, o.v)
		a.count = n + o.count
	}
}
