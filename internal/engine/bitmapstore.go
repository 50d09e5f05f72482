package engine

import (
	"context"
	"math"

	"repro/internal/dataset"
	"repro/internal/minisql"
	"repro/internal/roaring"
	"repro/internal/trace"
)

// BitmapStore is the in-memory "Roaring Bitmap Database" of the paper: a
// column-oriented store over one table where every distinct value of every
// indexed categorical column has a roaring bitmap of the rows holding it.
// Conjunctive equality / IN predicates are answered with bitmap
// intersections; predicates the index cannot answer are post-filtered inside
// the candidate set.
//
// Beyond the paper's prototype, integer columns with at most
// maxIntIndexCardinality distinct values are also bitmap-indexed, which
// answers range predicates (<, <=, >, >=, BETWEEN) by unioning the value
// bitmaps inside the range — the "multiple range based filters" extension
// named in the paper's future work (Section 10.1).
type BitmapStore struct {
	parLimit
	rowFragments
	index      tableIndex
	intIndexes map[string]*intIndex // by column name
	stats      counters
}

// tableIndex maps column name -> dictionary code -> row bitmap.
type tableIndex map[string][]*roaring.Bitmap

// intIndex is a value-ordered bitmap index over a low-cardinality integer
// column.
type intIndex struct {
	keys []int64 // sorted distinct values
	bms  map[int64]*roaring.Bitmap
}

// maxIntIndexCardinality bounds the distinct-value count an integer column
// may have and still be bitmap-indexed (the same 4096 constant roaring uses
// for the array/bitmap container boundary).
const maxIntIndexCardinality = 4096

// NewBitmapStore builds a bitmap store over a base table, indexing all its
// categorical columns (the paper's default policy: index categoricals, leave
// measures unindexed) plus low-cardinality integer columns for range
// predicates.
func NewBitmapStore(t *dataset.Table) *BitmapStore {
	return &BitmapStore{rowFragments: newRowFragments(t), index: buildIndex(t), intIndexes: buildIntIndexes(t)}
}

func buildIntIndexes(t *dataset.Table) map[string]*intIndex {
	out := make(map[string]*intIndex)
	for _, c := range t.Columns() {
		if c.Field.Kind != dataset.KindInt {
			continue
		}
		distinct := c.DistinctSorted()
		if len(distinct) > maxIntIndexCardinality {
			continue
		}
		ix := &intIndex{bms: make(map[int64]*roaring.Bitmap, len(distinct))}
		for _, v := range distinct {
			ix.keys = append(ix.keys, v.I)
			ix.bms[v.I] = roaring.New()
		}
		for i, n := 0, c.Len(); i < n; i++ {
			ix.bms[c.Int(i)].Add(uint32(i))
		}
		for _, b := range ix.bms {
			b.RunOptimize()
		}
		out[c.Field.Name] = ix
	}
	return out
}

// rangeUnion returns the union of value bitmaps for keys in [lo, hi]
// (inclusive bounds, math.MinInt64/MaxInt64 for open ends).
func (ix *intIndex) rangeUnion(lo, hi int64) *roaring.Bitmap {
	res := roaring.New()
	for _, k := range ix.keys {
		if k < lo {
			continue
		}
		if k > hi {
			break
		}
		res = res.Or(ix.bms[k])
	}
	return res
}

func buildIndex(t *dataset.Table) tableIndex {
	ix := make(tableIndex)
	for _, name := range t.CategoricalColumns() {
		c := t.Column(name)
		bms := make([]*roaring.Bitmap, c.Cardinality())
		for i := range bms {
			bms[i] = roaring.New()
		}
		for i, n := 0, c.Len(); i < n; i++ {
			bms[c.Code(i)].Add(uint32(i))
		}
		for _, b := range bms {
			b.RunOptimize()
		}
		ix[name] = bms
	}
	return ix
}

// Name identifies the back-end.
func (s *BitmapStore) Name() string { return "bitmapstore" }

// Table returns the store's table if it is the named one, or nil.
func (s *BitmapStore) Table(name string) *dataset.Table { return tableNamed(s.t, name) }

// Counters returns cumulative execution statistics.
func (s *BitmapStore) Counters() Counters { return s.stats.snapshot() }

// Stats reports the counters; the store has nothing else to add.
func (s *BitmapStore) Stats() Stats { return Stats{Counters: s.Counters()} }

// IndexSizeBytes reports the total footprint of the categorical bitmap
// indexes, for diagnostics.
func (s *BitmapStore) IndexSizeBytes() int {
	n := 0
	for _, bms := range s.index {
		for _, b := range bms {
			n += b.SizeBytes()
		}
	}
	return n
}

// planBitmap tries to answer a predicate entirely from the index. It returns
// (bitmap, true) on success. total is the number of rows in the table,
// needed to complement for NOT / !=.
func (s *BitmapStore) planBitmap(e minisql.Expr, total int) (*roaring.Bitmap, bool) {
	t, ix := s.t, s.index
	switch x := e.(type) {
	case *minisql.And:
		parts := make([]*roaring.Bitmap, 0, len(x.Args))
		for _, a := range x.Args {
			b, ok := s.planBitmap(a, total)
			if !ok {
				return nil, false
			}
			parts = append(parts, b)
		}
		return roaring.AndAll(parts...), true
	case *minisql.Or:
		res := roaring.New()
		for _, a := range x.Args {
			b, ok := s.planBitmap(a, total)
			if !ok {
				return nil, false
			}
			res = res.Or(b)
		}
		return res, true
	case *minisql.Not:
		b, ok := s.planBitmap(x.Arg, total)
		if !ok {
			return nil, false
		}
		return roaring.FromRange(0, uint32(total)).AndNot(b), true
	case *minisql.Compare:
		if bms, indexed := ix[x.Col]; indexed && x.Val.Kind == dataset.KindString {
			switch x.Op {
			case minisql.CmpEq:
				code := t.Column(x.Col).CodeOf(x.Val.S)
				if code < 0 {
					return roaring.New(), true
				}
				return bms[code], true
			case minisql.CmpNe:
				code := t.Column(x.Col).CodeOf(x.Val.S)
				all := roaring.FromRange(0, uint32(total))
				if code < 0 {
					return all, true
				}
				return all.AndNot(bms[code]), true
			}
			return nil, false
		}
		if ii, ok := s.intIndexes[x.Col]; ok && x.Val.Kind != dataset.KindString {
			return planIntCompare(ii, x, total), true
		}
		return nil, false
	case *minisql.In:
		if bms, indexed := ix[x.Col]; indexed {
			res := roaring.New()
			for _, v := range x.Vals {
				if code := t.Column(x.Col).CodeOf(v.String()); code >= 0 {
					res = res.Or(bms[code])
				}
			}
			return res, true
		}
		if ii, ok := s.intIndexes[x.Col]; ok {
			res := roaring.New()
			for _, v := range x.Vals {
				// Fractional values can never equal an integer cell; probing
				// the index with a truncated key would match the wrong rows.
				f := v.Float()
				if f != math.Trunc(f) {
					continue
				}
				if b, present := ii.bms[int64(f)]; present {
					res = res.Or(b)
				}
			}
			return res, true
		}
		return nil, false
	case *minisql.Between:
		ii, ok := s.intIndexes[x.Col]
		if !ok || x.Lo.Kind == dataset.KindString || x.Hi.Kind == dataset.KindString {
			return nil, false
		}
		lo := int64(math.Ceil(x.Lo.Float()))
		hi := int64(math.Floor(x.Hi.Float()))
		return ii.rangeUnion(lo, hi), true
	}
	return nil, false
}

// planIntCompare answers a numeric comparison from an integer value index.
func planIntCompare(ii *intIndex, x *minisql.Compare, total int) *roaring.Bitmap {
	v := x.Val.Float()
	switch x.Op {
	case minisql.CmpEq:
		if v == math.Trunc(v) {
			if b, ok := ii.bms[int64(v)]; ok {
				return b
			}
		}
		return roaring.New()
	case minisql.CmpNe:
		all := roaring.FromRange(0, uint32(total))
		if v == math.Trunc(v) {
			if b, ok := ii.bms[int64(v)]; ok {
				return all.AndNot(b)
			}
		}
		return all
	case minisql.CmpLt:
		return ii.rangeUnion(math.MinInt64, int64(math.Ceil(v))-1)
	case minisql.CmpLe:
		return ii.rangeUnion(math.MinInt64, int64(math.Floor(v)))
	case minisql.CmpGt:
		return ii.rangeUnion(int64(math.Floor(v))+1, math.MaxInt64)
	case minisql.CmpGe:
		return ii.rangeUnion(int64(math.Ceil(v)), math.MaxInt64)
	}
	return nil
}

// Prepare validates and column-resolves a parsed query into a reusable plan.
func (s *BitmapStore) Prepare(q *minisql.Query) (*Plan, error) {
	return newPlan(s, s.Table(q.From), q)
}

// bitmapCache memoizes conjunct bitmaps within one batch, keyed by canonical
// predicate SQL, so that plans sharing predicate conjuncts (the common case
// for a request batch sliced from one ZQL row) compute each shared bitmap
// intersection exactly once. Entries with ok=false record that the index
// cannot answer the conjunct.
type bitmapCache map[string]cachedBitmap

type cachedBitmap struct {
	bm *roaring.Bitmap
	ok bool
}

// cachedBitmap answers a predicate from the index through the batch cache.
func (s *BitmapStore) cachedBitmap(cache bitmapCache, e minisql.Expr, total int) (*roaring.Bitmap, bool) {
	key := e.SQL()
	if c, hit := cache[key]; hit {
		return c.bm, c.ok
	}
	bm, ok := s.planBitmap(e, total)
	cache[key] = cachedBitmap{bm: bm, ok: ok}
	return bm, ok
}

// access is how a plan's matching rows are found: the candidate rows of the
// intersected index bitmaps (nil: every row), each kept if it passes the
// residual predicate (nil: every candidate).
type access struct {
	bm   *roaring.Bitmap
	pred rowPredicate
}

// planAccess produces the access of a plan. The WHERE clause is split into
// top-level conjuncts; each conjunct is answered from the index (through the
// batch cache) or deferred to a compiled residual predicate evaluated inside
// the candidate set. With no indexable conjunct the plan falls back to a full
// scan with its compiled predicate, same as RowStore.
func (s *BitmapStore) planAccess(p *Plan, cache bitmapCache) (access, error) {
	if p.q.Where == nil {
		return access{}, nil
	}
	// p.conjs carries the top-level conjuncts in written order.
	var parts []*roaring.Bitmap
	var residual []minisql.Expr
	for _, c := range p.conjs {
		if b, ok := s.cachedBitmap(cache, c, p.t.NumRows()); ok {
			parts = append(parts, b)
		} else {
			residual = append(residual, c)
		}
	}
	if len(parts) == 0 {
		return access{pred: p.pred}, nil
	}
	a := access{bm: roaring.AndAll(parts...)}
	if len(residual) > 0 {
		pred, err := compilePredicate(p.t, &minisql.And{Args: residual})
		if err != nil {
			return access{}, err
		}
		a.pred = pred
	}
	return a, nil
}

// drain feeds the plan's matching rows of [lo, hi) into sink in ascending
// order, and returns how many rows it visited: the candidates in the range,
// or the whole range when there is no bitmap.
func (a access) drain(lo, hi int, sink *planSink) (n int64) {
	visit := func(v uint32) {
		if n++; a.pred == nil || a.pred(int(v)) {
			sink.add(int(v))
		}
	}
	if a.bm != nil {
		a.bm.IterateRange(uint32(lo), uint32(hi), visit)
		return n
	}
	for i := lo; i < hi; i++ {
		visit(uint32(i))
	}
	return n
}

// ExecuteBatch runs the plans as one request. Bitmap planning for the whole
// batch happens first, serially, through a shared conjunct cache — predicate
// legs common across plans (constraints repeated on every query of a request
// batch, shared slice attributes) hit the index once. Then, on
// executeFragments' schedule, a scan job drains each plan of its share over
// its fragment.
func (s *BitmapStore) ExecuteBatch(ctx context.Context, plans []*Plan) ([]*Result, error) {
	if err := checkBatch(s, plans); err != nil {
		return nil, err
	}
	cache := make(bitmapCache)
	acc := make([]access, len(plans))
	for i, p := range plans {
		a, err := s.planAccess(p, cache)
		if err != nil {
			return nil, planError(p, err)
		}
		acc[i] = a
	}
	scan := func(ctx context.Context, plans []*Plan, f int, idx []int, sp *trace.Span) ([]*planSink, error) {
		lo, hi := s.bounds(f)
		sinks := make([]*planSink, len(idx))
		var visited int64
		for k, pi := range idx {
			// Cancellation point: a plan's drain over the fragment is
			// all-or-nothing, and counts only the rows it visits.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			sink := plans[pi].newSink(s.t)
			sinks[k] = sink
			n := acc[pi].drain(lo, hi, sink)
			s.stats.rowsScanned.Add(n)
			visited += n
		}
		sp.SetInt("rows", visited)
		return sinks, nil
	}
	return executeFragments(ctx, plans, batchScan{
		db: s, backend: "bitmap", frags: s.count(), workers: s.parallelism(), stats: &s.stats, scan: scan, apart: true,
	})
}
