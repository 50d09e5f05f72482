package engine

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/minisql"
	"repro/internal/par"
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
	t          *dataset.Table
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
	return &BitmapStore{t: t, index: buildIndex(t), intIndexes: buildIntIndexes(t)}
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

// planAccess produces the matching-row iterator for a plan and the number of
// rows the drain will visit. The WHERE clause is split into top-level
// conjuncts; each conjunct is answered from the index (through the batch
// cache) or deferred to a compiled residual predicate evaluated
// inside the candidate set. With no indexable conjunct the plan falls back
// to a full scan, same as RowStore.
func (s *BitmapStore) planAccess(p *Plan, cache bitmapCache) (rowIter, int64, error) {
	t, q := p.t, p.q
	total := t.NumRows()

	if q.Where == nil {
		return func(yield func(int)) {
			for i := 0; i < total; i++ {
				yield(i)
			}
		}, int64(total), nil
	}

	// p.conjs carries the top-level conjuncts in written order.
	var parts []*roaring.Bitmap
	var residual []minisql.Expr
	for _, c := range p.conjs {
		if b, ok := s.cachedBitmap(cache, c, total); ok {
			parts = append(parts, b)
		} else {
			residual = append(residual, c)
		}
	}

	if len(parts) == 0 {
		// Fallback: full scan with the plan's compiled predicate.
		return func(yield func(int)) {
			for i := 0; i < total; i++ {
				if p.pred(i) {
					yield(i)
				}
			}
		}, int64(total), nil
	}

	bm := roaring.AndAll(parts...)
	if len(residual) == 0 {
		return func(yield func(int)) {
			bm.Iterate(func(v uint32) { yield(int(v)) })
		}, int64(bm.Cardinality()), nil
	}
	pred, err := compilePredicate(t, &minisql.And{Args: residual})
	if err != nil {
		return nil, 0, err
	}
	return func(yield func(int)) {
		bm.Iterate(func(v uint32) {
			if pred(int(v)) {
				yield(int(v))
			}
		})
	}, int64(bm.Cardinality()), nil
}

// ExecuteBatch runs the plans as one request. Bitmap planning for the whole
// batch happens first, serially, through a shared conjunct cache — predicate
// legs common across plans (constraints repeated on every query of a request
// batch, shared slice attributes) hit the index once. The surviving per-plan
// drains then run on par.Do, bounded by Parallelism: a drain's panic is
// contained as its error, no drain starts after a failure, and the batch
// reports the lowest failing plan's error.
func (s *BitmapStore) ExecuteBatch(ctx context.Context, plans []*Plan) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := checkBatch(s, plans); err != nil {
		return nil, err
	}
	sp := trace.FromContext(ctx).StartChild("scan")
	sp.SetStr("backend", "bitmap")
	sp.SetInt("plans", int64(len(plans)))
	defer sp.End()
	cache := make(bitmapCache)
	iters := make([]rowIter, len(plans))
	scanned := make([]int64, len(plans))
	var planned int64
	for i, p := range plans {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		iter, n, err := s.planAccess(p, cache)
		if err != nil {
			return nil, fmt.Errorf("engine: batch plan %q: %w", p.SQL(), err)
		}
		iters[i], scanned[i] = iter, n
		planned += n
		s.stats.queries.Add(1)
	}
	sp.SetInt("rows", planned)
	results := make([]*Result, len(plans))
	err := par.Do(len(plans), s.parallelism(), func(_, i int) error {
		// Cancellation point: a plan drain is all-or-nothing, so a
		// cancelled batch skips plans not yet drained, and counts only the
		// rows of the drains it runs.
		if err := ctx.Err(); err != nil {
			return planError(plans[i], err)
		}
		s.stats.rowsScanned.Add(scanned[i])
		sink := plans[i].newSink()
		iters[i](func(r int) { sink.add(r) })
		results[i] = sink.finish()
		return nil
	})
	if err != nil {
		return nil, batchError(err)
	}
	return results, nil
}
