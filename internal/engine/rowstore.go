package engine

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/minisql"
	"repro/internal/trace"
)

// RowStore is a full-scan executor over one table: every query visits every
// row and evaluates the compiled predicate. It models the behaviour of the
// paper's PostgreSQL back-end at the granularity the experiments care about (a
// fixed per-query cost plus a per-row scan cost, unaffected by selectivity).
//
// ExecuteBatch amortizes that scan cost: the plans are served from shared
// scans — each scanned row visits every plan's predicate and aggregation
// state — on executeFragments' schedule, over the column store's fragments.
// It shares only those fragment bounds and the merge order with the other
// stores, never their filtering, grouping or aggregation, which is what keeps
// it an independent reference for them.
type RowStore struct {
	parLimit
	rowFragments
	stats counters
}

// NewRowStore builds a row store over a base table.
func NewRowStore(t *dataset.Table) *RowStore { return &RowStore{rowFragments: newRowFragments(t)} }

// Name identifies the back-end.
func (s *RowStore) Name() string { return "rowstore" }

// Table returns the store's table if it is the named one, or nil.
func (s *RowStore) Table(name string) *dataset.Table { return tableNamed(s.t, name) }

// Counters returns cumulative execution statistics.
func (s *RowStore) Counters() Counters { return s.stats.snapshot() }

// Stats reports the counters; the store has nothing else to add.
func (s *RowStore) Stats() Stats { return Stats{Counters: s.Counters()} }

// Prepare validates and column-resolves a parsed query into a reusable plan.
func (s *RowStore) Prepare(q *minisql.Query) (*Plan, error) {
	return newPlan(s, s.Table(q.From), q)
}

// SetPlanning does nothing: every store evaluates a plan's conjuncts in
// written order. It remains because the benchmark's oracle
// (bench/oracle.go) still calls it.
func (s *RowStore) SetPlanning(bool) {}

// ExecuteBatch runs the plans as one request on executeFragments' schedule:
// a scan job performs ONE scan of its fragment for every plan of its share,
// so a batch of n plans over one fragment costs min(n, Parallelism) scans.
func (s *RowStore) ExecuteBatch(ctx context.Context, plans []*Plan) ([]*Result, error) {
	return executeFragments(ctx, plans, batchScan{
		db: s, backend: "row", frags: s.count(), workers: s.parallelism(), stats: &s.stats, scan: s.scanFragment,
	})
}

// scanBlock is the number of rows a shared scan processes per plan before
// moving on: large enough to keep per-plan loops tight, small enough that a
// block's column data stays cache-resident while every plan visits it.
const scanBlock = 4096

// eqDispatch serves all plans of a share whose whole predicate is a single
// equality on one categorical column. One code lookup per row routes the row
// to the interested plans' sinks, replacing a predicate call per plan — the
// dominant case for a batch of per-slice queries (WHERE z = '...').
type eqDispatch struct {
	codes dataset.Codes
	col   *dataset.Column // owns codes: keeps their mapping alive
	route [][]*planSink   // dictionary code -> sinks that want the row
}

// routeRows feeds each row of [lo, hi) to the sinks its code routes to; route
// has one entry per dictionary code.
func routeRows(pc dataset.Codes, lo, hi int, route [][]*planSink) {
	switch {
	case pc.U16 != nil:
		routeCodes(pc.U16, lo, hi, route)
	case pc.U32 != nil:
		routeCodes(pc.U32, lo, hi, route)
	default:
		routeCodes(pc.U8, lo, hi, route)
	}
}

func routeCodes[W dataset.Code](codes []W, lo, hi int, route [][]*planSink) {
	for i := lo; i < hi; i++ {
		for _, sink := range route[codes[i]] {
			sink.add(i)
		}
	}
}

// scanFragment executes one shared scan of fragment f's rows serving the
// plans plans[idx[k]], the k-th into the k-th sink it returns, counting each
// block's rows as it scans them. The context is checked once per scan block:
// a cancelled scan stops at the next block boundary and returns ctx.Err().
func (s *RowStore) scanFragment(ctx context.Context, plans []*Plan, f int, idx []int, sp *trace.Span) ([]*planSink, error) {
	lo, hi := s.bounds(f)
	sp.SetInt("rows", int64(hi-lo))
	sinks := make([]*planSink, len(idx))
	for k, pi := range idx {
		sinks[k] = plans[pi].newSink(s.t)
	}
	// Factor single-equality plans into per-column dispatch tables; the rest
	// keep their compiled predicates.
	var dispatches []*eqDispatch
	byCol := make(map[string]*eqDispatch)
	var restPreds []rowPredicate
	var restSinks []*planSink
	for k, pi := range idx {
		p := plans[pi]
		if cmp, ok := p.q.Where.(*minisql.Compare); ok && cmp.Op == minisql.CmpEq && cmp.Val.Kind == dataset.KindString {
			if c := s.t.Column(cmp.Col); c != nil && c.Field.Kind == dataset.KindString {
				d := byCol[cmp.Col]
				if d == nil {
					d = &eqDispatch{codes: c.Codes(), col: c, route: make([][]*planSink, c.Cardinality())}
					byCol[cmp.Col] = d
					dispatches = append(dispatches, d)
				}
				// An unseen value matches no rows; the sink still finishes.
				if code := c.CodeOf(cmp.Val.S); code >= 0 {
					d.route[code] = append(d.route[code], sinks[k])
				}
				continue
			}
		}
		restPreds = append(restPreds, p.pred)
		restSinks = append(restSinks, sinks[k])
	}
	for blo := lo; blo < hi; blo += scanBlock {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bhi := min(blo+scanBlock, hi)
		s.stats.rowsScanned.Add(int64(bhi - blo))
		for _, d := range dispatches {
			routeRows(d.codes, blo, bhi, d.route)
		}
		for k, pred := range restPreds {
			sink := restSinks[k]
			for i := blo; i < bhi; i++ {
				if pred(i) {
					sink.add(i)
				}
			}
		}
	}
	return sinks, nil
}
