package engine

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/minisql"
	"repro/internal/par"
	"repro/internal/trace"
)

// RowStore is a full-scan executor over one table: every query visits every
// row and evaluates the compiled predicate. It models the behaviour of the
// paper's PostgreSQL back-end at the granularity the experiments care about (a
// fixed per-query cost plus a per-row scan cost, unaffected by selectivity).
//
// ExecuteBatch amortizes that scan cost: the plans are served from shared
// scans — each scanned row visits every plan's predicate and aggregation
// state — with the plans dealt across at most Parallelism concurrent scan
// workers.
type RowStore struct {
	parLimit
	t     *dataset.Table
	stats counters
}

// NewRowStore builds a row store over a base table.
func NewRowStore(t *dataset.Table) *RowStore { return &RowStore{t: t} }

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

// ExecuteBatch runs the plans as one request. The plans are dealt
// round-robin across at most Parallelism shares, and every share performs
// ONE scan of the table for all of its plans: each row visits every plan's
// predicate and aggregation state. For a batch of n plans this performs
// min(n, Parallelism) scans instead of n. The scans run on par.Do: a scan's
// panic is contained as its error, no scan starts after a failure, and the
// batch reports the lowest failing scan's error.
func (s *RowStore) ExecuteBatch(ctx context.Context, plans []*Plan) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := checkBatch(s, plans); err != nil {
		return nil, err
	}
	s.stats.queries.Add(int64(len(plans)))
	shares := dealIndices(len(plans), s.parallelism())
	results := make([]*Result, len(plans))
	parent := trace.FromContext(ctx)
	err := par.Do(len(shares), s.parallelism(), func(_, k int) error {
		share := shares[k]
		sp := parent.StartChild("scan")
		defer sp.End()
		sp.SetStr("backend", "row")
		sp.SetStr("table", s.t.Name)
		sp.SetInt("plans", int64(len(share)))
		sp.SetInt("rows", int64(s.t.NumRows()))
		return planError(plans[share[0]], scanShare(ctx, s.t, plans, share, results, &s.stats))
	})
	if err != nil {
		return nil, batchError(err)
	}
	return results, nil
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
	route [][]rowSink     // dictionary code -> sinks that want the row
}

// routeRows feeds each row of [lo, hi) to the sinks its code routes to; route
// has one entry per dictionary code.
func routeRows(pc dataset.Codes, lo, hi int, route [][]rowSink) {
	switch {
	case pc.U16 != nil:
		routeCodes(pc.U16, lo, hi, route)
	case pc.U32 != nil:
		routeCodes(pc.U32, lo, hi, route)
	default:
		routeCodes(pc.U8, lo, hi, route)
	}
}

func routeCodes[W dataset.Code](codes []W, lo, hi int, route [][]rowSink) {
	for i := lo; i < hi; i++ {
		for _, sink := range route[codes[i]] {
			sink.add(i)
		}
	}
}

// scanShare executes one shared scan of t serving every plan in the share,
// adding each block's rows to stats as it scans them. The context is checked
// once per scan block: a cancelled scan stops at the next block boundary and
// returns ctx.Err().
func scanShare(ctx context.Context, t *dataset.Table, plans []*Plan, share []int, results []*Result, stats *counters) error {
	sinks := make([]*planSink, len(share))
	for k, pi := range share {
		sinks[k] = plans[pi].newSink()
	}
	// Factor single-equality plans into per-column dispatch tables; the rest
	// keep their compiled predicates.
	var dispatches []*eqDispatch
	byCol := make(map[string]*eqDispatch)
	var restPreds []rowPredicate
	var restSinks []*planSink
	for k, pi := range share {
		p := plans[pi]
		if cmp, ok := p.q.Where.(*minisql.Compare); ok && cmp.Op == minisql.CmpEq && cmp.Val.Kind == dataset.KindString {
			if c := t.Column(cmp.Col); c != nil && c.Field.Kind == dataset.KindString {
				d := byCol[cmp.Col]
				if d == nil {
					d = &eqDispatch{codes: c.Codes(), col: c, route: make([][]rowSink, c.Cardinality())}
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
	n := t.NumRows()
	for lo := 0; lo < n; lo += scanBlock {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := lo + scanBlock
		if hi > n {
			hi = n
		}
		stats.rowsScanned.Add(int64(hi - lo))
		for _, d := range dispatches {
			routeRows(d.codes, lo, hi, d.route)
		}
		for k, pred := range restPreds {
			sink := restSinks[k]
			for i := lo; i < hi; i++ {
				if pred(i) {
					sink.add(i)
				}
			}
		}
	}
	for k, pi := range share {
		results[pi] = sinks[k].finish()
	}
	return nil
}
