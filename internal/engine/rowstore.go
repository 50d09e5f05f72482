package engine

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/minisql"
	"repro/internal/par"
	"repro/internal/trace"
)

// RowStore is a full-scan executor: every query visits every row and
// evaluates the compiled predicate. It models the behaviour of the paper's
// PostgreSQL back-end at the granularity the experiments care about (a fixed
// per-query cost plus a per-row scan cost, unaffected by selectivity).
//
// ExecuteBatch amortizes that scan cost: plans over the same table are
// served from shared scans — each scanned row visits every plan's predicate
// and aggregation state — with the plans dealt across at most Parallelism
// concurrent scan workers.
type RowStore struct {
	parLimit
	planToggle
	tables map[string]*dataset.Table
	stats  counters
}

// NewRowStore builds a row store over the given base tables.
func NewRowStore(tables ...*dataset.Table) *RowStore {
	s := &RowStore{tables: make(map[string]*dataset.Table, len(tables))}
	for _, t := range tables {
		s.tables[t.Name] = t
	}
	return s
}

// Name identifies the back-end.
func (s *RowStore) Name() string { return "rowstore" }

// Table returns the named base table, or nil.
func (s *RowStore) Table(name string) *dataset.Table { return s.tables[name] }

// Counters returns cumulative execution statistics.
func (s *RowStore) Counters() Counters { return s.stats.snapshot() }

// Stats reports the counters; the store has nothing per table to add.
func (s *RowStore) Stats(string) Stats { return Stats{Counters: s.Counters()} }

// Prepare validates and column-resolves a parsed query into a reusable plan.
// With planning on, multi-conjunct predicates are recompiled in the greedy
// planner's order so the short-circuiting AND closure tests the cheapest,
// most selective leg first. The row store has no zone maps, so scoring uses
// dictionary cardinalities and shape defaults only.
func (s *RowStore) Prepare(q *minisql.Query) (*Plan, error) {
	p, err := newPlan(s, s.tables[q.From], q)
	if err != nil {
		return nil, err
	}
	if s.planningOn() && len(p.conjs) > 1 {
		if err := p.applyPlanOrder(newPlannerStats(p.t)); err != nil {
			return nil, err
		}
		s.stats.notePlanned(p.reordered)
	}
	return p, nil
}

// ExecuteBatch runs the plans as one request. Plans are grouped by base
// table; each group is dealt round-robin across at most Parallelism workers,
// and every worker performs ONE scan of the table for all of its plans: each
// row visits every plan's predicate and aggregation state. For a batch of n
// plans this performs min(n, Parallelism) scans instead of n. The scans run
// on par.Do: a scan's panic is contained as its error, no scan starts after
// a failure, and the batch reports the lowest failing scan's error.
func (s *RowStore) ExecuteBatch(ctx context.Context, plans []*Plan) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := checkBatch(s, plans); err != nil {
		return nil, err
	}
	var shards [][]int // each a subset of one table's plans
	for _, grp := range groupPlansByTable(plans) {
		gs := dealIndices(grp.idx, s.parallelism())
		s.stats.queries.Add(int64(len(grp.idx)))
		shards = append(shards, gs...)
	}
	results := make([]*Result, len(plans))
	parent := trace.FromContext(ctx)
	// One pool bounds workers across the whole batch, so a multi-table batch
	// still respects the Parallelism contract.
	err := par.Do(len(shards), s.parallelism(), func(_, k int) error {
		shard := shards[k]
		t := plans[shard[0]].t
		sp := parent.StartChild("scan")
		defer sp.End()
		sp.SetStr("backend", "row")
		sp.SetStr("table", t.Name)
		sp.SetInt("plans", int64(len(shard)))
		sp.SetInt("rows", int64(t.NumRows()))
		return planError(plans[shard[0]], scanShard(ctx, t, plans, shard, results, &s.stats))
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

// eqDispatch serves all plans of a shard whose whole predicate is a single
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

// scanShard executes one shared scan of t serving every plan in the shard,
// adding each block's rows to stats as it scans them. The context is checked
// once per scan block: a cancelled scan stops at the next block boundary and
// returns ctx.Err().
func scanShard(ctx context.Context, t *dataset.Table, plans []*Plan, shard []int, results []*Result, stats *counters) error {
	sinks := make([]*planSink, len(shard))
	for k, pi := range shard {
		sinks[k] = plans[pi].newSink()
	}
	// Factor single-equality plans into per-column dispatch tables; the rest
	// keep their compiled predicates.
	var dispatches []*eqDispatch
	byCol := make(map[string]*eqDispatch)
	var restPreds []rowPredicate
	var restSinks []*planSink
	for k, pi := range shard {
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
	for k, pi := range shard {
		results[pi] = sinks[k].finish()
	}
	return nil
}
