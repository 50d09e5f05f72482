package engine

import (
	"context"
	"sync"

	"repro/internal/dataset"
	"repro/internal/minisql"
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

// runPlan executes one prepared plan with a private full scan.
func (s *RowStore) runPlan(p *Plan) (*Result, error) {
	t := p.t
	s.stats.queries.Add(1)
	s.stats.rowsScanned.Add(int64(t.NumRows()))
	return p.run(func(yield func(int)) {
		for i, n := 0, t.NumRows(); i < n; i++ {
			if p.pred(i) {
				yield(i)
			}
		}
	})
}

// ExecuteBatch runs the plans as one request. Plans are grouped by base
// table; each group is dealt round-robin across at most Parallelism workers,
// and every worker performs ONE scan of the table for all of its plans: each
// row visits every plan's predicate and aggregation state. For a batch of n
// plans this performs min(n, Parallelism) scans instead of n.
func (s *RowStore) ExecuteBatch(ctx context.Context, plans []*Plan) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := checkBatch(s, plans); err != nil {
		return nil, err
	}
	results := make([]*Result, len(plans))
	errs := make([]error, len(plans))
	parent := trace.FromContext(ctx)
	var wg sync.WaitGroup
	// The semaphore bounds workers across the whole batch, so a multi-table
	// batch still respects the Parallelism contract.
	sem := make(chan struct{}, s.parallelism())
	for _, grp := range groupPlansByTable(plans) {
		t := grp.t
		shards := shardIndices(grp.idx, s.parallelism())
		s.stats.queries.Add(int64(len(grp.idx)))
		s.stats.rowsScanned.Add(int64(len(shards)) * int64(t.NumRows()))
		for _, shard := range shards {
			wg.Add(1)
			sem <- struct{}{}
			go func(shard []int) {
				defer wg.Done()
				defer func() { <-sem }()
				sp := parent.StartChild("scan")
				sp.SetStr("backend", "row")
				sp.SetStr("table", t.Name)
				sp.SetInt("plans", int64(len(shard)))
				sp.SetInt("rows", int64(t.NumRows()))
				scanShard(ctx, t, plans, shard, results, errs)
				sp.End()
			}(shard)
		}
	}
	wg.Wait()
	if err := firstError(plans, errs); err != nil {
		return nil, err
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
	route [][]rowSink // dictionary code -> sinks that want the row
}

// scanShard executes one shared scan of t serving every plan in the shard.
// The context is checked once per scan block: a cancelled scan stops at the
// next block boundary and poisons every plan in the shard with ctx.Err().
func scanShard(ctx context.Context, t *dataset.Table, plans []*Plan, shard []int, results []*Result, errs []error) {
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
					d = &eqDispatch{codes: c.Codes(), route: make([][]rowSink, c.Cardinality())}
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
			for _, pi := range shard {
				errs[pi] = err
			}
			return
		}
		hi := lo + scanBlock
		if hi > n {
			hi = n
		}
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
}
