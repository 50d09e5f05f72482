package engine

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/minisql"
	"repro/internal/par"
	"repro/internal/trace"
)

// Plan is a validated, column-resolved logical plan for one query: the table
// is looked up, every select / group / order item is bound against the
// schema, and the WHERE predicate is compiled to a row closure — all exactly
// once, at Prepare time. A Plan is immutable after Prepare and may be
// executed any number of times, alone (Execute) or as part of a batch
// (DB.ExecuteBatch), where the back-end shares work across the plans.
type Plan struct {
	db  DB
	q   *minisql.Query
	t   *dataset.Table
	sql string // canonical rendering of q, fixed at Prepare time

	pred rowPredicate // compiled WHERE; always-true when q.Where is nil
	vec  *vecPlan     // column-store compilation hook; nil elsewhere
	// conjs holds the top-level WHERE conjuncts in written order, the order
	// every store compiles and evaluates them in.
	conjs    []minisql.Expr
	cols     []string          // output column names
	orderCol []int             // per ORDER BY item, its select position
	selCol   []*dataset.Column // per select item; nil for COUNT(*)
	keyCol   []*dataset.Column // per GROUP BY key
	aggCol   []*dataset.Column // per aggregate select item, in order; nil for COUNT(*)
}

// newPlan binds q against t, validating every column reference.
func newPlan(db DB, t *dataset.Table, q *minisql.Query) (*Plan, error) {
	if t == nil {
		return nil, fmt.Errorf("engine: no table %q", q.From)
	}
	p := &Plan{db: db, q: q, t: t, sql: q.SQL()}
	p.cols = make([]string, len(q.Select))
	p.selCol = make([]*dataset.Column, len(q.Select))
	for i, s := range q.Select {
		p.cols[i] = s.OutName()
		if s.Col == "*" {
			if s.Agg != minisql.AggCount {
				return nil, fmt.Errorf("engine: '*' is only valid inside COUNT")
			}
		} else {
			c := t.Column(s.Col)
			if c == nil {
				return nil, fmt.Errorf("engine: table %q has no column %q", t.Name, s.Col)
			}
			p.selCol[i] = c
		}
		if s.Agg != minisql.AggNone {
			p.aggCol = append(p.aggCol, p.selCol[i])
		}
	}
	p.keyCol = make([]*dataset.Column, len(q.GroupBy))
	for k, g := range q.GroupBy {
		c := t.Column(g.Col)
		if c == nil {
			return nil, fmt.Errorf("engine: table %q has no column %q", t.Name, g.Col)
		}
		p.keyCol[k] = c
	}
	for _, o := range q.OrderBy {
		j := slices.Index(p.cols, o.Col)
		if j < 0 {
			return nil, fmt.Errorf("engine: ORDER BY column %q is not in the select list", o.Col)
		}
		p.orderCol = append(p.orderCol, j)
	}
	pred, err := compilePredicate(t, q.Where)
	if err != nil {
		return nil, err
	}
	p.pred = pred
	p.conjs = splitConjuncts(q.Where)
	return p, nil
}

// splitConjuncts returns the AND legs of a predicate in written order,
// flattening nested ANDs (a non-AND predicate is one conjunct; nil means
// none). Flattening matters for generated SQL: the ZQL fetch phase emits
// WHERE z IN (...) AND (<user constraints>), and each user conjunct is then
// a leg of its own — shared across a batch, skip-tested, listed by EXPLAIN.
// AND associativity makes the flattened compile result-identical.
func splitConjuncts(e minisql.Expr) []minisql.Expr {
	if e == nil {
		return nil
	}
	if and, ok := e.(*minisql.And); ok {
		var legs []minisql.Expr
		for _, a := range and.Args {
			legs = append(legs, splitConjuncts(a)...)
		}
		return legs
	}
	return []minisql.Expr{e}
}

// Conjuncts returns the plan's top-level WHERE conjuncts in written order —
// what EXPLAIN lists.
func (p *Plan) Conjuncts() []minisql.Expr { return p.conjs }

// Table returns the base table the plan reads.
func (p *Plan) Table() *dataset.Table { return p.t }

// Query returns the logical query the plan was prepared from.
func (p *Plan) Query() *minisql.Query { return p.q }

// SQL returns the canonical SQL text of the plan's query, rendered once at
// Prepare time — it doubles as the plan's result-cache key, so it must not
// depend on anything but the query.
func (p *Plan) SQL() string { return p.sql }

// Execute runs the plan against the back-end that prepared it.
func (p *Plan) Execute() (*Result, error) {
	return p.ExecuteContext(context.Background())
}

// ExecuteContext runs the plan under a context as a batch of one, so it is
// counted, cancelled and contained as any batch is; par.Do runs a lone job
// on the calling goroutine.
func (p *Plan) ExecuteContext(ctx context.Context) (*Result, error) {
	results, err := p.db.ExecuteBatch(ctx, []*Plan{p})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// FragmentSegments is the production fragment size in segments: 128
// segments are 524 288 rows. It is the smallest power of two whose gather —
// merging each plan's fragment sinks — costs under 5 % of a task scan over
// 10 M rows at one worker: 3.4 % (64 segments cost 6.4 %; docs/ARCHITECTURE.md,
// "Fragments").
const FragmentSegments = 128

// fragmentSegments is the size the constructors cut at: FragmentSegments,
// unless a test lowered it (SetFragmentSegments).
var fragmentSegments atomic.Int64

func init() { fragmentSegments.Store(FragmentSegments) }

// SetFragmentSegments sets the fragment size of the stores built after the
// call — row, bitmap and column stores alike — and returns the size it
// replaced. It exists for tests, which need tables of a few segments cut
// into several fragments; n < 1 restores FragmentSegments.
func SetFragmentSegments(n int) int {
	if n < 1 {
		n = FragmentSegments
	}
	return int(fragmentSegments.Swap(int64(n)))
}

// rowFragments is the row and bitmap stores' table, cut as the column store
// cuts it: every size rows from row 0, the last fragment shorter; a table of
// no rows is one empty fragment.
type rowFragments struct {
	t    *dataset.Table
	size int // fixed at the store's construction
}

func newRowFragments(t *dataset.Table) rowFragments {
	return rowFragments{t, int(fragmentSegments.Load()) * SegmentSize}
}

func (r rowFragments) count() int { return max(1, (r.t.NumRows()+r.size-1)/r.size) }

// bounds returns fragment f's row range [lo, hi).
func (r rowFragments) bounds(f int) (lo, hi int) { return f * r.size, min(r.t.NumRows(), (f+1)*r.size) }

// batchScan is a store as executeFragments schedules it: its table's
// fragments (at least one), and its scan of fragment f for the plans
// plans[idx[k]], each fed into the k-th sink returned in ascending row order
// and left unfinished.
type batchScan struct {
	db             DB
	backend        string // the scan spans' backend attribute
	frags, workers int
	stats          *counters
	scan           func(ctx context.Context, plans []*Plan, f int, idx []int, sp *trace.Span) ([]*planSink, error)
	// apart says the scan shares no work between a job's plans, so each plan
	// is a share of its own and par.Do balances the plans over the workers.
	apart bool
}

// executeFragments is every store's ExecuteBatch: a scatter of scan jobs on
// par.Do with Parallelism workers, then a gather. A job is one share of the
// plans times one fragment; the plans are dealt round-robin into as few
// shares as give Parallelism jobs, never splitting a plan. The gather, a
// plan at a time on the same workers, merges each plan's fragment sinks in
// fragment order and finishes once (ordering and LIMIT apply there only):
// projection rows concatenate in row order, and
// a group's first-seen position is its position in the lowest fragment that
// saw it. A plan's sinks depend on the fragment boundaries alone — not on the
// dealing, the workers or the store — so neither is visible in any answer's
// bits. A job's panic is its error, no job is drawn after a failure, and the
// batch reports the lowest failing job's error: for a plan spanning several
// fragments, the lowest failing fragment's.
func executeFragments(ctx context.Context, plans []*Plan, b batchScan) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := checkBatch(b.db, plans); err != nil {
		return nil, err
	}
	b.stats.queries.Add(int64(len(plans)))
	n := (b.workers + b.frags - 1) / b.frags
	if b.apart {
		n = len(plans)
	}
	shares := make([][]int, min(max(n, 1), len(plans)))
	for i := range plans {
		shares[i%len(shares)] = append(shares[i%len(shares)], i)
	}
	sinks := make([]*planSink, len(plans)*b.frags) // plan i's of fragment f at i*b.frags+f
	// Job j is fragment j/len(shares) for share j%len(shares): jobs run
	// fragment by fragment.
	parent := trace.FromContext(ctx)
	err := par.Do(b.frags*len(shares), b.workers, func(_, j int) error {
		f, idx := j/len(shares), shares[j%len(shares)]
		sp := parent.StartChild("scan")
		defer sp.End()
		sp.SetStr("backend", b.backend)
		sp.SetStr("table", plans[0].t.Name)
		sp.SetInt("fragment", int64(f))
		sp.SetInt("plans", int64(len(idx)))
		js, err := b.scan(ctx, plans, f, idx, sp)
		for k, sink := range js {
			sinks[idx[k]*b.frags+f] = sink
		}
		return planError(plans[idx[0]], err)
	})
	if err != nil {
		return nil, batchError(err)
	}
	gsp := parent.StartChild("gather")
	gsp.SetInt("plans", int64(len(plans)))
	defer gsp.End()
	results := make([]*Result, len(plans))
	err = par.Do(len(plans), b.workers, func(_, i int) error {
		ps := sinks[i*b.frags : (i+1)*b.frags]
		for _, o := range ps[1:] {
			ps[0].mergeFrom(o)
		}
		results[i] = ps[0].finish()
		return nil
	})
	if err != nil {
		return nil, batchError(err)
	}
	return results, nil
}

// checkBatch validates that every plan in a batch was prepared by db.
func checkBatch(db DB, plans []*Plan) error {
	for i, p := range plans {
		if p == nil {
			return fmt.Errorf("engine: batch plan %d is nil", i)
		}
		if p.db != db {
			return fmt.Errorf("engine: batch plan %d was prepared by a different back-end", i)
		}
	}
	return nil
}

// planError annotates a failed scan's error with the SQL of its plan.
func planError(p *Plan, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("engine: batch plan %q: %w", p.SQL(), err)
}

// batchError is the error a batch whose jobs ran on par.Do reports: a
// contained panic reads as a scan panic.
func batchError(err error) error {
	if p, ok := err.(*par.Panic); ok {
		return fmt.Errorf("engine: scan panic: %v", p.Value)
	}
	return err
}
