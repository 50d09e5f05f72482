package engine

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/dataset"
	"repro/internal/minisql"
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
	// conjs holds the top-level WHERE conjuncts in execution order: written
	// order as parsed, or the greedy planner's order when the store reordered
	// them at Prepare time (reordered is then true). The query AST itself is
	// never reordered — p.sql must not depend on execution strategy.
	conjs     []minisql.Expr
	reordered bool
	// conjScores carries the planner's per-conjunct scores, parallel to
	// conjs. It exists purely for observability (EXPLAIN / trace attrs) and
	// never influences execution.
	conjScores []conjScore
	cols       []string          // output column names
	orderCol   []int             // per ORDER BY item, its select position
	selCol     []*dataset.Column // per select item; nil for COUNT(*)
	keyCol     []*dataset.Column // per GROUP BY key
	aggCol     []*dataset.Column // per aggregate select item, in order; nil for COUNT(*)
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

// Reordered reports whether the planner changed the plan's conjunct
// execution order away from written order.
func (p *Plan) Reordered() bool { return p.reordered }

// ConjunctInfo is one conjunct's planner audit record: its canonical SQL,
// the estimated selectivity used to order it (NaN-free; -1 when the planner
// did not score the plan), and its evaluation-cost tier.
type ConjunctInfo struct {
	SQL  string  `json:"sql"`
	Sel  float64 `json:"sel"`
	Cost int     `json:"cost"`
}

// PlanInfo is the plan's observability summary — what EXPLAIN shows.
type PlanInfo struct {
	SQL       string
	Reordered bool
	Conjuncts []ConjunctInfo // execution order
}

// Info returns the plan's observability summary. When the planner never
// scored the plan (planning off, or fewer than two conjuncts) the conjuncts
// are reported in written order with Sel = -1.
func (p *Plan) Info() PlanInfo {
	info := PlanInfo{SQL: p.sql, Reordered: p.reordered}
	for k, e := range p.conjs {
		c := ConjunctInfo{SQL: e.SQL(), Sel: -1, Cost: -1}
		if len(p.conjScores) > 0 {
			c.Sel, c.Cost = p.conjScores[k].sel, p.conjScores[k].cost
		}
		info.Conjuncts = append(info.Conjuncts, c)
	}
	return info
}

// Conjuncts returns the plan's top-level WHERE conjuncts in execution order.
func (p *Plan) Conjuncts() []minisql.Expr { return p.conjs }

// Table returns the base table the plan reads.
func (p *Plan) Table() *dataset.Table { return p.t }

// Query returns the logical query the plan was prepared from.
func (p *Plan) Query() *minisql.Query { return p.q }

// SQL returns the canonical SQL text of the plan's query, rendered once at
// Prepare time — it doubles as the plan's result-cache key, so it must not
// depend on anything but the query.
func (p *Plan) SQL() string { return p.sql }

// planRunner is the store-side single-plan entry point; both back-ends
// implement it.
type planRunner interface {
	runPlan(p *Plan) (*Result, error)
}

// Execute runs the plan against the back-end that prepared it.
func (p *Plan) Execute() (*Result, error) {
	return p.ExecuteContext(context.Background())
}

// ExecuteContext runs the plan under a context; cancellation is observed at
// the back-end's batch cancellation points.
func (p *Plan) ExecuteContext(ctx context.Context) (*Result, error) {
	if r, ok := p.db.(planRunner); ok {
		return r.runPlan(p)
	}
	results, err := p.db.ExecuteBatch(ctx, []*Plan{p})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// run drains the matching-row iterator through a fresh sink: the single-plan
// execution path of the row and bitmap stores.
func (p *Plan) run(iter rowIter) (*Result, error) {
	sink := p.newSink()
	iter(func(i int) { sink.add(i) })
	return sink.finish(), nil
}

// rowSink is the push interface both sink kinds implement: matching rows go
// in — one at a time (add), or a scanned segment's selection at once (addSel)
// — so a batch executor can feed many plans from one shared scan; a later
// shard's sink of the same plan folds in; the result relation comes out.
type rowSink interface {
	add(i int)
	// addSel adds the rows of [lo, hi) whose bit (row - lo) is set in sel,
	// or all of them when sel is nil, in ascending order.
	addSel(sel []uint64, lo, hi int)
	mergeFrom(o rowSink)
	finish() *Result
}

// numReader reads a column's cells as the float64s Column.Float returns,
// whatever the column's layout: a cell at a time (at), or the cells of a list
// of rows in one typed loop (gather).
type numReader struct {
	col    *dataset.Column
	floats []float64     // raw floats
	ints   []int64       // raw ints
	codes  dataset.Codes // Coded ints, with
	lut    []float64     // each dictionary value as a float64
}

func newNumReader(c *dataset.Column) numReader {
	r := numReader{col: c, floats: c.Floats(), ints: c.Ints()}
	if c.Field.Kind == dataset.KindInt && c.Coded() {
		r.codes, r.lut = c.Codes(), make([]float64, c.Cardinality())
		for code, v := range c.IntDict() {
			r.lut[code] = float64(v)
		}
	}
	return r
}

func (r *numReader) at(i int) float64 {
	if r.col.Field.Kind == dataset.KindFloat {
		return r.floats[i]
	}
	return r.col.Float(i)
}

// gather returns the cells at rows, in buf's storage.
func (r *numReader) gather(rows []int32, buf []float64) []float64 {
	buf = buf[:len(rows)]
	switch {
	case r.col.Field.Kind == dataset.KindFloat:
		for j, i := range rows {
			buf[j] = r.floats[i]
		}
	case r.lut != nil && r.codes.U16 != nil:
		gatherDecoded(r.codes.U16, r.lut, rows, buf)
	case r.lut != nil && r.codes.U32 != nil:
		gatherDecoded(r.codes.U32, r.lut, rows, buf)
	case r.lut != nil:
		gatherDecoded(r.codes.U8, r.lut, rows, buf)
	case r.col.Field.Kind == dataset.KindInt:
		for j, i := range rows {
			buf[j] = float64(r.ints[i])
		}
	default:
		for j, i := range rows {
			buf[j] = r.col.Float(int(i))
		}
	}
	return buf
}

func gatherDecoded[W dataset.Code](codes []W, lut []float64, rows []int32, buf []float64) {
	for j, i := range rows {
		buf[j] = lut[codes[i]]
	}
}

// groupAcc is what every sink accumulates and finish consumes: table row
// numbers, never cells — a projection's matching rows in scan order, or each
// group's first row (in first-seen order) beside a slab of its accumulators.
type groupAcc struct {
	p    *Plan
	rows []int32
	aggs []aggState        // len(p.aggCol) per group
	fns  []minisql.AggFunc // per aggregate, its function
	vals []numReader       // per aggregate, its column's cells; unused for COUNT(*)
	most int               // bound on the groups there can be, when the sink knows one; else 0
}

func newGroupAcc(p *Plan) groupAcc {
	a := groupAcc{p: p, vals: make([]numReader, len(p.aggCol))}
	for _, sel := range p.q.Select {
		if sel.Agg != minisql.AggNone {
			a.fns = append(a.fns, sel.Agg)
		}
	}
	for k, c := range p.aggCol {
		if c != nil {
			a.vals[k] = newNumReader(c)
		}
	}
	return a
}

// newGroup appends a group first seen at row i, its accumulators empty. The
// slab doubles when full, up to the sink's bound: append's 1.25x growth of a
// large slice would copy a 10 000-group slab five times over.
func (a *groupAcc) newGroup(i int) int32 {
	a.rows = append(a.rows, int32(i))
	na := len(a.vals)
	if len(a.aggs)+na > cap(a.aggs) {
		grown := 2*cap(a.aggs) + 16*na
		if a.most > 0 {
			grown = min(grown, a.most*na)
		}
		a.aggs = append(make([]aggState, 0, grown), a.aggs...)
	}
	a.aggs = a.aggs[:len(a.aggs)+na]
	return int32(len(a.rows) - 1)
}

// fold adds row i to group g's accumulators.
func (a *groupAcc) fold(g int32, i int) {
	aggs := a.aggs[int(g)*len(a.vals):]
	for k, c := range a.p.aggCol {
		if c == nil {
			aggs[k].add(0) // COUNT(*): only count matters
		} else {
			aggs[k].add(a.vals[k].at(i))
		}
	}
}

// foldRows is fold for a run of rows at once, rows[j] into group gids[j]:
// one typed loop per aggregate, over the fields that aggregate's function
// reads and nothing else. Per accumulator the cells arrive in rows' order and
// meet the arithmetic of aggState.add, so every result bit is fold's. buf is
// scratch for len(rows) cells.
func (a *groupAcc) foldRows(rows, gids []int32, buf []float64) {
	na := len(a.vals)
	if len(rows) == 0 {
		return
	}
	for k, fn := range a.fns {
		aggs := a.aggs[k:] // aggregate k of group g is aggs[g*na]
		if fn == minisql.AggCount {
			for _, g := range gids {
				aggs[int(g)*na].count++
			}
			continue
		}
		vals := a.vals[k].gather(rows, buf)
		switch fn {
		case minisql.AggSum, minisql.AggAvg:
			for j, g := range gids {
				s := &aggs[int(g)*na]
				s.sum += vals[j]
				s.count++
			}
		case minisql.AggMin:
			for j, g := range gids {
				s, v := &aggs[int(g)*na], vals[j]
				if s.count == 0 || v < s.min || (s.min != s.min && v == v) {
					s.min = v
				}
				s.count++
			}
		case minisql.AggMax:
			for j, g := range gids {
				s, v := &aggs[int(g)*na], vals[j]
				if s.count == 0 || v > s.max || (s.max != s.max && v == v) {
					s.max = v
				}
				s.count++
			}
		}
	}
}

// absorb folds group og of a later shard's accumulation into group g, which
// keeps its first row: the globally earlier representative.
func (a *groupAcc) absorb(g int32, o *groupAcc, og int) {
	na := len(a.vals)
	for k := 0; k < na; k++ {
		a.aggs[int(g)*na+k].merge(&o.aggs[og*na+k])
	}
}

// planSink is the generic sink: a projection, or an aggregation that finds a
// row's group by hashing its key bytes.
type planSink struct {
	groupAcc
	groups map[string]int32 // key bytes -> group number; nil for a projection
	keyBuf []byte
}

// aggregates reports whether the plan groups rows rather than projecting them.
func (p *Plan) aggregates() bool { return len(p.aggCol) > 0 || len(p.q.GroupBy) > 0 }

// newSink creates a fresh accumulator for one execution of the plan.
func (p *Plan) newSink() *planSink {
	s := &planSink{groupAcc: newGroupAcc(p)}
	if p.aggregates() {
		s.groups = make(map[string]int32)
		s.keyBuf = make([]byte, 0, 64)
	}
	return s
}

// add feeds one matching row index into the sink.
func (s *planSink) add(i int) {
	p := s.p
	if s.groups == nil {
		s.rows = append(s.rows, int32(i))
		return
	}
	s.keyBuf = s.keyBuf[:0]
	for k, c := range p.keyCol {
		if c.Field.Kind == dataset.KindString && p.q.GroupBy[k].Bin == 0 {
			s.keyBuf = binary.AppendVarint(s.keyBuf, int64(c.Code(i)))
		} else {
			v := c.Float(i)
			if p.q.GroupBy[k].Bin > 0 {
				v = binValue(v, p.q.GroupBy[k].Bin)
			}
			s.keyBuf = binary.LittleEndian.AppendUint64(s.keyBuf, math.Float64bits(v))
		}
		s.keyBuf = append(s.keyBuf, 0xff)
	}
	g, ok := s.groups[string(s.keyBuf)]
	if !ok {
		g = s.newGroup(i)
		s.groups[string(s.keyBuf)] = g
	}
	s.fold(g, i)
}

// addSel feeds the selected rows of a segment into the sink in ascending row
// order — the order every back-end produces, which is what keeps group
// first-seen order and float accumulation identical across stores.
func (s *planSink) addSel(sel []uint64, lo, hi int) {
	if sel == nil {
		for i := lo; i < hi; i++ {
			s.add(i)
		}
		return
	}
	for w := 0; w < (hi-lo+63)/64; w++ {
		base := lo + w<<6
		for word := sel[w]; word != 0; word &= word - 1 {
			s.add(base + bits.TrailingZeros64(word))
		}
	}
}

// mergeFrom folds a later shard's partial accumulation into s (the order
// argument is gatherPartials'); key bytes hold the shared table's global codes.
func (s *planSink) mergeFrom(other rowSink) {
	o := other.(*planSink)
	if s.groups == nil {
		s.rows = append(s.rows, o.rows...)
		return
	}
	keys := make([]string, len(o.rows))
	for key, g := range o.groups {
		keys[g] = key
	}
	for og, key := range keys {
		g, ok := s.groups[key]
		if !ok {
			g = s.newGroup(int(o.rows[og]))
			s.groups[key] = g
		}
		s.absorb(g, &o.groupAcc, og)
	}
}

// finish emits the result relation, then applies ordering and LIMIT. It is
// where all sinks meet, which keeps the back-ends byte-identical: only the way
// matching rows are produced differs. A sink only holds rows a scan fed it,
// so their segments are loaded.
func (a *groupAcc) finish() *Result {
	p, rows, aggs := a.p, a.rows, a.aggs
	// An aggregate with no GROUP BY always yields exactly one row, even
	// over an empty match set (SQL semantics).
	if len(p.aggCol) > 0 && len(p.q.GroupBy) == 0 && len(rows) == 0 {
		rows, aggs = []int32{-1}, make([]aggState, len(p.aggCol))
	}
	res := &Result{Cols: p.cols, Vecs: make([]Vector, len(p.q.Select)), n: len(rows)}
	ai := 0
	for j, sel := range p.q.Select {
		if sel.Agg != minisql.AggNone {
			res.Vecs[j] = aggVector(sel.Agg, aggs, ai, len(p.aggCol))
			ai++
			continue
		}
		// A group key, or a non-grouped plain column's representative (the
		// query author asserts dependence): the cell at the group's first row.
		res.Vecs[j] = cellVector(p.selCol[j], sel.Bin, rows)
	}
	res.orderAndLimit(p.orderCol, p.q.OrderBy, p.q.Limit)
	return res
}

// cellVector reads a non-aggregate select item at the given table rows. The
// only negative row is the lone -1 of an aggregate over no rows: a NULL cell.
func cellVector(c *dataset.Column, bin float64, rows []int32) Vector {
	v := Vector{Kind: c.Field.Kind}
	switch {
	case len(rows) == 1 && rows[0] < 0:
		return Vector{Kind: dataset.KindFloat, Floats: []float64{0}, null: true}
	case bin > 0:
		v.Kind, v.Floats = dataset.KindFloat, make([]float64, len(rows))
		for g, i := range rows {
			v.Floats[g] = binValue(c.Float(int(i)), bin)
		}
	case v.Kind == dataset.KindString:
		v.Dict, v.Codes = c, make([]int32, len(rows))
		for g, i := range rows {
			v.Codes[g] = c.Code(int(i))
		}
	case v.Kind == dataset.KindInt:
		v.Ints = make([]int64, len(rows))
		for g, i := range rows {
			v.Ints[g] = c.Int(int(i))
		}
	default:
		v.Floats = gatherRows(c.Floats(), rows)
	}
	return v
}

func gatherRows[T any](src []T, rows []int32) []T {
	out := make([]T, len(rows))
	for g, i := range rows {
		out[g] = src[i]
	}
	return out
}

// aggVector emits aggregate ai of every group (na accumulators per group):
// COUNT as ints, the others as floats — NULL over no rows (SQL semantics),
// which only the lone group of an aggregate without GROUP BY can be.
func aggVector(f minisql.AggFunc, aggs []aggState, ai, na int) Vector {
	n := len(aggs) / na
	if f == minisql.AggCount {
		v := Vector{Kind: dataset.KindInt, Ints: make([]int64, n)}
		for g := range v.Ints {
			v.Ints[g] = aggs[g*na+ai].count
		}
		return v
	}
	v := Vector{Kind: dataset.KindFloat, Floats: make([]float64, n)}
	for g := range v.Floats {
		switch a := &aggs[g*na+ai]; {
		case a.count == 0:
			v.null = true
		case f == minisql.AggSum:
			v.Floats[g] = a.sum
		case f == minisql.AggAvg:
			v.Floats[g] = a.sum / float64(a.count)
		case f == minisql.AggMin:
			v.Floats[g] = a.min
		case f == minisql.AggMax:
			v.Floats[g] = a.max
		}
	}
	return v
}

// groupPlansByTable partitions batch plan indices by base table, preserving
// first-seen order.
type planGroup struct {
	t   *dataset.Table
	idx []int
}

func groupPlansByTable(plans []*Plan) []*planGroup {
	byTable := make(map[*dataset.Table]*planGroup)
	var out []*planGroup
	for i, p := range plans {
		g, ok := byTable[p.t]
		if !ok {
			g = &planGroup{t: p.t}
			byTable[p.t] = g
			out = append(out, g)
		}
		g.idx = append(g.idx, i)
	}
	return out
}

// shardIndices deals the indices round-robin into at most par shards, so a
// batch executor can bound its concurrency while heterogeneous plans stay
// balanced.
func shardIndices(idx []int, par int) [][]int {
	if par < 1 {
		par = 1
	}
	if par > len(idx) {
		par = len(idx)
	}
	shards := make([][]int, par)
	for k, i := range idx {
		shards[k%par] = append(shards[k%par], i)
	}
	return shards
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

// firstError returns the first non-nil error, annotated with its plan's SQL.
func firstError(plans []*Plan, errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("engine: batch plan %q: %w", plans[i].SQL(), err)
		}
	}
	return nil
}
