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
	"repro/internal/par"
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

// rowSink is the push interface both sink kinds implement: matching rows go
// in — one at a time (add), or a scanned segment's selection at once (addSel)
// — so a batch executor can feed many plans from one shared scan; a later
// fragment's sink of the same plan folds in; the result relation comes out.
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

// groupChunkBits sets the groups one chunk of accumulators holds:
// 1<<groupChunkBits.
const (
	groupChunkBits = 8
	groupChunkMask = 1<<groupChunkBits - 1
)

// groupChunk is a run of up to 256 consecutive groups: each one's first
// table row, and its accumulators, len(groupAcc.vals) per group. A chunk is
// allocated at its full size and never grows, so no accumulator is ever
// copied however many groups follow.
type groupChunk struct {
	rows []int32
	aggs []aggState
}

// groupAcc is what every sink accumulates and finish consumes: table row
// numbers, never cells — a projection's matching rows in scan order, or each
// group's first row (in first-seen order) beside its accumulators.
type groupAcc struct {
	p      *Plan
	rows   []int32           // a projection's matching rows
	groups []groupChunk      // an aggregation's groups, group g in chunk g>>groupChunkBits
	n      int               // groups
	fns    []minisql.AggFunc // per aggregate, its function
	vals   []numReader       // per aggregate, its column's cells; unused for COUNT(*)
	most   int               // bound on the groups there can be, when the sink knows one; else 0
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

// newGroup appends a group first seen at row i, its accumulators empty. A
// full chunk is followed by a new one of 256 groups, or of as many as the
// sink's bound leaves: never presized past the groups that can still come.
func (a *groupAcc) newGroup(i int) int32 {
	g := a.n
	if g&groupChunkMask == 0 {
		size := 1 << groupChunkBits
		if a.most > 0 {
			size = min(size, a.most-g)
		}
		a.groups = append(a.groups, groupChunk{
			rows: make([]int32, 0, size),
			aggs: make([]aggState, 0, size*len(a.vals)),
		})
	}
	ch := &a.groups[len(a.groups)-1]
	ch.rows = append(ch.rows, int32(i))
	ch.aggs = ch.aggs[:len(ch.aggs)+len(a.vals)]
	a.n++
	return int32(g)
}

// acc returns aggregate k of group g.
func (a *groupAcc) acc(g int32, k int) *aggState {
	return &a.groups[g>>groupChunkBits].aggs[int(g&groupChunkMask)*len(a.vals)+k]
}

// firstRow returns the table row group g was first seen at.
func (a *groupAcc) firstRow(g int) int32 {
	return a.groups[g>>groupChunkBits].rows[g&groupChunkMask]
}

// fold adds row i to group g's accumulators.
func (a *groupAcc) fold(g int32, i int) {
	for k, c := range a.p.aggCol {
		if c == nil {
			a.acc(g, k).add(0) // COUNT(*): only count matters
		} else {
			a.acc(g, k).add(a.vals[k].at(i))
		}
	}
}

// foldRows is fold for a run of rows at once, rows[j] into group gids[j]:
// one typed loop per aggregate, over the fields that aggregate's function
// reads and nothing else. Per accumulator the cells arrive in rows' order and
// meet the arithmetic of aggState.add, so every result bit is fold's. buf is
// scratch for len(rows) cells.
func (a *groupAcc) foldRows(rows, gids []int32, buf []float64) {
	if len(rows) == 0 {
		return
	}
	for k, fn := range a.fns {
		if fn == minisql.AggCount {
			for _, g := range gids {
				a.acc(g, k).count++
			}
			continue
		}
		vals := a.vals[k].gather(rows, buf)
		switch fn {
		case minisql.AggSum, minisql.AggAvg:
			for j, g := range gids {
				s := a.acc(g, k)
				s.sum += vals[j]
				s.count++
			}
		case minisql.AggMin:
			for j, g := range gids {
				s, v := a.acc(g, k), vals[j]
				if s.count == 0 || v < s.min || (s.min != s.min && v == v) {
					s.min = v
				}
				s.count++
			}
		case minisql.AggMax:
			for j, g := range gids {
				s, v := a.acc(g, k), vals[j]
				if s.count == 0 || v > s.max || (s.max != s.max && v == v) {
					s.max = v
				}
				s.count++
			}
		}
	}
}

// absorb folds group og of a later fragment's accumulation into group g,
// which keeps its first row: the globally earlier representative.
func (a *groupAcc) absorb(g int32, o *groupAcc, og int) {
	for k := range a.vals {
		a.acc(g, k).merge(o.acc(int32(og), k))
	}
}

// planSink is the generic sink: a projection, or an aggregation that finds a
// row's group by hashing its key bytes.
type planSink struct {
	groupAcc
	byKey  map[string]int32 // key bytes -> group number; nil for a projection
	keyBuf []byte
}

// aggregates reports whether the plan groups rows rather than projecting them.
func (p *Plan) aggregates() bool { return len(p.aggCol) > 0 || len(p.q.GroupBy) > 0 }

// newSink creates a fresh accumulator for one execution of the plan.
func (p *Plan) newSink() *planSink {
	s := &planSink{groupAcc: newGroupAcc(p)}
	if p.aggregates() {
		s.byKey = make(map[string]int32)
		s.keyBuf = make([]byte, 0, 64)
	}
	return s
}

// add feeds one matching row index into the sink.
func (s *planSink) add(i int) {
	p := s.p
	if s.byKey == nil {
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
	g, ok := s.byKey[string(s.keyBuf)]
	if !ok {
		g = s.newGroup(i)
		s.byKey[string(s.keyBuf)] = g
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

// mergeFrom folds a later fragment's partial accumulation into s (the order
// argument is ExecuteBatch's gather); key bytes hold the shared table's global
// codes.
func (s *planSink) mergeFrom(other rowSink) {
	o := other.(*planSink)
	if s.byKey == nil {
		s.rows = append(s.rows, o.rows...)
		return
	}
	keys := make([]string, o.n)
	for key, g := range o.byKey {
		keys[g] = key
	}
	for og, key := range keys {
		g, ok := s.byKey[key]
		if !ok {
			g = s.newGroup(int(o.firstRow(og)))
			s.byKey[key] = g
		}
		s.absorb(g, &o.groupAcc, og)
	}
}

// finish emits the result relation, then applies ordering and LIMIT. It is
// where all sinks meet, which keeps the back-ends byte-identical: only the way
// matching rows are produced differs. A sink only holds rows a scan fed it,
// so their segments are loaded.
func (a *groupAcc) finish() *Result {
	p, rows := a.p, a.rows
	if p.aggregates() {
		// An aggregate with no GROUP BY always yields exactly one row, even
		// over an empty match set (SQL semantics).
		if len(p.aggCol) > 0 && len(p.q.GroupBy) == 0 && a.n == 0 {
			a.newGroup(-1)
		}
		rows = make([]int32, 0, a.n)
		for _, ch := range a.groups {
			rows = append(rows, ch.rows...)
		}
	}
	res := &Result{Cols: p.cols, Vecs: make([]Vector, len(p.q.Select)), n: len(rows)}
	ai := 0
	for j, sel := range p.q.Select {
		if sel.Agg != minisql.AggNone {
			res.Vecs[j] = a.aggVector(sel.Agg, ai)
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
		v.Dict, v.Codes = c.Dictionary(), make([]int32, len(rows))
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

// aggVector emits aggregate ai of every group: COUNT as ints, the others as
// floats — NULL over no rows (SQL semantics), which only the lone group of an
// aggregate without GROUP BY can be.
func (a *groupAcc) aggVector(f minisql.AggFunc, ai int) Vector {
	if f == minisql.AggCount {
		v := Vector{Kind: dataset.KindInt, Ints: make([]int64, a.n)}
		for g := range v.Ints {
			v.Ints[g] = a.acc(int32(g), ai).count
		}
		return v
	}
	v := Vector{Kind: dataset.KindFloat, Floats: make([]float64, a.n)}
	for g := range v.Floats {
		switch s := a.acc(int32(g), ai); {
		case s.count == 0:
			v.null = true
		case f == minisql.AggSum:
			v.Floats[g] = s.sum
		case f == minisql.AggAvg:
			v.Floats[g] = s.sum / float64(s.count)
		case f == minisql.AggMin:
			v.Floats[g] = s.min
		case f == minisql.AggMax:
			v.Floats[g] = s.max
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

// dealIndices deals the indices round-robin into at most par shares, so a
// batch executor can bound its concurrency while heterogeneous plans stay
// balanced.
func dealIndices(idx []int, par int) [][]int {
	if par < 1 {
		par = 1
	}
	if par > len(idx) {
		par = len(idx)
	}
	shares := make([][]int, par)
	for k, i := range idx {
		shares[k%par] = append(shares[k%par], i)
	}
	return shares
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
// contained panic reads as a shard panic.
func batchError(err error) error {
	if p, ok := err.(*par.Panic); ok {
		return fmt.Errorf("engine: shard panic: %v", p.Value)
	}
	return err
}
