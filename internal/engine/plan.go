package engine

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
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

// rowSink is the push interface both sink kinds implement: matching rows go
// in a segment's selection at a time (addSel; a planSink's add takes one), so
// a batch executor can feed many plans from one shared scan; a later
// fragment's sink of the same plan folds in; the result relation comes out.
// Rows are row numbers of the table the sink was made over (newSink): the
// store's table, or the segment a column-store scan job has read. A sink
// takes what it keeps of a row — a group's key code or cells, a projection's
// cells — when it meets the row, so mergeFrom and finish read no table, and
// no row number outlives its segment.
type rowSink interface {
	// addSel adds the rows of [lo, hi) whose bit (row - lo) is set in sel,
	// or all of them when sel is nil, in ascending order.
	addSel(sel []uint64, lo, hi int)
	mergeFrom(o rowSink)
	finish() *Result
}

// numReader reads the cells of a list of rows of a column as the float64s
// Column.Float returns, whatever the column's layout, in one typed loop
// (gather). It reads the column's arrays at each call, so it follows a scan
// job's segment as the job refills it.
type numReader struct {
	col *dataset.Column
	lut []float64 // a Coded int column: each dictionary value as a float64
}

func newNumReader(c *dataset.Column) numReader {
	r := numReader{col: c}
	if c.Field.Kind == dataset.KindInt && c.Coded() {
		r.lut = make([]float64, c.Cardinality())
		for code, v := range c.IntDict() {
			r.lut[code] = float64(v)
		}
	}
	return r
}

// gather returns the cells at rows, in buf's storage.
func (r *numReader) gather(rows []int32, buf []float64) []float64 {
	buf = buf[:len(rows)]
	switch codes := r.col.Codes(); {
	case r.col.Field.Kind == dataset.KindFloat:
		floats := r.col.Floats()
		for j, i := range rows {
			buf[j] = floats[i]
		}
	case r.lut != nil && codes.U16 != nil:
		gatherDecoded(codes.U16, r.lut, rows, buf)
	case r.lut != nil && codes.U32 != nil:
		gatherDecoded(codes.U32, r.lut, rows, buf)
	case r.lut != nil:
		gatherDecoded(codes.U8, r.lut, rows, buf)
	case r.col.Field.Kind == dataset.KindInt:
		ints := r.col.Ints()
		for j, i := range rows {
			buf[j] = float64(ints[i])
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

// groupChunk is a run of up to 256 consecutive groups: each one's words,
// groupAcc.words per group, and its accumulators, len(groupAcc.vals) per
// group. A chunk is allocated at its full size and never grows, so no word or
// accumulator is ever copied however many groups follow.
type groupChunk struct {
	cells []uint64
	aggs  []aggState
}

// cellCol is one select item that is no aggregate: its cell at a group's
// first row (the group's key, or its representative), or at a projection's
// row, is taken from col as the sink meets the row, as 64 bits (bits).
type cellCol struct {
	col  *dataset.Column // in the sink's table; nil when the sink meets no row
	bin  float64
	kind dataset.Kind // of the output: a binned item is a float
	dict dataset.Dictionary
	key  int // the GROUP BY key the item is, or -1: a representative
}

// bits returns the item's cell at row i: a dictionary code, an int, or a
// float's bits.
func (c *cellCol) bits(i int) uint64 {
	switch {
	case c.bin > 0:
		return math.Float64bits(binValue(c.col.Float(i), c.bin))
	case c.kind == dataset.KindString:
		return uint64(uint32(c.col.Code(i)))
	case c.kind == dataset.KindInt:
		return uint64(c.col.Int(i))
	}
	return math.Float64bits(c.col.Floats()[i])
}

// groupAcc is what every sink accumulates and finish consumes: each group's
// words in first-seen order — a flatSink's combined key code, or the cells of
// the plan's non-aggregate items (a projection's for every matching row, a
// group of no accumulators per row) — beside each group's accumulators.
type groupAcc struct {
	p      *Plan
	cells  []cellCol         // per non-aggregate select item, in select order
	words  int               // words a group keeps: len(cells), or a flatSink's 1
	groups []groupChunk      // group g in chunk g>>groupChunkBits
	n      int               // groups, or a projection's rows
	fns    []minisql.AggFunc // per aggregate, its function
	vals   []numReader       // per aggregate, its column's cells; unused for COUNT(*)
	most   int               // bound on the groups there can be, when the sink knows one; else 0
	card   []int             // a flatSink's: per key column, its dictionary's size
	// empty: the lone group of an aggregate without GROUP BY over no rows,
	// whose non-aggregate cells are the one NULL.
	empty bool
}

// column returns the column of t that c, a column of the plan's table, is;
// nil when t is nil.
func (p *Plan) column(t *dataset.Table, c *dataset.Column) *dataset.Column {
	if t == p.t || c == nil {
		return c
	}
	if t == nil {
		return nil
	}
	return t.Column(c.Field.Name)
}

// newGroupAcc returns the empty accumulation of p over the rows of t (nil for
// a sink that meets no row).
func newGroupAcc(p *Plan, t *dataset.Table) groupAcc {
	a := groupAcc{p: p, vals: make([]numReader, len(p.aggCol))}
	for j, sel := range p.q.Select {
		if sel.Agg != minisql.AggNone {
			a.fns = append(a.fns, sel.Agg)
			continue
		}
		c := p.selCol[j]
		cc := cellCol{col: p.column(t, c), bin: sel.Bin, kind: c.Field.Kind,
			key: slices.Index(p.q.GroupBy, minisql.GroupKey{Col: sel.Col, Bin: sel.Bin})}
		switch {
		case sel.Bin > 0:
			cc.kind = dataset.KindFloat
		case c.Field.Kind == dataset.KindString:
			cc.dict = c.Dictionary()
		}
		a.cells = append(a.cells, cc)
	}
	a.words = len(a.cells)
	if t != nil {
		for k, c := range p.aggCol {
			if c != nil {
				a.vals[k] = newNumReader(p.column(t, c))
			}
		}
	}
	return a
}

// newGroup appends a group first seen at row i, its accumulators empty: for
// a projection, row i itself.
func (a *groupAcc) newGroup(i int) int32 {
	g := a.addGroup()
	ch := &a.groups[len(a.groups)-1]
	for k := range a.cells {
		ch.cells = append(ch.cells, a.cells[k].bits(i))
	}
	return g
}

// newGroupFrom appends group og of a later fragment's accumulation, its
// accumulators empty: the group's first row lies in that fragment.
func (a *groupAcc) newGroupFrom(o *groupAcc, og int) int32 {
	at := (og & groupChunkMask) * a.words
	return a.addGroup(o.groups[og>>groupChunkBits].cells[at : at+a.words]...)
}

// addGroup appends a group with the given words (a.words of them, or none
// for the caller to append) and empty accumulators. A full chunk is followed
// by a new one of 256 groups, or of as many as the sink's bound leaves: never
// presized past the groups that can still come.
func (a *groupAcc) addGroup(words ...uint64) int32 {
	g := a.n
	if g&groupChunkMask == 0 {
		size := 1 << groupChunkBits
		if a.most > 0 {
			size = min(size, a.most-g)
		}
		a.groups = append(a.groups, groupChunk{
			cells: make([]uint64, 0, size*a.words),
			aggs:  make([]aggState, 0, size*len(a.vals)),
		})
	}
	ch := &a.groups[len(a.groups)-1]
	ch.cells = append(ch.cells, words...)
	ch.aggs = ch.aggs[:len(ch.aggs)+len(a.vals)]
	a.n++
	return int32(g)
}

// acc returns aggregate k of group g.
func (a *groupAcc) acc(g int32, k int) *aggState {
	return &a.groups[g>>groupChunkBits].aggs[int(g&groupChunkMask)*len(a.vals)+k]
}

// fold adds row i to group g's accumulators.
func (a *groupAcc) fold(g int32, i int) {
	for k, c := range a.p.aggCol {
		if c == nil {
			a.acc(g, k).add(a.fns[k], 0) // COUNT(*): only count matters
		} else {
			a.acc(g, k).add(a.fns[k], a.vals[k].col.Float(i))
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
		if fn != minisql.AggSum && fn != minisql.AggAvg {
			for j, g := range gids {
				a.acc(g, k).add(fn, vals[j])
			}
			continue
		}
		for j, g := range gids {
			s := a.acc(g, k)
			s.v += vals[j]
			s.count++
		}
	}
}

// absorb folds group og of a later fragment's accumulation into group g,
// which keeps its cells: the globally earlier representative.
func (a *groupAcc) absorb(g int32, o *groupAcc, og int) {
	for k := range a.vals {
		a.acc(g, k).merge(a.fns[k], o.acc(int32(og), k))
	}
}

// planSink is the generic sink: a projection, or an aggregation that finds a
// row's group by hashing its key bytes.
type planSink struct {
	groupAcc
	keys   []*dataset.Column // per GROUP BY key, its column in the sink's table
	byKey  map[string]int32  // key bytes -> group number; nil for a projection
	keyBuf []byte
}

// aggregates reports whether the plan groups rows rather than projecting them.
func (p *Plan) aggregates() bool { return len(p.aggCol) > 0 || len(p.q.GroupBy) > 0 }

// newSink creates a fresh accumulator for one execution of the plan over the
// rows of t (nil for a sink that meets no row).
func (p *Plan) newSink(t *dataset.Table) *planSink {
	s := &planSink{groupAcc: newGroupAcc(p, t)}
	if p.aggregates() {
		s.byKey = make(map[string]int32)
		s.keyBuf = make([]byte, 0, 64)
		s.keys = make([]*dataset.Column, len(p.keyCol))
		for k, c := range p.keyCol {
			s.keys[k] = p.column(t, c)
		}
	}
	return s
}

// add feeds one matching row index into the sink.
func (s *planSink) add(i int) {
	p := s.p
	if s.byKey == nil {
		s.newGroup(i)
		return
	}
	s.keyBuf = s.keyBuf[:0]
	for k, c := range s.keys {
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
// argument is executeFragments' gather); key bytes hold the table's global
// codes, which every segment of it shares.
func (s *planSink) mergeFrom(other rowSink) {
	o := other.(*planSink)
	if s.byKey == nil {
		for r := range o.n {
			s.newGroupFrom(&o.groupAcc, r)
		}
		return
	}
	keys := make([]string, o.n)
	for key, g := range o.byKey {
		keys[g] = key
	}
	for og, key := range keys {
		g, ok := s.byKey[key]
		if !ok {
			g = s.newGroupFrom(&o.groupAcc, og)
			s.byKey[key] = g
		}
		s.absorb(g, &o.groupAcc, og)
	}
}

// finish emits the result relation, then applies ordering and LIMIT. It is
// where all sinks meet, which keeps the back-ends byte-identical: only the way
// matching rows are produced differs. It reads no table: every cell it emits
// was taken, or decoded from a key code taken, when the sink met its row.
func (a *groupAcc) finish() *Result {
	p := a.p
	// An aggregate with no GROUP BY always yields exactly one row, even over
	// an empty match set (SQL semantics).
	if len(p.aggCol) > 0 && len(p.q.GroupBy) == 0 && a.n == 0 {
		a.addGroup()
		a.empty = true
	}
	res := &Result{Cols: p.cols, Vecs: make([]Vector, len(p.q.Select)), n: a.n}
	ai, ci := 0, 0
	for j, sel := range p.q.Select {
		if sel.Agg != minisql.AggNone {
			res.Vecs[j] = a.aggVector(sel.Agg, ai)
			ai++
			continue
		}
		// A group key, or a non-grouped plain column's representative (the
		// query author asserts dependence): the cell at the group's first row.
		res.Vecs[j] = a.cellVector(ci)
		ci++
	}
	res.orderAndLimit(p.orderCol, p.q.OrderBy, p.q.Limit)
	return res
}

// cellVector emits non-aggregate item k of every group (or projected row),
// or the one NULL cell of an aggregate over no rows; a flatSink's keys are
// decoded from each group's combined code.
func (a *groupAcc) cellVector(k int) Vector {
	c := &a.cells[k]
	if a.empty {
		return Vector{Kind: dataset.KindFloat, Floats: []float64{0}, null: true}
	}
	v := Vector{Kind: c.kind, Dict: c.dict}
	switch c.kind {
	case dataset.KindString:
		v.Codes = make([]int32, a.n)
	case dataset.KindInt:
		v.Ints = make([]int64, a.n)
	default:
		v.Floats = make([]float64, a.n)
	}
	at, div, card, ints := k, uint64(1), uint64(0), []int64(nil)
	if a.card != nil {
		at, card, ints = 0, uint64(a.card[c.key]), a.p.keyCol[c.key].IntDict()
		for _, n := range a.card[c.key+1:] {
			div *= uint64(n)
		}
	}
	for g := range a.n {
		b := a.groups[g>>groupChunkBits].cells[(g&groupChunkMask)*a.words+at]
		if card > 0 {
			if b = b / div % card; ints != nil {
				b = uint64(ints[b])
			}
		}
		switch c.kind {
		case dataset.KindString:
			v.Codes[g] = int32(uint32(b))
		case dataset.KindInt:
			v.Ints[g] = int64(b)
		default:
			v.Floats[g] = math.Float64frombits(b)
		}
	}
	return v
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
		case f == minisql.AggAvg:
			v.Floats[g] = s.v / float64(s.count)
		default:
			v.Floats[g] = s.v
		}
	}
	return v
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
	scan           func(ctx context.Context, plans []*Plan, f int, idx []int, sp *trace.Span) ([]rowSink, error)
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
	sinks := make([]rowSink, len(plans)*b.frags) // plan i's of fragment f at i*b.frags+f
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
