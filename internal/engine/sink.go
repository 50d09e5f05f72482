package engine

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/dataset"
	"repro/internal/minisql"
)

// planSink is every store's accumulation of one plan's matching rows, fed a
// segment's selection (addSel) or a row (add) at a time, so a batch executor
// can feed many plans from one shared scan; a later fragment's sink of the
// same plan folds in (mergeFrom); the result comes out (finish). Rows are
// row numbers of the table the sink was made over: the store's table, or the
// segment a column-store scan job has read. A sink takes what it keeps of a
// row — a group's key words and representative cells, a projection's cells —
// when it meets the row, so mergeFrom and finish read no table.
//
// A group is known by its key words, the first words it keeps: the
// mixed-radix combined code when every GROUP BY key is an unbinned coded
// column and the product of their dictionaries' sizes fits the pass loop's
// int32 codes, else
// one word per key, the key's cell. A combined key space of at most
// maxDirectKeys codes finds a row's group in an array indexed by the code
// (slots); every other key, in an open-addressed table of group numbers
// whose keys are the groups' own words (table). Both number groups in
// first-seen order, so fold order and every result bit are the same.
type planSink struct {
	p      *Plan
	cells  []cellCol         // per non-aggregate select item, in select order
	keys   []cellCol         // per GROUP BY key, the cell its word is
	card   []int             // a combined key's: per key column, its dictionary's size; else nil
	nkey   int               // key words a group keeps first: 1 when combined; 0 for a projection
	words  int               // words a group keeps: its key words, then one per representative cell
	groups []groupChunk      // group g in chunk g>>groupChunkBits
	n      int               // groups, or a projection's rows
	fns    []minisql.AggFunc // per aggregate, its function
	vals   []numReader       // per aggregate, its column's cells; unused for COUNT(*)
	most   int               // bound on the groups there can be, when the sink knows one; else 0
	slots  []int32           // a direct key's: combined code -> group number, -1 = unseen
	table  []int32           // a hashed key's: group number + 1 per entry, 0 = free
	shift  uint              // 64 - log2(len(table)): a key's home entry is its hash's top bits
	key    []uint64          // scratch: the key words of the row at hand
	sum    *dataset.Column   // the raw float column foldPass sums, if the plan takes it; else nil
	empty  bool              // the lone group of an aggregate without GROUP BY over no rows
}

const (
	// maxDirectKeys bounds the combined key space a sink indexes directly
	// (256 kB of slots). A table lookup in the direct path's loops cost the
	// task series a fifth of its scan time, so the array stays where it fits.
	maxDirectKeys  = 1 << 16
	minTableBits   = 6 // a hashed sink's first table has 1<<minTableBits entries
	groupChunkBits = 8 // a chunk of accumulators holds 1<<groupChunkBits groups
	groupChunkMask = 1<<groupChunkBits - 1
)

// groupChunk is a run of up to 256 consecutive groups: each one's words,
// planSink.words per group, and its accumulators, len(planSink.vals) per
// group. A chunk is allocated at its full size and never grows, so no word or
// accumulator is ever copied however many groups follow.
type groupChunk struct {
	cells []uint64
	aggs  []aggState
}

// cellCol is a select item that is no aggregate, or a GROUP BY key: its
// cell at a row, taken from col as the sink meets the row, as 64 bits.
type cellCol struct {
	col  *dataset.Column // in the sink's table; nil when the sink meets no row
	bin  float64
	kind dataset.Kind // of the output: a binned item is a float
	dict dataset.Dictionary
	key  int // the GROUP BY key the item is, or -1: a representative
	at   int // the group's word the item is (a combined key's decodes from word 0)
}

// newCellCol returns the cell of c, a column of the plan's table, in t.
func (p *Plan) newCellCol(t *dataset.Table, c *dataset.Column, bin float64) cellCol {
	cc := cellCol{col: p.column(t, c), bin: bin, kind: c.Field.Kind, key: -1}
	switch {
	case bin > 0:
		cc.kind = dataset.KindFloat
	case c.Field.Kind == dataset.KindString:
		cc.dict = c.Dictionary()
	}
	return cc
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

// aggregates reports whether the plan groups rows rather than projecting them.
func (p *Plan) aggregates() bool { return len(p.aggCol) > 0 || len(p.q.GroupBy) > 0 }

// newSink creates a fresh accumulator for one execution of the plan over the
// rows of t (nil for a sink that meets no row). Its key layout and lookup
// depend on the plan and the plan table's dictionaries alone, so every
// fragment's sink of a plan keys its groups alike.
func (p *Plan) newSink(t *dataset.Table) *planSink {
	s := &planSink{p: p, vals: make([]numReader, len(p.aggCol))}
	space := uint64(1) // the combined key space, while every key can combine
	if p.aggregates() {
		s.card, s.nkey = make([]int, len(p.keyCol)), 1
		for k, c := range p.keyCol {
			s.keys = append(s.keys, p.newCellCol(t, c, p.q.GroupBy[k].Bin))
			if card := uint64(max(c.Cardinality(), 1)); s.card != nil && p.q.GroupBy[k].Bin == 0 && c.Coded() && space <= math.MaxInt32/card {
				s.card[k], space = int(card), space*card
			} else {
				s.card, s.nkey = nil, len(p.keyCol)
			}
		}
	}
	s.words = s.nkey
	for j, sel := range p.q.Select {
		if sel.Agg != minisql.AggNone {
			s.fns = append(s.fns, sel.Agg)
			continue
		}
		cc := p.newCellCol(t, p.selCol[j], sel.Bin)
		cc.key = slices.Index(p.q.GroupBy, minisql.GroupKey{Col: sel.Col, Bin: sel.Bin})
		switch {
		case cc.key < 0:
			cc.at = s.words
			s.words++
		case s.card == nil:
			cc.at = cc.key
		}
		s.cells = append(s.cells, cc)
	}
	for k, c := range p.aggCol {
		if c != nil && t != nil {
			s.vals[k] = newNumReader(p.column(t, c))
		}
	}
	s.key = make([]uint64, s.nkey)
	switch {
	case s.nkey == 0:
		return s
	case s.card == nil || space > maxDirectKeys:
		// A combined key past the direct array starts at the array's size.
		size := 1 << minTableBits
		if s.card != nil {
			size = maxDirectKeys
		}
		s.table, s.shift = make([]int32, size), uint(64-bits.TrailingZeros(uint(size)))
		return s
	}
	s.slots, s.most = make([]int32, space), int(space)
	for i := range s.slots {
		s.slots[i] = -1
	}
	if c := p.aggCol; len(c) == 1 && c[0] != nil && c[0].Field.Kind == dataset.KindFloat &&
		(s.fns[0] == minisql.AggSum || s.fns[0] == minisql.AggAvg) && (len(s.keys) == 1 || len(s.keys) == 2) {
		s.sum = p.column(t, c[0])
	}
	return s
}

// rowKey returns the key words of row i, in the sink's scratch.
func (s *planSink) rowKey(i int) []uint64 {
	if s.card == nil {
		for k := range s.keys {
			s.key[k] = s.keys[k].bits(i)
		}
		return s.key
	}
	w := uint64(0)
	for k := range s.keys {
		w = w*uint64(s.card[k]) + uint64(s.keys[k].col.Code(i))
	}
	s.key[0] = w
	return s.key
}

// lookup returns the group whose key words are key, or -1 and the place a
// new one takes (place). A hashed key's home entry is the top bits of its
// words mixed by Fibonacci hashing, each word's high half folded into its
// low one first so that a float's exponent and leading mantissa bits, where
// its variation is, reach them.
func (s *planSink) lookup(key []uint64) (int32, int) {
	if s.slots != nil {
		return s.slots[key[0]], int(key[0])
	}
	h := uint64(0)
	for _, w := range key {
		h = (h ^ w ^ w>>32) * 0x9e3779b97f4a7c15
	}
	mask := len(s.table) - 1
	for e := int(h >> s.shift); ; e = (e + 1) & mask {
		switch id := s.table[e]; {
		case id == 0:
			return -1, e
		case slices.Equal(s.wordsOf(int(id - 1))[:s.nkey], key):
			return id - 1, e
		}
	}
}

// place records new group g where lookup left it, doubling a table filled
// past three quarters.
func (s *planSink) place(at int, g int32) {
	if s.slots != nil {
		s.slots[at] = g
		return
	}
	s.table[at] = g + 1
	if 4*s.n <= 3*len(s.table) {
		return
	}
	s.table, s.shift = make([]int32, 2*len(s.table)), s.shift-1
	for id := range s.n {
		_, e := s.lookup(s.wordsOf(id)[:s.nkey])
		s.table[e] = int32(id + 1)
	}
}

// groupOf returns the group of row i, whose key words are key, opening it
// when the row is its first.
func (s *planSink) groupOf(key []uint64, i int) int32 {
	g, at := s.lookup(key)
	if g < 0 {
		g = s.newGroup(key, i)
		s.place(at, g)
	}
	return g
}

// add feeds one matching row index into the sink.
func (s *planSink) add(i int) {
	if s.nkey == 0 {
		s.newGroup(nil, i)
		return
	}
	s.fold(s.groupOf(s.rowKey(i), i), i)
}

// selScratch is addSel's working set for one segment: the selected rows,
// their slots and then groups, and one aggregate's cells.
type selScratch struct {
	rows, gids [segmentSize]int32
	vals       [segmentSize]float64
}

// selScratchPool recycles it: a batch has a sink per plan per job, far
// more than ever run at once.
var selScratchPool = sync.Pool{New: func() any { return new(selScratch) }}

// addSel adds the rows of [lo, hi) whose bit (row - lo) is set in sel, or
// all of them when sel is nil, in ascending order — the order every store
// produces, which keeps first-seen order and float accumulation identical
// across stores. A direct plan whose one aggregate is a SUM or AVG of a raw
// float column over one or two keys (the task series) takes one pass
// (foldPass); any other, passes: the rows, their groups (from their combined
// key codes, read from the packed key columns, when the key is one), then
// each aggregate (foldRows). Every accumulator meets its rows in add's order
// with add's arithmetic, so every result bit is add's.
func (s *planSink) addSel(sel []uint64, lo, hi int) {
	if s.sum != nil {
		kc := s.keys
		if len(kc) == 1 {
			// One key: the pass's second key is the first again with a
			// cardinality of 0, so the combined code is the first's.
			foldPassFirst(s, kc[0].col.Codes(), kc[0].col.Codes(), 0, sel, lo, hi)
		} else {
			foldPassFirst(s, kc[0].col.Codes(), kc[1].col.Codes(), s.card[1], sel, lo, hi)
		}
		return
	}
	sc := selScratchPool.Get().(*selScratch)
	defer selScratchPool.Put(sc)
	rows := sc.rows[:0]
	if sel == nil {
		for i := lo; i < hi; i++ {
			rows = append(rows, int32(i))
		}
	} else {
		for w := 0; w < (hi-lo+63)/64; w++ {
			base := int32(lo + w<<6)
			for word := sel[w]; word != 0; word &= word - 1 {
				rows = append(rows, base+int32(bits.TrailingZeros64(word)))
			}
		}
	}
	gids := sc.gids[:len(rows)]
	switch {
	case s.nkey == 0:
		for _, i := range rows {
			s.newGroup(nil, int(i))
		}
		return
	case s.card == nil:
		for j, i := range rows {
			gids[j] = s.groupOf(s.rowKey(int(i)), int(i))
		}
	default:
		clear(gids)
		for k := range s.keys {
			switch pc := s.keys[k].col.Codes(); {
			case pc.U16 != nil:
				combineCodes(pc.U16, rows, gids, int32(s.card[k]))
			case pc.U32 != nil:
				combineCodes(pc.U32, rows, gids, int32(s.card[k]))
			default:
				combineCodes(pc.U8, rows, gids, int32(s.card[k]))
			}
		}
		if s.slots == nil {
			for j, code := range gids {
				s.key[0] = uint64(code)
				gids[j] = s.groupOf(s.key, int(rows[j]))
			}
			break
		}
		for j, slot := range gids {
			g := s.slots[slot]
			if g < 0 {
				g = s.firstSeen(int(slot), int(rows[j]))
			}
			gids[j] = g
		}
	}
	s.foldRows(rows, gids, sc.vals[:])
}

// combineCodes appends one key column to the combined key codes of rows.
func combineCodes[W dataset.Code](codes []W, rows, slots []int32, card int32) {
	for j, i := range rows {
		slots[j] = slots[j]*card + int32(codes[i])
	}
}

// foldPassFirst picks the pass for the first key's code width.
func foldPassFirst(s *planSink, a, b dataset.Codes, cardB int, sel []uint64, lo, hi int) {
	switch {
	case a.U16 != nil:
		foldPassSecond(s, a.U16, b, cardB, sel, lo, hi)
	case a.U32 != nil:
		foldPassSecond(s, a.U32, b, cardB, sel, lo, hi)
	default:
		foldPassSecond(s, a.U8, b, cardB, sel, lo, hi)
	}
}

// foldPassSecond picks the pass for the second key's code width.
func foldPassSecond[A dataset.Code](s *planSink, a []A, b dataset.Codes, cardB int, sel []uint64, lo, hi int) {
	switch {
	case b.U16 != nil:
		foldPass(s, a, b.U16, cardB, sel, lo, hi)
	case b.U32 != nil:
		foldPass(s, a, b.U32, cardB, sel, lo, hi)
	default:
		foldPass(s, a, b.U8, cardB, sel, lo, hi)
	}
}

// foldPass is addSel's one pass: row i's slot is a[i]*cardB + b[i], its
// group the slot's, and its cell of s.sum goes into the group's one
// accumulator.
func foldPass[A, B dataset.Code](s *planSink, a []A, b []B, cardB int, sel []uint64, lo, hi int) {
	slots, sum := s.slots, s.sum.Floats()
	for w := 0; w < (hi-lo+63)/64; w++ {
		word := ^uint64(0) // no selection: every row
		if sel != nil {
			word = sel[w]
		} else if left := hi - lo - w<<6; left < 64 {
			word = 1<<uint(left) - 1
		}
		base := lo + w<<6
		for ; word != 0; word &= word - 1 {
			i := base + bits.TrailingZeros64(word)
			slot := int(a[i])*cardB + int(b[i])
			g := slots[slot]
			if g < 0 {
				g = s.firstSeen(slot, i)
			}
			// The one aggregate of group g: acc(g, 0), spelled out for the
			// hot loop.
			acc := &s.groups[g>>groupChunkBits].aggs[g&groupChunkMask]
			acc.v += sum[i]
			acc.count++
		}
	}
}

// firstSeen opens the group of a direct slot first met at row i. It is kept
// out of foldPass's loop: inlined there, the rare path's registers spill the
// common path's on every row.
//
//go:noinline
func (s *planSink) firstSeen(slot, i int) int32 {
	s.key[0] = uint64(slot)
	g := s.newGroup(s.key, i)
	s.slots[slot] = g
	return g
}

// newGroup appends a group first seen at row i, its accumulators empty: its
// key words, then its representative cells at row i — for a projection, row
// i's cells.
func (s *planSink) newGroup(key []uint64, i int) int32 {
	g := s.addGroup(key...)
	ch := &s.groups[len(s.groups)-1]
	for k := range s.cells {
		if s.cells[k].key < 0 {
			ch.cells = append(ch.cells, s.cells[k].bits(i))
		}
	}
	return g
}

// wordsOf returns group g's words, its key words first.
func (s *planSink) wordsOf(g int) []uint64 {
	at := (g & groupChunkMask) * s.words
	return s.groups[g>>groupChunkBits].cells[at : at+s.words]
}

// addGroup appends a group with the given words (s.words of them, or fewer
// for the caller to append) and empty accumulators. A full chunk is followed
// by a new one of 256 groups, or of as many as the sink's bound leaves: never
// presized past the groups that can still come.
func (s *planSink) addGroup(words ...uint64) int32 {
	g := s.n
	if g&groupChunkMask == 0 {
		size := 1 << groupChunkBits
		if s.most > 0 {
			size = min(size, s.most-g)
		}
		s.groups = append(s.groups, groupChunk{
			cells: make([]uint64, 0, size*s.words),
			aggs:  make([]aggState, 0, size*len(s.vals)),
		})
	}
	ch := &s.groups[len(s.groups)-1]
	ch.cells = append(ch.cells, words...)
	ch.aggs = ch.aggs[:len(ch.aggs)+len(s.vals)]
	s.n++
	return int32(g)
}

// acc returns aggregate k of group g.
func (s *planSink) acc(g int32, k int) *aggState {
	return &s.groups[g>>groupChunkBits].aggs[int(g&groupChunkMask)*len(s.vals)+k]
}

// fold adds row i to group g's accumulators.
func (s *planSink) fold(g int32, i int) {
	for k, c := range s.p.aggCol {
		if c == nil {
			s.acc(g, k).add(s.fns[k], 0) // COUNT(*): only count matters
		} else {
			s.acc(g, k).add(s.fns[k], s.vals[k].col.Float(i))
		}
	}
}

// foldRows is fold for a run of rows at once, rows[j] into group gids[j]:
// one typed loop per aggregate, over the fields that aggregate's function
// reads and nothing else. Per accumulator the cells arrive in rows' order and
// meet the arithmetic of aggState.add, so every result bit is fold's. buf is
// scratch for len(rows) cells.
func (s *planSink) foldRows(rows, gids []int32, buf []float64) {
	if len(rows) == 0 {
		return
	}
	for k, fn := range s.fns {
		if fn == minisql.AggCount {
			for _, g := range gids {
				s.acc(g, k).count++
			}
			continue
		}
		vals := s.vals[k].gather(rows, buf)
		if fn != minisql.AggSum && fn != minisql.AggAvg {
			for j, g := range gids {
				s.acc(g, k).add(fn, vals[j])
			}
			continue
		}
		for j, g := range gids {
			acc := s.acc(g, k)
			acc.v += vals[j]
			acc.count++
		}
	}
}

// mergeFrom folds a later fragment's sink of the same plan into s (the order
// argument is executeFragments' gather): a projection's rows follow s's, and
// a group s has absorbs o's accumulators, keeping its own cells — the
// globally earlier representative. Every segment shares the table's
// dictionaries, so a key's words are the same in every fragment's sink.
func (s *planSink) mergeFrom(o *planSink) {
	for og := range o.n {
		if s.nkey == 0 {
			s.addGroup(o.wordsOf(og)...)
			continue
		}
		g, at := s.lookup(o.wordsOf(og)[:s.nkey])
		if g < 0 {
			g = s.addGroup(o.wordsOf(og)...)
			s.place(at, g)
		}
		for k := range s.vals {
			s.acc(g, k).merge(s.fns[k], o.acc(int32(og), k))
		}
	}
}

// finish emits the result relation, then applies ordering and LIMIT. It is
// where all stores meet, which keeps the back-ends byte-identical: only the
// way matching rows are produced differs. It reads no table: every cell it
// emits was taken, or decoded from a key code taken, when the sink met its
// row.
func (s *planSink) finish() *Result {
	p := s.p
	// An aggregate with no GROUP BY always yields exactly one row, even over
	// an empty match set (SQL semantics).
	if len(p.aggCol) > 0 && len(p.q.GroupBy) == 0 && s.n == 0 {
		s.addGroup()
		s.empty = true
	}
	res := &Result{Cols: p.cols, Vecs: make([]Vector, len(p.q.Select)), n: s.n}
	ai, ci := 0, 0
	for j, sel := range p.q.Select {
		if sel.Agg != minisql.AggNone {
			res.Vecs[j] = s.aggVector(sel.Agg, ai)
			ai++
			continue
		}
		// A group key, or a non-grouped plain column's representative (the
		// query author asserts dependence): the cell at the group's first row.
		res.Vecs[j] = s.cellVector(ci)
		ci++
	}
	res.orderAndLimit(p.orderCol, p.q.OrderBy, p.q.Limit)
	return res
}

// cellVector emits non-aggregate item k of every group (or projected row),
// or the one NULL cell of an aggregate over no rows; a combined key's items
// are decoded from each group's key code.
func (s *planSink) cellVector(k int) Vector {
	c := &s.cells[k]
	if s.empty {
		return Vector{Kind: dataset.KindFloat, Floats: []float64{0}, null: true}
	}
	v := Vector{Kind: c.kind, Dict: c.dict}
	switch c.kind {
	case dataset.KindString:
		v.Codes = make([]int32, s.n)
	case dataset.KindInt:
		v.Ints = make([]int64, s.n)
	default:
		v.Floats = make([]float64, s.n)
	}
	div, card, ints := uint64(1), uint64(0), []int64(nil)
	if c.key >= 0 && s.card != nil {
		card, ints = uint64(s.card[c.key]), s.p.keyCol[c.key].IntDict()
		for _, n := range s.card[c.key+1:] {
			div *= uint64(n)
		}
	}
	for g := range s.n {
		b := s.groups[g>>groupChunkBits].cells[(g&groupChunkMask)*s.words+c.at]
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
func (s *planSink) aggVector(f minisql.AggFunc, ai int) Vector {
	if f == minisql.AggCount {
		v := Vector{Kind: dataset.KindInt, Ints: make([]int64, s.n)}
		for g := range v.Ints {
			v.Ints[g] = s.acc(int32(g), ai).count
		}
		return v
	}
	v := Vector{Kind: dataset.KindFloat, Floats: make([]float64, s.n)}
	for g := range v.Floats {
		switch acc := s.acc(int32(g), ai); {
		case acc.count == 0:
			v.null = true
		case f == minisql.AggAvg:
			v.Floats[g] = acc.v / float64(acc.count)
		default:
			v.Floats[g] = acc.v
		}
	}
	return v
}
