package engine

import (
	"context"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/minisql"
	"repro/internal/trace"
)

// segmentSize is the internal alias of SegmentSize (see segsource.go).
const segmentSize = SegmentSize

// ColumnStore is a columnar vectorized executor over internal/dataset's
// native layout (dictionary codes plus raw measure slices). Each table is
// partitioned into fixed-size segments with precomputed zone maps — min/max
// per numeric column and a dictionary-code presence bitset per categorical
// column. Predicates are compiled (at Prepare time) into vecFilters that
// evaluate a whole segment into a selection bitmap, skipping segments the
// zone maps prove empty, and group-by aggregation over categorical keys runs
// through flat per-group accumulator arrays indexed by dictionary code
// instead of a hash map.
//
// ExecuteBatch mirrors the bitmap store's conjunct factoring: plans sharing
// top-level WHERE conjuncts (the repeated constraints of a ZQL request
// batch) have each shared conjunct's per-segment selection computed once per
// scan worker and intersected per plan.
type ColumnStore struct {
	parLimit
	planToggle
	tables map[string]*dataset.Table
	cols   map[string]*colTable
	stats  counters
	prov   skipProv
}

// colTable is the segmented view of one base table. src is the segment
// source the data materializes through: a no-op memSource for in-memory
// tables, a lazy reader (zpack) for disk-resident ones. Zone maps always come
// from the source's metadata, so the scan can prove segments empty without
// ever loading them. [segLo, segHi) is the
// global segment range the store scans: the whole table normally, a shard's
// owned sub-range when the source is a SegmentRanged view — row indices,
// zone maps, and dictionary codes stay globally indexed either way.
type colTable struct {
	t            *dataset.Table
	src          SegmentSource
	segLo, segHi int
	zones        map[string]*ZoneData // by column name
	loaded       []atomic.Bool        // owned segments a scan has materialized
	loads        atomic.Int64         // distinct owned segments materialized
}

// markLoaded counts the first materialization of an owned segment.
func (ct *colTable) markLoaded(seg int) {
	if i := seg - ct.segLo; i >= 0 && i < len(ct.loaded) && !ct.loaded[i].Swap(true) {
		ct.loads.Add(1)
	}
}

// newColTable builds the segmented view over a source's metadata.
func newColTable(src SegmentSource) *colTable {
	t := src.Table()
	lo, hi := 0, src.NumSegments()
	if r, ok := src.(SegmentRanged); ok {
		lo, hi = r.SegRange()
	}
	ct := &colTable{
		t:      t,
		src:    src,
		segLo:  lo,
		segHi:  hi,
		zones:  make(map[string]*ZoneData, t.NumCols()),
		loaded: make([]atomic.Bool, hi-lo),
	}
	for _, c := range t.Columns() {
		ct.zones[c.Field.Name] = src.Zone(c.Field.Name)
	}
	return ct
}

// segBounds returns the row range [lo, hi) of segment s.
func (ct *colTable) segBounds(s int) (lo, hi int) {
	lo = s * segmentSize
	hi = lo + segmentSize
	if n := ct.t.NumRows(); hi > n {
		hi = n
	}
	return lo, hi
}

// NewColumnStore builds a column store over the given in-memory base tables,
// segmenting each and precomputing its zone maps.
func NewColumnStore(tables ...*dataset.Table) *ColumnStore {
	srcs := make([]SegmentSource, len(tables))
	for i, t := range tables {
		srcs[i] = NewMemSource(t)
	}
	return NewColumnStoreFromSource(srcs...)
}

// NewColumnStoreFromSource builds a column store over segment sources whose
// column data may materialize lazily: zone maps come from the sources'
// metadata, and a segment's data is loaded only when a scan first visits it —
// a segment every plan's zone maps prove empty is never loaded at all.
func NewColumnStoreFromSource(sources ...SegmentSource) *ColumnStore {
	s := &ColumnStore{
		tables: make(map[string]*dataset.Table, len(sources)),
		cols:   make(map[string]*colTable, len(sources)),
	}
	for _, src := range sources {
		t := src.Table()
		s.tables[t.Name] = t
		s.cols[t.Name] = newColTable(src)
	}
	return s
}

// NumSegments returns the segment count the store scans for the named table
// (its owned range when the source is sharded), or 0 (the Segmented
// interface).
func (s *ColumnStore) NumSegments(table string) int {
	if ct := s.cols[table]; ct != nil {
		return ct.segHi - ct.segLo
	}
	return 0
}

// Name identifies the back-end.
func (s *ColumnStore) Name() string { return "columnstore" }

// Table returns the named base table, or nil.
func (s *ColumnStore) Table(name string) *dataset.Table { return s.tables[name] }

// Counters returns cumulative execution statistics.
func (s *ColumnStore) Counters() Counters { return s.stats.snapshot() }

// SkipProvenance returns cumulative skip counts attributed to the column and
// metadata kind (zone map / dictionary bitset) that proved each skipped
// segment empty.
func (s *ColumnStore) SkipProvenance() map[SkipAttr]int64 { return s.prov.snapshot() }

// SegmentLoads returns how many distinct segments of the named table this
// store's scans have materialized — for zpack-backed sources, segments read
// from disk unless an earlier snapshot of the file had already loaded them.
// Zone-map-skipped segments never load, so this lags SegmentsScanned's
// per-scan accounting.
func (s *ColumnStore) SegmentLoads(table string) int64 {
	if ct := s.cols[table]; ct != nil {
		return ct.loads.Load()
	}
	return 0
}

// vecPlan is the column store's per-plan compilation: the WHERE clause split
// into top-level conjuncts, each lowered to a vectorized filter and keyed by
// its canonical SQL so a batch can share evaluations across plans.
type vecPlan struct {
	ct    *colTable
	conjs []vecConjunct // empty means "all rows"
}

type vecConjunct struct {
	key  string // canonical SQL of the conjunct, the sharing key
	f    vecFilter
	attr SkipAttr     // which column/metadata a skip by this conjunct credits
	pred rowPredicate // row-at-a-time form, for masked evaluation
}

// skipCause reports whether the zone maps prove segment seg holds no row
// matching ALL conjuncts, and if so which conjunct proved it (the first
// proving conjunct wins, matching evaluation order).
func (v *vecPlan) skipCause(seg int) (SkipAttr, bool) {
	for _, c := range v.conjs {
		if c.f.skip(seg) {
			return c.attr, true
		}
	}
	return SkipAttr{}, false
}

// plannerStats builds the scoring snapshot from the table's build-time
// metadata — zone maps folded to global envelopes, integer dictionaries —
// plus the store's live skip provenance as the tie-breaking signal.
func (s *ColumnStore) plannerStats(ct *colTable) *plannerStats {
	ps := newPlannerStats(ct.t)
	ps.addZones(ct.zones)
	return ps.withProv(s.prov.snapshot())
}

// Prepare validates and column-resolves a parsed query, then attaches the
// vectorized compilation (the column store's Plan hook). With planning on,
// the conjuncts compile in the greedy planner's order, so the per-segment
// skip test and the selection-bitmap intersection both run cheapest/most-
// selective-first.
func (s *ColumnStore) Prepare(q *minisql.Query) (*Plan, error) {
	p, err := newPlan(s, s.tables[q.From], q)
	if err != nil {
		return nil, err
	}
	ct := s.cols[q.From]
	if s.planningOn() && len(p.conjs) > 1 {
		if err := p.applyPlanOrder(s.plannerStats(ct)); err != nil {
			return nil, err
		}
		s.stats.notePlanned(p.reordered)
	}
	return s.compileVecPlan(p, ct)
}

// prepareOrdered builds a plan that adopts an externally decided conjunct
// order instead of planning locally — the sharded store plans once over the
// global metadata and hands every shard the same order.
func (s *ColumnStore) prepareOrdered(q *minisql.Query, conjs []minisql.Expr, reordered bool) (*Plan, error) {
	p, err := newPlan(s, s.tables[q.From], q)
	if err != nil {
		return nil, err
	}
	if reordered {
		p.conjs, p.reordered = conjs, true
	}
	return s.compileVecPlan(p, s.cols[q.From])
}

// compileVecPlan lowers the plan's conjuncts — already in execution order —
// to vectorized filters. Each conjunct also keeps its row-at-a-time
// predicate so the scan can evaluate later conjuncts only on the rows still
// selected (masked evaluation) when the survivor set is already sparse. A
// conjunct that folds to all-true — zexec's z IN (<every slice>) — stays in
// p.conjs, which is what EXPLAIN lists, and costs the scan nothing.
func (s *ColumnStore) compileVecPlan(p *Plan, ct *colTable) (*Plan, error) {
	vp := &vecPlan{ct: ct}
	for _, c := range p.conjs {
		f, err := compileVec(ct, p.t, c)
		if err != nil {
			return nil, err
		}
		if cf, ok := f.(constFilter); ok && cf.match {
			continue
		}
		pred, err := compilePredicate(p.t, c)
		if err != nil {
			return nil, err
		}
		vp.conjs = append(vp.conjs, vecConjunct{key: c.SQL(), f: f, attr: conjAttr(c, f), pred: pred})
	}
	p.vec = vp
	return p, nil
}

// Execute runs a parsed query (Prepare + Plan.Execute, which routes through
// ExecuteBatch — the column store has no separate single-plan path).
func (s *ColumnStore) Execute(q *minisql.Query) (*Result, error) {
	p, err := s.Prepare(q)
	if err != nil {
		return nil, err
	}
	return p.Execute()
}

// ExecuteSQL parses and runs SQL text.
func (s *ColumnStore) ExecuteSQL(sql string) (*Result, error) {
	q, err := minisql.Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.Execute(q)
}

// ExecuteBatch runs the plans as one request. Plans are grouped by base
// table and dealt round-robin across at most Parallelism scan workers; each
// worker walks the table's segments once for all of its plans, evaluating
// every distinct predicate conjunct at most once per segment and skipping
// (plan, segment) pairs the zone maps prove empty.
func (s *ColumnStore) ExecuteBatch(ctx context.Context, plans []*Plan) ([]*Result, error) {
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
	sem := make(chan struct{}, s.parallelism())
	for _, grp := range groupPlansByTable(plans) {
		ct := s.cols[grp.t.Name]
		tname := grp.t.Name
		shards := shardIndices(grp.idx, s.parallelism())
		s.stats.queries.Add(int64(len(grp.idx)))
		for _, shard := range shards {
			wg.Add(1)
			sem <- struct{}{}
			go func(shard []int) {
				defer wg.Done()
				defer func() { <-sem }()
				sp := parent.StartChild("scan")
				sp.SetStr("backend", "column")
				sp.SetStr("table", tname)
				sp.SetInt("plans", int64(len(shard)))
				defer sp.End()
				sinks := make([]rowSink, len(shard))
				for k, pi := range shard {
					sinks[k] = newColSink(plans[pi])
				}
				if err := s.scanInto(ctx, ct, plans, shard, sinks, sp); err != nil {
					// A failed segment load poisons every plan in the
					// worker's share: each may have consumed partial data
					// from the scan so far.
					for _, pi := range shard {
						errs[pi] = err
					}
					return
				}
				for k, pi := range shard {
					results[pi] = sinks[k].finish()
				}
			}(shard)
		}
	}
	wg.Wait()
	if err := firstError(plans, errs); err != nil {
		return nil, err
	}
	return results, nil
}

// colEqGroup folds every shard plan whose whole predicate is one equality
// on the same categorical column into a single code-routed pass per segment
// (the columnar mirror of the row store's eqDispatch): one dictionary-code
// lookup per row feeds every interested plan's sink, and zone maps still
// skip per plan.
type colEqGroup struct {
	codes   dataset.Codes
	route   [][]rowSink   // dictionary code -> sinks that want the row
	filters []*codeFilter // one per member plan, for per-plan zone tests
	attrs   []SkipAttr    // parallel to filters, for skip attribution
}

// routeRows feeds each row of [lo, hi) to the sinks its code routes to; route
// may stop short of the dictionary's end.
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
		if c := int(codes[i]); c < len(route) {
			for _, sink := range route[c] {
				sink.add(i)
			}
		}
	}
}

// scanPartial runs every plan's scan over the store's segment range on the
// calling goroutine and returns the raw, unfinished sinks, plan-aligned —
// the scatter half of the sharded store's scatter/gather. All plans must
// read one table (the sharded store scatters per table group).
func (s *ColumnStore) scanPartial(ctx context.Context, plans []*Plan) ([]rowSink, error) {
	ct := s.cols[plans[0].t.Name]
	shard := make([]int, len(plans))
	sinks := make([]rowSink, len(plans))
	for k, p := range plans {
		shard[k] = k
		sinks[k] = newColSink(p)
	}
	s.stats.queries.Add(int64(len(plans)))
	// The sharded store put this shard's scan span in ctx (or nothing, when
	// the request is untraced) — scanInto annotates it either way.
	if err := s.scanInto(ctx, ct, plans, shard, sinks, trace.FromContext(ctx)); err != nil {
		return nil, err
	}
	return sinks, nil
}

// scanInto is one worker's shared segment walk over the table's owned range
// [segLo, segHi), feeding every plan in the shard's sink. Single-equality
// plans over one column share a code-routed pass; every other distinct
// conjunct (keyed by canonical SQL) is evaluated at most once per segment
// and intersected per plan. A segment's data is materialized through the
// table's segment source the first time any plan actually scans it —
// zone-map-skipped segments are never loaded. The first failed segment load
// is returned; sinks may then hold partial data and must be discarded. The
// context is checked once per segment: a cancelled scan stops at the next
// segment boundary and returns ctx.Err().
func (s *ColumnStore) scanInto(ctx context.Context, ct *colTable, plans []*Plan, shard []int, sinks []rowSink, sp *trace.Span) error {
	// Partition the shard: dispatchable single-equality plans fold into
	// per-column groups, everything else goes through the shared-conjunct
	// slots.
	var groups []*colEqGroup
	groupOf := make(map[*dataset.Column]*colEqGroup)
	var slotKs []int
	for k, pi := range shard {
		vp := plans[pi].vec
		if len(vp.conjs) == 1 {
			if f, ok := vp.conjs[0].f.(*codeFilter); ok && f.eq >= 0 {
				g := groupOf[f.col]
				if g == nil {
					g = &colEqGroup{codes: f.col.Codes()}
					groupOf[f.col] = g
					groups = append(groups, g)
				}
				for int(f.eq) >= len(g.route) {
					g.route = append(g.route, nil)
				}
				g.route[f.eq] = append(g.route[f.eq], sinks[k])
				g.filters = append(g.filters, f)
				g.attrs = append(g.attrs, vp.conjs[0].attr)
				continue
			}
		}
		slotKs = append(slotKs, k)
	}
	// Assign each distinct remaining conjunct one slot; plans refer to
	// slots so a shared conjunct is evaluated once per segment.
	slotOf := make(map[string]int)
	var filters []vecFilter
	var slotPreds []rowPredicate
	planSlots := make(map[int][]int, len(slotKs))
	for _, k := range slotKs {
		vp := plans[shard[k]].vec
		for _, c := range vp.conjs {
			slot, ok := slotOf[c.key]
			if !ok {
				slot = len(filters)
				slotOf[c.key] = slot
				filters = append(filters, c.f)
				slotPreds = append(slotPreds, c.pred)
			}
			planSlots[k] = append(planSlots[k], slot)
		}
	}
	slotBits := make([][]uint64, len(filters))
	for i := range slotBits {
		slotBits[i] = newSegBits()
	}
	slotDone := make([]bool, len(filters))
	acc := newSegBits()
	var scanned, skipped, segsScanned int64
	prov := make(map[SkipAttr]int64)
	var loadErr error
	segSpans := 0
	for seg := ct.segLo; seg < ct.segHi && loadErr == nil; seg++ {
		// The segment boundary is the scan's cancellation point: a deadline
		// or client disconnect stops the walk here, never mid-segment.
		if err := ctx.Err(); err != nil {
			loadErr = err
			break
		}
		lo, hi := ct.segBounds(seg)
		for i := range slotDone {
			slotDone[i] = false
		}
		// visit materializes the segment on first touch; filters and sinks
		// read the table's raw column slices, so the load must land before
		// either runs. A segment every plan skips is never visited.
		visited := false
		visit := func() bool {
			if visited {
				return true
			}
			if err := ct.src.Load(seg); err != nil {
				loadErr = err
				return false
			}
			ct.markLoaded(seg)
			visited = true
			segsScanned++
			scanned += int64(hi - lo)
			// Sampled per-segment spans: the first few scanned segments get
			// a marker child each, enough to see which part of the table a
			// slow scan actually touched without a span per segment.
			if sp != nil && segSpans < segSpanSample {
				segSpans++
				c := sp.StartChild("segment")
				c.SetInt("seg", int64(seg))
				c.SetInt("rows", int64(hi-lo))
				c.End()
			}
			return true
		}
		for _, g := range groups {
			live := false
			for gi, f := range g.filters {
				if f.skip(seg) {
					skipped++
					prov[g.attrs[gi]]++
				} else {
					live = true
				}
			}
			if !live {
				continue
			}
			if !visit() {
				break
			}
			routeRows(g.codes, lo, hi, g.route)
		}
		for _, k := range slotKs {
			if loadErr != nil {
				break
			}
			vp := plans[shard[k]].vec
			if attr, ok := vp.skipCause(seg); ok {
				skipped++
				prov[attr]++
				continue
			}
			if !visit() {
				break
			}
			sink := sinks[k]
			slots := planSlots[k]
			switch len(slots) {
			case 0:
				sink.addSel(nil, lo, hi)
				continue
			case 1:
				sink.addSel(evalSlot(filters, slotBits, slotDone, slots[0], lo, hi), lo, hi)
				continue
			}
			copy(acc, evalSlot(filters, slotBits, slotDone, slots[0], lo, hi))
			for _, slot := range slots[1:] {
				live := popCount(acc, hi-lo)
				if live == 0 {
					break // intersection already empty; later conjuncts can't revive it
				}
				// Masked evaluation: when the survivor set is sparse and the
				// conjunct's bitmap hasn't been shared yet, testing only the
				// surviving rows with the row predicate beats a full
				// vectorized pass over the segment. Result-identical — the
				// differential fuzzer pins the predicate/filter equivalence.
				if !slotDone[slot] && live <= (hi-lo)/maskedEvalDiv {
					filterBits(acc, lo, hi, slotPreds[slot])
					continue
				}
				bits := evalSlot(filters, slotBits, slotDone, slot, lo, hi)
				for w := range acc {
					acc[w] &= bits[w]
				}
			}
			sink.addSel(acc, lo, hi)
		}
	}
	s.stats.rowsScanned.Add(scanned)
	s.stats.segmentsScanned.Add(segsScanned)
	s.stats.segmentsSkipped.Add(skipped)
	s.prov.addAll(prov)
	if sp != nil {
		sp.SetInt("rows", scanned)
		sp.SetInt("segments", segsScanned)
		sp.SetInt("segmentsSkipped", skipped)
	}
	return loadErr
}

// segSpanSample is how many scanned segments per worker get a sampled
// per-segment child span.
const segSpanSample = 8

// evalSlot returns the selection bitmap of one conjunct for the current
// segment, evaluating it on first use.
func evalSlot(filters []vecFilter, slotBits [][]uint64, slotDone []bool, slot, lo, hi int) []uint64 {
	if !slotDone[slot] {
		clearBits(slotBits[slot])
		filters[slot].eval(lo, hi, slotBits[slot])
		slotDone[slot] = true
	}
	return slotBits[slot]
}

// maskedEvalDiv sets the masked-evaluation threshold: a later conjunct is
// tested row-at-a-time on the surviving rows (instead of a full vectorized
// pass) when survivors are at most 1/maskedEvalDiv of the segment.
const maskedEvalDiv = 16

// popCount returns the number of selected rows in the first n bits.
func popCount(sel []uint64, n int) int {
	words := (n + 63) / 64
	total := 0
	for w := 0; w < words; w++ {
		total += bits.OnesCount64(sel[w])
	}
	return total
}

// filterBits clears every selected bit whose row fails pred — the masked
// (row-at-a-time) evaluation of one conjunct over a sparse survivor set.
func filterBits(sel []uint64, lo, hi int, pred rowPredicate) {
	words := (hi - lo + 63) / 64
	for w := 0; w < words; w++ {
		word := sel[w]
		base := lo + w<<6
		for word != 0 {
			b := bits.TrailingZeros64(word)
			if !pred(base + b) {
				sel[w] &^= 1 << uint(b)
			}
			word &= word - 1
		}
	}
}

// maxFlatSlots bounds the combined key space (product of the group-key
// cardinalities) the flat accumulator path will allocate; beyond it the
// generic hash sink takes over.
const maxFlatSlots = 1 << 16

// newColSink picks the accumulator for a plan: the flat dictionary-code
// sink when every GROUP BY key is an unbinned dictionary-coded column,
// categorical or integer, and the combined key space is small, the generic
// hash sink otherwise.
func newColSink(p *Plan) rowSink {
	if !p.aggregates() {
		return p.newSink() // projection: nothing to accumulate
	}
	slots := 1
	card := make([]int, len(p.keyCol))
	for k, c := range p.keyCol {
		if p.q.GroupBy[k].Bin != 0 || !c.Coded() {
			return p.newSink()
		}
		card[k] = max(c.Cardinality(), 1)
		if slots > maxFlatSlots/card[k] {
			return p.newSink()
		}
		slots *= card[k]
	}
	fs := &flatSink{groupAcc: newGroupAcc(p), slots: make([]int32, slots), card: card}
	fs.most = slots
	for i := range fs.slots {
		fs.slots[i] = -1
	}
	return fs
}

// flatSink is the vectorized aggregation sink: the combined dictionary code
// of a row's group keys (p.keyCol) indexes a flat slot array instead of
// hashing a key buffer. Groups are still numbered in first-seen order, so
// results stay byte-identical to the hash sink's.
type flatSink struct {
	groupAcc
	slots []int32 // combined key code -> group number, -1 = unseen
	card  []int   // per key column, its dictionary's size
}

func (s *flatSink) add(i int) {
	slot := s.slotAt(i)
	if s.slots[slot] < 0 {
		s.slots[slot] = s.newGroup(i)
	}
	s.fold(s.slots[slot], i)
}

// slotAt computes a row's combined key code. At gather time the row's
// segment is guaranteed loaded (the shard that saw the row loaded it, and the
// scatter barrier orders that load before any merge).
func (s *flatSink) slotAt(i int) int {
	slot := 0
	for k, c := range s.p.keyCol {
		slot = slot*s.card[k] + int(c.Code(i))
	}
	return slot
}

// selScratch is addSel's working set for one segment: the selected rows,
// their slots and then groups, and one aggregate's cells.
type selScratch struct {
	rows, gids [segmentSize]int32
	vals       [segmentSize]float64
}

// selScratchPool recycles it: a batch has a sink per plan per worker, far
// more than ever run at once.
var selScratchPool = sync.Pool{New: func() any { return new(selScratch) }}

// addSel is add for a segment's selection at once, in passes over the
// selected rows: their combined key codes from the packed key columns, their
// groups — new ones numbered in row order, as add numbers them — and then the
// aggregates a column each (foldRows).
func (s *flatSink) addSel(sel []uint64, lo, hi int) {
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
	clear(gids)
	for k, c := range s.p.keyCol {
		switch pc := c.Codes(); {
		case pc.U16 != nil:
			combineCodes(pc.U16, rows, gids, int32(s.card[k]))
		case pc.U32 != nil:
			combineCodes(pc.U32, rows, gids, int32(s.card[k]))
		default:
			combineCodes(pc.U8, rows, gids, int32(s.card[k]))
		}
	}
	for j, slot := range gids {
		g := s.slots[slot]
		if g < 0 {
			g = s.newGroup(int(rows[j]))
			s.slots[slot] = g
		}
		gids[j] = g
	}
	s.foldRows(rows, gids, sc.vals[:])
}

// combineCodes appends one key column to the combined key codes of rows.
func combineCodes[W dataset.Code](codes []W, rows, slots []int32, card int32) {
	for j, i := range rows {
		slots[j] = slots[j]*card + int32(codes[i])
	}
}

// mergeFrom folds a later shard's partial accumulation into s (the order
// argument is gatherPartials'). Shard sinks share the plan's globally indexed
// code arrays, so a group's slot is the same in every shard.
func (s *flatSink) mergeFrom(other rowSink) {
	o := other.(*flatSink)
	for og, row := range o.rows {
		slot := o.slotAt(int(row))
		if s.slots[slot] < 0 {
			s.slots[slot] = s.newGroup(int(row))
		}
		s.absorb(s.slots[slot], &o.groupAcc, og)
	}
}
