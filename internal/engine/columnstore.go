package engine

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/minisql"
	"repro/internal/par"
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
// scan job and intersected per plan.
//
// Every table is cut into fragments of FragmentSegments segments (the last
// one shorter). A fragment is the unit of scheduling and merging: a scan job
// is one fragment for a share of a table's plans, and the gather merges each
// plan's fragment sinks in fragment order. The fragment boundaries depend on
// the table alone, so every answer's bits do too — never on the worker count
// or the machine.
type ColumnStore struct {
	parLimit
	planToggle
	tables map[string]*dataset.Table
	cols   map[string]*colTable
	stats  *counters
	prov   *skipProv
	busy   atomic.Int64 // scan jobs currently running
}

// colTable is the segmented view of one base table. src is the segment
// source the data materializes through: a no-op memSource for in-memory
// tables, a lazy reader (zpack) for disk-resident ones. Zone maps always come
// from the source's metadata, so the scan can prove segments empty without
// ever loading them. frags cut [0, NumSegments()) into ascending, contiguous
// fragments.
type colTable struct {
	t      *dataset.Table
	src    SegmentSource
	zones  map[string]*ZoneData // by column name
	frags  []fragment
	loaded []atomic.Bool // per segment: materialized by a scan of this store
	loads  *atomic.Int64 // segments loaded set, plus the counts of the snapshots before (ShareCounters)
}

// fragment is the segment range [lo, hi) one scan job walks.
type fragment struct{ lo, hi int }

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
// call, and returns the size it replaced. It exists for tests, which need
// tables of a few segments cut into several fragments; n < 1 restores
// FragmentSegments.
func SetFragmentSegments(n int) int {
	if n < 1 {
		n = FragmentSegments
	}
	return int(fragmentSegments.Swap(int64(n)))
}

// newColumnStore returns an empty store; add registers its tables.
func newColumnStore() *ColumnStore {
	return &ColumnStore{
		tables: make(map[string]*dataset.Table),
		cols:   make(map[string]*colTable),
		stats:  &counters{},
		prov:   &skipProv{},
	}
}

// ShareCounters makes s count into prev's counter cells — the store-wide
// counters, the skip provenance, and each table's segment loads — so that the
// store over a new snapshot of prev's tables goes on from prev's totals, and
// what scans still running on prev add lands in them too. Call it before s
// serves.
func (s *ColumnStore) ShareCounters(prev *ColumnStore) {
	s.stats, s.prov = prev.stats, prev.prov
	for name, ct := range s.cols {
		if pt := prev.cols[name]; pt != nil {
			ct.loads = pt.loads
		}
	}
}

// add registers a source's table, cut at the given ascending interior
// segment boundaries: len(cuts)+1 fragments, fragment i covering
// [cuts[i-1], cuts[i]). Empty fragments are legal — they scan nothing and
// merge as identities. A cut out of order or outside [0, NumSegments()]
// panics.
func (s *ColumnStore) add(src SegmentSource, cuts []int) {
	t := src.Table()
	nseg := src.NumSegments()
	ct := &colTable{
		t:      t,
		src:    src,
		zones:  make(map[string]*ZoneData, t.NumCols()),
		loaded: make([]atomic.Bool, nseg),
		loads:  new(atomic.Int64),
	}
	lo := 0
	for _, c := range append(cuts[:len(cuts):len(cuts)], nseg) {
		if c < lo || c > nseg {
			panic(fmt.Sprintf("engine: fragment cut %d outside [%d, %d]", c, lo, nseg))
		}
		ct.frags = append(ct.frags, fragment{lo, c})
		lo = c
	}
	for _, c := range t.Columns() {
		ct.zones[c.Field.Name] = src.Zone(c.Field.Name)
	}
	s.tables[t.Name] = t
	s.cols[t.Name] = ct
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

func memSources(tables []*dataset.Table) []SegmentSource {
	srcs := make([]SegmentSource, len(tables))
	for i, t := range tables {
		srcs[i] = NewMemSource(t)
	}
	return srcs
}

// NewColumnStore builds a column store over the given in-memory base tables,
// segmenting each and precomputing its zone maps.
func NewColumnStore(tables ...*dataset.Table) *ColumnStore {
	return NewColumnStoreFromSource(memSources(tables)...)
}

// NewColumnStoreFromSource builds a column store over segment sources whose
// column data may materialize lazily: zone maps come from the sources'
// metadata, and a segment's data is loaded only when a scan first visits it —
// a segment every plan's zone maps prove empty is never loaded at all. Each
// table is cut into fragments of the fixed size; a zpack Reader is cut this
// way without rewriting a byte.
func NewColumnStoreFromSource(sources ...SegmentSource) *ColumnStore {
	s := newColumnStore()
	size := int(fragmentSegments.Load())
	for _, src := range sources {
		var cuts []int
		for c := size; c < src.NumSegments(); c += size {
			cuts = append(cuts, c)
		}
		s.add(src, cuts)
	}
	return s
}

// NewColumnStoreAt builds a column store over one source cut at explicit
// interior segment boundaries — len(cuts)+1 fragments, ascending within
// [0, NumSegments()], empty fragments allowed. It is how tests pin uneven
// fragments.
func NewColumnStoreAt(src SegmentSource, cuts ...int) *ColumnStore {
	s := newColumnStore()
	s.add(src, cuts)
	return s
}

// NewShardedStoreFromSource is NewColumnStoreFromSource: the shard count is
// ignored, since fragments are cut by the data. Only the benchmark module
// still calls it; the benchmark's catch-up (ROADMAP item 4) deletes it.
func NewShardedStoreFromSource(_ int, sources ...SegmentSource) *ColumnStore {
	return NewColumnStoreFromSource(sources...)
}

// NewAutoStore is NewColumnStore: the shard count is ignored, since
// fragments are cut by the data. Only the benchmark module still calls it;
// the benchmark's catch-up (ROADMAP item 4) deletes it.
func NewAutoStore(_ int, tables ...*dataset.Table) *ColumnStore {
	return NewColumnStore(tables...)
}

// Name identifies the back-end.
func (s *ColumnStore) Name() string { return "columnstore" }

// Table returns the named base table, or nil.
func (s *ColumnStore) Table(name string) *dataset.Table { return s.tables[name] }

// Counters returns cumulative execution statistics.
func (s *ColumnStore) Counters() Counters { return s.stats.snapshot() }

// Stats reports the store's counters, skip provenance and scan-pool
// saturation, and the table's segment and load totals.
func (s *ColumnStore) Stats(table string) Stats {
	st := Stats{
		Counters:       s.Counters(),
		SkipProvenance: s.prov.snapshot(),
		Pool:           &PoolStats{Busy: int(s.busy.Load()), Capacity: s.parallelism()},
	}
	if ct := s.cols[table]; ct != nil {
		st.Segments = len(ct.loaded)
		st.SegmentLoads = ct.loads.Load()
	}
	return st
}

// vecPlan is the column store's per-plan compilation: the WHERE clause split
// into top-level conjuncts, each lowered to a vectorized filter and keyed by
// its canonical SQL so a batch can share evaluations across plans, and the
// columns a scan of the plan reads.
type vecPlan struct {
	ct    *colTable
	conjs []vecConjunct // empty means "all rows"
	cols  ColumnSet     // select, group-by and WHERE columns: what Load must bring in
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
// selective-first. A plan is compiled once, against the table's global zone
// maps, whatever the store's range count.
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

// compileVecPlan lowers the plan's conjuncts — already in execution order —
// to vectorized filters. Each conjunct also keeps its row-at-a-time
// predicate so the scan can evaluate later conjuncts only on the rows still
// selected (masked evaluation) when the survivor set is already sparse. A
// conjunct that folds to all-true — zexec's z IN (<every slice>) — stays in
// p.conjs, which is what EXPLAIN lists, and costs the scan nothing.
func (s *ColumnStore) compileVecPlan(p *Plan, ct *colTable) (*Plan, error) {
	vp := &vecPlan{ct: ct, cols: NewColumnSet(p.t.NumCols())}
	names := p.q.Columns()
	for j, c := range p.t.Columns() {
		if slices.Contains(names, c.Field.Name) {
			vp.cols.Add(j)
		}
	}
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

// scanJob is one unit of a batch's scatter: a walk of one fragment for a
// share of one table's plans, yielding raw, unfinished sinks.
type scanJob struct {
	ct    *colTable
	frag  int   // index of the fragment in the table's frags
	idx   []int // plan indices
	sinks []rowSink
}

// ExecuteBatch runs the plans as one request: a scatter of scan jobs on a
// worker pool bounded by Parallelism, then a gather. Plans are grouped by
// base table, and a job is one share of a group's plans times one fragment
// of the table. A group's plans are dealt round-robin into as few shares as
// give Parallelism jobs — Parallelism shares over a one-fragment table, one
// share over a table of Parallelism fragments or more — never splitting a
// plan. Each job walks its fragment once for all of its plans, evaluating
// every distinct predicate conjunct at most once per segment and skipping
// (plan, segment) pairs the zone maps prove empty.
//
// The gather merges each plan's fragment sinks in fragment order and
// finishes once (ordering and LIMIT apply there only). What a plan's sinks
// hold depends on the fragment boundaries alone, not on how plans were dealt
// or how many workers ran, so neither is visible in any answer. Jobs run on
// par.Do: a job's panic is contained as its error, no job is drawn after a
// failure, and the batch reports the lowest failing job's error — for a plan
// spanning several fragments, the lowest failing fragment's,
// deterministically.
func (s *ColumnStore) ExecuteBatch(ctx context.Context, plans []*Plan) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := checkBatch(s, plans); err != nil {
		return nil, err
	}
	var jobs []*scanJob
	for _, grp := range groupPlansByTable(plans) {
		ct := s.cols[grp.t.Name]
		s.stats.queries.Add(int64(len(grp.idx)))
		nf := len(ct.frags)
		shares := dealIndices(grp.idx, (s.parallelism()+nf-1)/nf)
		for f := range ct.frags {
			for _, share := range shares {
				jobs = append(jobs, &scanJob{ct: ct, frag: f, idx: share})
			}
		}
	}
	parent := trace.FromContext(ctx)
	err := par.Do(len(jobs), s.parallelism(), func(_, ji int) error {
		j := jobs[ji]
		s.busy.Add(1)
		defer s.busy.Add(-1)
		sp := parent.StartChild("scan")
		defer sp.End()
		sp.SetStr("backend", "column")
		sp.SetStr("table", j.ct.t.Name)
		sp.SetInt("fragment", int64(j.frag))
		sp.SetInt("plans", int64(len(j.idx)))
		j.sinks = make([]rowSink, len(j.idx))
		for k, pi := range j.idx {
			j.sinks[k] = newColSink(plans[pi])
		}
		return planError(plans[j.idx[0]], s.scanInto(ctx, j, plans, sp))
	})
	if err != nil {
		return nil, batchError(err)
	}
	gsp := parent.StartChild("gather")
	gsp.SetInt("plans", int64(len(plans)))
	defer gsp.End()
	sinks := make([]rowSink, len(plans))
	for _, j := range jobs {
		for k, pi := range j.idx {
			if sinks[pi] == nil {
				sinks[pi] = j.sinks[k]
				continue
			}
			// Jobs are in fragment order, and fragments cover ascending row
			// ranges, so merging in job order reproduces one walk of the
			// table that restarts each accumulator's partial at every
			// fragment boundary: projection rows concatenate in row order,
			// and a group's first-seen position is its position in the
			// lowest fragment that saw it.
			sinks[pi].mergeFrom(j.sinks[k])
		}
	}
	results := make([]*Result, len(plans))
	for i, sink := range sinks {
		results[i] = sink.finish()
	}
	return results, nil
}

// scanInto is one job's shared segment walk over its fragment, feeding every
// plan of the job into its sink. Each distinct conjunct (keyed by canonical
// SQL) is evaluated at most once per segment and intersected per plan. A
// segment's data is materialized through the table's segment source the
// first time any plan actually scans it — zone-map-skipped segments are
// never loaded — and only in the columns the job's plans read. The first
// failed segment load is returned; sinks may then hold partial data and must
// be discarded. The context is checked once per segment: a cancelled scan
// stops at the next segment boundary and returns ctx.Err().
func (s *ColumnStore) scanInto(ctx context.Context, j *scanJob, plans []*Plan, sp *trace.Span) error {
	ct, f, sinks := j.ct, j.ct.frags[j.frag], j.sinks
	cols := NewColumnSet(ct.t.NumCols())
	for _, pi := range j.idx {
		cols.Or(plans[pi].vec.cols)
	}
	// Assign each distinct conjunct one slot; plans refer to slots so a
	// shared conjunct is evaluated once per segment.
	slotOf := make(map[string]int)
	var filters []vecFilter
	var slotPreds []rowPredicate
	planSlots := make([][]int, len(j.idx))
	for k, pi := range j.idx {
		for _, c := range plans[pi].vec.conjs {
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
	for seg := f.lo; seg < f.hi && loadErr == nil; seg++ {
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
		// visit materializes the job's columns of the segment on first touch;
		// filters and sinks read the table's raw column slices, so the load
		// must land before either runs. A segment every plan skips is never
		// visited.
		visited := false
		visit := func() bool {
			if visited {
				return true
			}
			if err := ct.src.Load(seg, cols); err != nil {
				loadErr = err
				return false
			}
			if !ct.loaded[seg].Swap(true) {
				ct.loads.Add(1)
			}
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
		for k, pi := range j.idx {
			if attr, ok := plans[pi].vec.skipCause(seg); ok {
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

// segSpanSample is how many scanned segments per scan job get a sampled
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
	if c := p.aggCol; len(c) == 1 && c[0] != nil && c[0].Field.Kind == dataset.KindFloat &&
		(fs.fns[0] == minisql.AggSum || fs.fns[0] == minisql.AggAvg) && (len(card) == 1 || len(card) == 2) {
		fs.sum = c[0].Floats()
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
	// sum is the raw float column of a plan grouped by one or two keys
	// whose one aggregate is its SUM or AVG, which addSel folds as it meets
	// each row; else nil.
	sum []float64
}

func (s *flatSink) add(i int) {
	slot := s.slotAt(i)
	if s.slots[slot] < 0 {
		s.slots[slot] = s.newGroup(i)
	}
	s.fold(s.slots[slot], i)
}

// slotAt computes a row's combined key code. At gather time the row's
// segment is guaranteed loaded (the job that saw the row loaded it, and the
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

// selScratchPool recycles it: a batch has a sink per plan per job, far
// more than ever run at once.
var selScratchPool = sync.Pool{New: func() any { return new(selScratch) }}

// addSel is add for a segment's selection at once. A plan whose one
// aggregate is a SUM or AVG of a raw float column, grouped by one or two
// keys — the series every task and drill-down asks for — takes one pass
// over the selected rows (foldPass). Any other goes in passes: the selected
// rows, their combined key codes from the packed key columns, their groups,
// and then the aggregates a column each (foldRows). Either way new groups
// are numbered in row order, as add numbers them, and every accumulator
// meets its cells in row order with add's arithmetic, so every result bit
// is add's.
func (s *flatSink) addSel(sel []uint64, lo, hi int) {
	if s.sum != nil {
		kc := s.p.keyCol
		if len(kc) == 1 {
			// One key: the pass's second key is the first again with a
			// cardinality of 0, so the combined code is the first's.
			foldPassFirst(s, kc[0].Codes(), kc[0].Codes(), 0, sel, lo, hi)
		} else {
			foldPassFirst(s, kc[0].Codes(), kc[1].Codes(), s.card[1], sel, lo, hi)
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

// foldPassFirst picks the pass for the first key's code width.
func foldPassFirst(s *flatSink, a, b dataset.Codes, cardB int, sel []uint64, lo, hi int) {
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
func foldPassSecond[A dataset.Code](s *flatSink, a []A, b dataset.Codes, cardB int, sel []uint64, lo, hi int) {
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
func foldPass[A, B dataset.Code](s *flatSink, a []A, b []B, cardB int, sel []uint64, lo, hi int) {
	slots, sum := s.slots, s.sum
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
			acc.sum += sum[i]
			acc.count++
		}
	}
}

// firstSeen numbers the group of a slot first met at row i. It is kept out
// of foldPass's loop: inlined there, the rare path's registers spill the
// common path's on every row.
//
//go:noinline
func (s *flatSink) firstSeen(slot, i int) int32 {
	g := s.newGroup(i)
	s.slots[slot] = g
	return g
}

// mergeFrom folds a later fragment's partial accumulation into s (the order
// argument is ExecuteBatch's gather). Every fragment's sink shares the plan's
// globally indexed code arrays, so a group's slot is the same in each.
func (s *flatSink) mergeFrom(other rowSink) {
	o := other.(*flatSink)
	for og := range o.n {
		row := o.firstRow(og)
		slot := o.slotAt(int(row))
		if s.slots[slot] < 0 {
			s.slots[slot] = s.newGroup(int(row))
		}
		s.absorb(s.slots[slot], &o.groupAcc, og)
	}
}
