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
	"repro/internal/trace"
)

// segmentSize is the internal alias of SegmentSize (see segsource.go).
const segmentSize = SegmentSize

// ColumnStore is a columnar vectorized executor over one table in
// internal/dataset's native layout (dictionary codes plus raw measure
// slices). The table is partitioned into fixed-size segments with
// precomputed zone maps — min/max per numeric column and a dictionary-code
// presence bitset per categorical column. Predicates are compiled (at
// Prepare time) into vecFilters that evaluate a whole segment into a
// selection bitmap, skipping segments the zone maps prove empty, and the
// aggregation sink (planSink) folds each segment's selection at once.
//
// ExecuteBatch mirrors the bitmap store's conjunct factoring: plans sharing
// top-level WHERE conjuncts (the repeated constraints of a ZQL request
// batch) have each shared conjunct's per-segment selection computed once per
// scan job and intersected per plan.
//
// The table is cut into fragments of FragmentSegments segments (the last
// one shorter), the row and bitmap stores' fragments too. A fragment is the
// unit of scheduling and merging (executeFragments): a scan job is one
// fragment for a share of the batch's plans, and the gather merges each
// plan's fragment sinks in fragment order. The fragment boundaries depend on
// the table alone, so every answer's bits do too — never on the worker count,
// the machine or the store.
//
// src is the segment source a scan job reads each segment it visits
// through, into a scratch segment the job owns: a view of the table for an
// in-memory one (memSource), the segment's blocks read from the file for a
// zpack Reader. Zone maps always come from the source's metadata, so the
// scan can prove segments empty without ever reading them, and no segment
// outlives the job that read it.
type ColumnStore struct {
	parLimit
	t     *dataset.Table
	src   SegmentSource
	zones map[string]*ZoneData // by column name
	frags []fragment           // ascending, contiguous, covering [0, NumSegments())
	nseg  int
	stats *counters
	prov  *skipProv
	busy  atomic.Int64 // scan jobs currently running
	// scratch recycles the jobs' scratch segments (Load's), at most one per
	// job running.
	scratch sync.Pool
}

// fragment is the segment range [lo, hi) one scan job walks.
type fragment struct{ lo, hi int }

// ShareCounters makes s count into prev's counter cells — the store-wide
// counters and the skip provenance — so that the store over a new snapshot
// of prev's table goes on from prev's totals, and what scans still running
// on prev add lands in them too. Call it before s serves.
func (s *ColumnStore) ShareCounters(prev *ColumnStore) {
	s.stats, s.prov = prev.stats, prev.prov
}

// segBounds returns the row range [lo, hi) of segment seg.
func (s *ColumnStore) segBounds(seg int) (lo, hi int) {
	lo = seg * segmentSize
	return lo, min(lo+segmentSize, s.t.NumRows())
}

// NewColumnStore builds a column store over an in-memory base table,
// segmenting it and precomputing its zone maps.
func NewColumnStore(t *dataset.Table) *ColumnStore {
	return NewColumnStoreFromSource(NewMemSource(t))
}

// NewColumnStoreFromSource builds a column store over a segment source whose
// column data may live elsewhere: zone maps come from the source's metadata,
// and a segment's data is read each time a scan visits it — a segment every
// plan's zone maps prove empty is never read at all. The table is cut into
// fragments of the fixed size; a zpack Reader is cut this way without
// rewriting a byte.
func NewColumnStoreFromSource(src SegmentSource) *ColumnStore {
	size := int(fragmentSegments.Load())
	var cuts []int
	for c := size; c < src.NumSegments(); c += size {
		cuts = append(cuts, c)
	}
	return NewColumnStoreAt(src, cuts...)
}

// NewColumnStoreAt builds a column store over a source cut at explicit
// interior segment boundaries: len(cuts)+1 fragments, fragment i covering
// [cuts[i-1], cuts[i]). Empty fragments are legal — they scan nothing and
// merge as identities. A cut out of order or outside [0, NumSegments()]
// panics. It is how tests pin uneven fragments.
func NewColumnStoreAt(src SegmentSource, cuts ...int) *ColumnStore {
	t := src.Table()
	nseg := src.NumSegments()
	s := &ColumnStore{
		t:     t,
		src:   src,
		zones: make(map[string]*ZoneData, t.NumCols()),
		nseg:  nseg,
		stats: &counters{},
		prov:  &skipProv{},
	}
	lo := 0
	for _, c := range append(cuts[:len(cuts):len(cuts)], nseg) {
		if c < lo || c > nseg {
			panic(fmt.Sprintf("engine: fragment cut %d outside [%d, %d]", c, lo, nseg))
		}
		s.frags = append(s.frags, fragment{lo, c})
		lo = c
	}
	for _, c := range t.Columns() {
		s.zones[c.Field.Name] = src.Zone(c.Field.Name)
	}
	return s
}

// NewShardedStoreFromSource is NewColumnStoreFromSource: the shard count is
// ignored, since fragments are cut by the data. Only the benchmark module
// still calls it; the benchmark's catch-up (ROADMAP item 4) deletes it.
func NewShardedStoreFromSource(_ int, src SegmentSource) *ColumnStore {
	return NewColumnStoreFromSource(src)
}

// NewAutoStore is NewColumnStore: the shard count is ignored, since
// fragments are cut by the data. Only the benchmark module still calls it;
// the benchmark's catch-up (ROADMAP item 4) deletes it.
func NewAutoStore(_ int, t *dataset.Table) *ColumnStore {
	return NewColumnStore(t)
}

// Name identifies the back-end.
func (s *ColumnStore) Name() string { return "columnstore" }

// Table returns the store's table if it is the named one, or nil.
func (s *ColumnStore) Table(name string) *dataset.Table { return tableNamed(s.t, name) }

// Counters returns cumulative execution statistics.
func (s *ColumnStore) Counters() Counters { return s.stats.snapshot() }

// Stats reports the store's counters, segment total, skip provenance and
// scan-pool saturation.
func (s *ColumnStore) Stats() Stats {
	return Stats{
		Counters:       s.Counters(),
		Segments:       s.nseg,
		SkipProvenance: s.prov.snapshot(),
		Pool:           &PoolStats{Busy: int(s.busy.Load()), Capacity: s.parallelism()},
	}
}

// vecPlan is the column store's per-plan compilation: the WHERE clause split
// into top-level conjuncts, each lowered to a vectorized filter over the
// plan's table for its zone test and keyed by its canonical SQL so a batch
// can share evaluations across plans, and the columns a scan of the plan
// reads.
type vecPlan struct {
	conjs []vecConjunct // empty means "all rows"
	cols  ColumnSet     // select, group-by and WHERE columns: what Load must read
}

type vecConjunct struct {
	key  string // canonical SQL of the conjunct, the sharing key
	expr minisql.Expr
	f    vecFilter // over the plan's table: its zone test (skip) only
	attr SkipAttr  // which column/metadata a skip by this conjunct credits
}

// skipCause reports whether the zone maps prove segment seg holds no row
// matching ALL conjuncts, and if so which conjunct proved it: the first
// proving conjunct in written order.
func (v *vecPlan) skipCause(seg int) (SkipAttr, bool) {
	for _, c := range v.conjs {
		if c.f.skip(seg) {
			return c.attr, true
		}
	}
	return SkipAttr{}, false
}

// Prepare validates and column-resolves a parsed query, then attaches the
// vectorized compilation (the column store's Plan hook): the conjuncts, in
// written order, lowered to vectorized filters against the table's global
// zone maps, once, whatever its fragments. A scan job compiles them again,
// with their row-at-a-time predicates, against the segment it reads
// (scanJob). A conjunct that folds to all-true — zexec's z IN (<every
// slice>) — stays in p.conjs, which is what EXPLAIN lists, and costs the
// scan nothing.
func (s *ColumnStore) Prepare(q *minisql.Query) (*Plan, error) {
	p, err := newPlan(s, s.Table(q.From), q)
	if err != nil {
		return nil, err
	}
	vp := &vecPlan{cols: NewColumnSet(p.t.NumCols())}
	names := p.q.Columns()
	for j, c := range p.t.Columns() {
		if slices.Contains(names, c.Field.Name) {
			vp.cols.Add(j)
		}
	}
	for _, c := range p.conjs {
		f, err := compileVec(s.zones, p.t, c)
		if err != nil {
			return nil, err
		}
		if cf, ok := f.(constFilter); ok && cf.match {
			continue
		}
		vp.conjs = append(vp.conjs, vecConjunct{key: c.SQL(), expr: c, f: f, attr: conjAttr(c, f)})
	}
	p.vec = vp
	return p, nil
}

// ExecuteBatch runs the plans as one request on executeFragments' schedule:
// a scan job walks its fragment once for a share of the plans (scanInto).
func (s *ColumnStore) ExecuteBatch(ctx context.Context, plans []*Plan) ([]*Result, error) {
	return executeFragments(ctx, plans, batchScan{
		db: s, backend: "column", frags: len(s.frags), workers: s.parallelism(), stats: s.stats, scan: s.scanInto,
	})
}

// scanInto is one job's shared segment walk over fragment fi, feeding every
// plan of the job into its sink. Each distinct conjunct (keyed by canonical
// SQL) is evaluated at most once per segment and intersected per plan. Each
// segment some plan does not skip is read through the table's segment source
// into the job's scratch segment, in the columns the job's plans read, and
// refills the same scratch for the next one: zone-map-skipped segments are
// never read, and no segment outlives the job. The first failed segment read
// is returned; sinks may then hold partial data and must be discarded. The
// context is checked once per segment: a cancelled scan stops at the next
// segment boundary and returns ctx.Err().
func (s *ColumnStore) scanInto(ctx context.Context, plans []*Plan, fi int, idx []int, sp *trace.Span) ([]*planSink, error) {
	s.busy.Add(1)
	defer s.busy.Add(-1)
	f := s.frags[fi]
	cols := NewColumnSet(s.t.NumCols())
	for _, pi := range idx {
		cols.Or(plans[pi].vec.cols)
	}
	// Assign each distinct conjunct one slot; plans refer to slots so a
	// shared conjunct is evaluated once per segment.
	slotOf := make(map[string]int)
	var exprs []minisql.Expr
	planSlots := make([][]int, len(idx))
	for k, pi := range idx {
		for _, c := range plans[pi].vec.conjs {
			slot, ok := slotOf[c.key]
			if !ok {
				slot = len(exprs)
				slotOf[c.key] = slot
				exprs = append(exprs, c.expr)
			}
			planSlots[k] = append(planSlots[k], slot)
		}
	}
	slotBits := make([][]uint64, len(exprs))
	for i := range slotBits {
		slotBits[i] = newSegBits()
	}
	slotDone := make([]bool, len(exprs))
	acc := newSegBits()
	var scanned, skipped, segsScanned int64
	prov := make(map[SkipAttr]int64)
	var loadErr error
	segSpans := 0
	scratch, _ := s.scratch.Get().(*dataset.Table)
	var job *scanJob // compiled against scratch at the first segment read
	for seg := f.lo; seg < f.hi && loadErr == nil; seg++ {
		// The segment boundary is the scan's cancellation point: a deadline
		// or client disconnect stops the walk here, never mid-segment.
		if err := ctx.Err(); err != nil {
			loadErr = err
			break
		}
		lo, hi := s.segBounds(seg)
		n := hi - lo
		for i := range slotDone {
			slotDone[i] = false
		}
		// visit reads the job's columns of the segment into the scratch;
		// filters and sinks read the scratch, so the read must land before
		// either runs. A segment every plan skips is never visited.
		visited := false
		visit := func() bool {
			if visited {
				return true
			}
			t, err := s.src.Load(seg, cols, scratch)
			if err == nil && job == nil {
				job, err = newScanJob(s, plans, idx, exprs, t)
			}
			if err != nil {
				loadErr = err
				return false
			}
			scratch, visited = t, true
			segsScanned++
			scanned += int64(n)
			// Sampled per-segment spans: the first few scanned segments get
			// a marker child each, enough to see which part of the table a
			// slow scan actually touched without a span per segment.
			if sp != nil && segSpans < segSpanSample {
				segSpans++
				c := sp.StartChild("segment")
				c.SetInt("seg", int64(seg))
				c.SetInt("rows", int64(n))
				c.End()
			}
			return true
		}
		for k, pi := range idx {
			if attr, ok := plans[pi].vec.skipCause(seg); ok {
				skipped++
				prov[attr]++
				continue
			}
			if !visit() {
				break
			}
			sink := job.sinks[k]
			slots := planSlots[k]
			switch len(slots) {
			case 0:
				sink.addSel(nil, 0, n)
				continue
			case 1:
				sink.addSel(job.evalSlot(slotBits, slotDone, slots[0], seg, n), 0, n)
				continue
			}
			copy(acc, job.evalSlot(slotBits, slotDone, slots[0], seg, n))
			for _, slot := range slots[1:] {
				live := popCount(acc, n)
				if live == 0 {
					break // intersection already empty; later conjuncts can't revive it
				}
				// Masked evaluation: when the survivor set is sparse and the
				// conjunct's bitmap hasn't been shared yet, testing only the
				// surviving rows with the row predicate beats a full
				// vectorized pass over the segment. Result-identical — the
				// differential fuzzer pins the predicate/filter equivalence.
				if !slotDone[slot] && live <= n/maskedEvalDiv {
					filterBits(acc, n, job.preds[slot])
					continue
				}
				bits := job.evalSlot(slotBits, slotDone, slot, seg, n)
				for w := range acc {
					acc[w] &= bits[w]
				}
			}
			sink.addSel(acc, 0, n)
		}
	}
	if scratch != nil {
		s.scratch.Put(scratch)
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
	// A job that read no segment returns sinks that meet no row; compiling
	// no conjunct cannot fail.
	if job == nil {
		job, _ = newScanJob(s, plans, idx, nil, nil)
	}
	return job.sinks, loadErr
}

// scanJob is a scan job's compilation against the scratch segment it reads
// each segment into: every distinct conjunct's filter and row predicate, by
// slot, and a sink per plan. All of them read the scratch's arrays at each
// call, so one compilation serves every segment of the job.
type scanJob struct {
	filters []vecFilter
	preds   []rowPredicate
	sinks   []*planSink
}

func newScanJob(s *ColumnStore, plans []*Plan, idx []int, exprs []minisql.Expr, seg *dataset.Table) (*scanJob, error) {
	j := &scanJob{filters: make([]vecFilter, len(exprs)), preds: make([]rowPredicate, len(exprs)), sinks: make([]*planSink, len(idx))}
	for i, e := range exprs {
		var err error
		if j.filters[i], err = compileVec(s.zones, seg, e); err != nil {
			return nil, err
		}
		if j.preds[i], err = compilePredicate(seg, e); err != nil {
			return nil, err
		}
	}
	for k, pi := range idx {
		j.sinks[k] = plans[pi].newSink(seg)
	}
	return j, nil
}

// evalSlot returns the selection bitmap of one conjunct for segment seg, of
// n rows, evaluating it on first use.
func (j *scanJob) evalSlot(slotBits [][]uint64, slotDone []bool, slot, seg, n int) []uint64 {
	if !slotDone[slot] {
		clearBits(slotBits[slot])
		j.filters[slot].eval(seg, n, slotBits[slot])
		slotDone[slot] = true
	}
	return slotBits[slot]
}

// segSpanSample is how many scanned segments per scan job get a sampled
// per-segment child span.
const segSpanSample = 8

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

// filterBits clears every selected bit of rows [0, n) whose row fails pred —
// the masked (row-at-a-time) evaluation of one conjunct over a sparse
// survivor set.
func filterBits(sel []uint64, n int, pred rowPredicate) {
	words := (n + 63) / 64
	for w := 0; w < words; w++ {
		word := sel[w]
		base := w << 6
		for word != 0 {
			b := bits.TrailingZeros64(word)
			if !pred(base + b) {
				sel[w] &^= 1 << uint(b)
			}
			word &= word - 1
		}
	}
}
