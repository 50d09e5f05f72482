package zexec

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/vis"
	"repro/internal/zql"
)

// processCounters accumulates process-phase work across worker goroutines.
type processCounters struct {
	tuples        atomic.Int64
	distCalls     atomic.Int64
	distAbandoned atomic.Int64
}

func (c *processCounters) snapshot() ProcessStats {
	return ProcessStats{
		Tuples:        c.tuples.Load(),
		DistCalls:     c.distCalls.Load(),
		DistAbandoned: c.distAbandoned.Load(),
	}
}

// topKPrunable reports whether the declaration is an argmin/argmax [k=...]
// search the bounded-heap evaluator handles, returning the effective k.
// Pruning stays off at NoOpt and under ProcessNoPrune; argany keeps its
// input-order semantics (its [k=...] is a prefix, not a selection) and
// [k=inf] keeps everything, so neither can prune. [k=0] takes the ranked
// path too: skipping evaluation entirely would also skip the scoring errors
// the sequential oracle surfaces.
func (ex *executor) topKPrunable(d *zql.ProcessDecl, n int) (int, bool) {
	if ex.opts.Opt == NoOpt || ex.opts.ProcessNoPrune {
		return 0, false
	}
	if d.Filter != zql.FilterK || d.K < 1 || d.K >= n {
		return 0, false
	}
	if d.Mech != zql.MechArgmin && d.Mech != zql.MechArgmax {
		return 0, false
	}
	return d.K, true
}

// abandonableD reports whether scoring is a plain argmin over D(f1, f2) —
// the case where a partial distance exceeding the current k-th best proves
// the tuple irrelevant. argmax cannot abandon (partial sums lower-bound a
// distance; argmax pruning would need an upper bound), and nested inner
// aggregations need the exact leaf values.
func (ex *executor) abandonableD(d *zql.ProcessDecl) bool {
	return d.Mech == zql.MechArgmin && len(d.Inner) == 0 &&
		d.Expr != nil && d.Expr.Kind == zql.ObjD && ex.opts.Metric.Bounded != nil
}

// forEachTuple runs fn(sc, i) for every i in [0, n) on the process worker
// pool (par.Do): one worker at NoOpt, keeping the O0 oracle the plain
// sequential loop, otherwise up to GOMAXPROCS. Each worker hands fn its own
// distance scratch. A cancelled run stops between tuples with ctx.Err(), a
// panic is contained as an error, and the error reported is the one at the
// lowest failing index: the one the sequential loop would have surfaced.
func (ex *executor) forEachTuple(n int, fn func(sc *vis.Scratch, i int) error) error {
	workers := min(n, runtime.GOMAXPROCS(0))
	if ex.opts.Opt == NoOpt {
		workers = 1
	}
	scratch := make([]vis.Scratch, workers)
	err := par.Do(n, workers, func(w, i int) error {
		if ex.ctx != nil {
			if err := ex.ctx.Err(); err != nil {
				return err
			}
		}
		return fn(&scratch[w], i)
	})
	if p, ok := err.(*par.Panic); ok {
		return fmt.Errorf("process worker panic: %v", p.Value)
	}
	return err
}

// scoredTuple orders top-k candidates: the tuple's score plus its iteration
// index for stable tie-breaks.
type scoredTuple struct {
	idx   int
	score float64
}

// boundHeap keeps the k best scored tuples seen so far. The root is the
// worst retained pair, so a candidate either displaces it or is discarded in
// O(log k). "Better" is (score, index) ascending for argmin and (score
// descending, index ascending) for argmax — exactly the order the stable
// sort in evalRankFilter produces — so heap selection reproduces
// sort-then-truncate byte for byte.
type boundHeap struct {
	argmax bool
	cap    int
	items  []scoredTuple
}

// scoreBetter is the one score ordering every evaluation path shares: the
// ranked stable sort, the bounded heap, and the final output order. NaN
// scores (a user function can return one) compare false under both < and >,
// which would make the order schedule-dependent in the heap and
// merge-order-dependent in the stable sort; ranking them explicitly after
// every number keeps output identical at every opt level.
func scoreBetter(argmax bool, a, b float64) bool {
	if an, bn := math.IsNaN(a), math.IsNaN(b); an || bn {
		return !an && bn // a number beats NaN; NaN against NaN is a tie
	}
	if argmax {
		return a > b
	}
	return a < b
}

// better totally orders candidates: scoreBetter first, iteration index as
// the tie-break — exactly the order stable sorting in input order produces.
func (h *boundHeap) better(a, b scoredTuple) bool {
	if scoreBetter(h.argmax, a.score, b.score) {
		return true
	}
	if scoreBetter(h.argmax, b.score, a.score) {
		return false
	}
	return a.idx < b.idx
}

func (h *boundHeap) full() bool { return len(h.items) == h.cap }

// worst is the retained pair the next candidate must beat.
func (h *boundHeap) worst() scoredTuple { return h.items[0] }

// offer inserts the candidate if it beats the current worst (or the heap has
// room).
func (h *boundHeap) offer(t scoredTuple) {
	if len(h.items) < h.cap {
		h.items = append(h.items, t)
		h.up(len(h.items) - 1)
		return
	}
	if !h.better(t, h.items[0]) {
		return
	}
	h.items[0] = t
	h.down(0)
}

// up/down restore the worst-at-root heap property.
func (h *boundHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.better(h.items[parent], h.items[i]) {
			return
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *boundHeap) down(i int) {
	for {
		worst := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h.items) && h.better(h.items[worst], h.items[c]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h.items[i], h.items[worst] = h.items[worst], h.items[i]
		i = worst
	}
}

// sorted returns the retained pairs best-first.
func (h *boundHeap) sorted() []scoredTuple {
	out := append([]scoredTuple(nil), h.items...)
	sort.Slice(out, func(i, j int) bool { return h.better(out[i], out[j]) })
	return out
}

// atomicFloat publishes the running top-k bound to workers without a lock.
// Updates happen under the heap's mutex, so stores are monotone; a stale
// read is merely a looser (safe) bound.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }

// evalTopK evaluates an argmin/argmax [k=...] declaration through the
// bounded heap, and — for plain argmin D(...) searches — feeds the k-th-best
// score so far to the early-abandoning distance kernels as their cutoff. An
// abandoned tuple's true score provably exceeds the bound, and the bound
// only tightens, so the kept set and order equal the sequential
// stable-sort-then-truncate: the k best (score, index) pairs under the
// mechanism's ordering, ties broken by iteration order.
func (ex *executor) evalTopK(d *zql.ProcessDecl, inner []*space, tuples []loopTuple, k int) ([]loopTuple, error) {
	h := &boundHeap{argmax: d.Mech == zql.MechArgmax, cap: k}
	var hmu sync.Mutex
	var bound atomicFloat
	bound.store(math.Inf(1))
	abandonable := ex.abandonableD(d)
	err := ex.forEachTuple(len(tuples), func(sc *vis.Scratch, i int) error {
		ex.proc.tuples.Add(1)
		var score float64
		if abandonable {
			s, abandoned, err := ex.evalDistBounded(d.Expr, tuples[i].assign, bound.load(), sc)
			if err != nil {
				return err
			}
			if abandoned {
				return nil // provably outside the top k
			}
			score = s
		} else {
			s, err := ex.evalInner(d, inner, 0, tuples[i].assign, sc)
			if err != nil {
				return err
			}
			score = s
		}
		hmu.Lock()
		h.offer(scoredTuple{idx: i, score: score})
		if abandonable && h.full() {
			bound.store(h.worst().score)
		}
		hmu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	picked := h.sorted()
	kept := make([]loopTuple, len(picked))
	for j, st := range picked {
		kept[j] = tuples[st.idx]
		kept[j].score = st.score
	}
	return kept, nil
}

// evalDistBounded scores a plain D(f1, f2) objective with an abandoning
// cutoff, measuring with sc.
func (ex *executor) evalDistBounded(e *zql.ObjExpr, assign point, bound float64, sc *vis.Scratch) (float64, bool, error) {
	v1, err := ex.lookupVis(e.F1, assign)
	if err != nil {
		return 0, false, err
	}
	v2, err := ex.lookupVis(e.F2, assign)
	if err != nil {
		return 0, false, err
	}
	ex.proc.distCalls.Add(1)
	dist, abandoned := sc.DistanceBounded(v1, v2, ex.opts.Metric, bound)
	if abandoned {
		ex.proc.distAbandoned.Add(1)
	}
	return dist, abandoned, nil
}
