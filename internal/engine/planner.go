package engine

import (
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/minisql"
)

// The greedy conjunct planner. At Prepare time every store reorders a
// query's top-level WHERE conjuncts cheapest/most-selective-first, scored
// from statistics the stores already computed at build time — zone-map
// min/max versus the predicate's range, dictionary cardinality and code
// presence for equality — with live skip provenance as a tie-breaker.
// Planning is statistics-free in the histogram sense: no sampling, no
// per-value frequency tables, just the metadata that exists anyway, so a
// plan costs microseconds and never touches row data.
//
// Reordering is result-invariant: AND is commutative in every store (row
// predicates are pure closures, bitmap intersections and selection-bitmap
// ANDs commute), and the differential fuzzer pins it by executing every
// store variant with shuffled vs. planned conjunct order. The planner never
// mutates the query AST — Plan.SQL() is the result-cache key and must not
// depend on execution strategy — it only reorders the compiled artifacts.

// Planner is implemented by stores whose Prepare runs the greedy conjunct
// planner. SetPlanning(false) pins written conjunct order — the differential
// baseline.
type Planner interface {
	SetPlanning(on bool)
}

// planToggle is the store-level planning switch every back-end embeds.
// The zero value is ON.
type planToggle struct {
	noPlan atomic.Bool
}

// SetPlanning enables or disables conjunct reordering at Prepare time.
// Disabling never changes results, only the order compiled predicates run.
func (p *planToggle) SetPlanning(on bool) { p.noPlan.Store(!on) }

func (p *planToggle) planningOn() bool { return !p.noPlan.Load() }

// splitConjuncts returns the AND legs of a predicate in written order,
// flattening nested ANDs (a non-AND predicate is one conjunct; nil means
// none). Flattening matters for generated SQL: the ZQL fetch phase emits
// WHERE z IN (...) AND (<user constraints>), and without it the whole user
// conjunction would score as one opaque composite. AND associativity makes
// the flattened compile result-identical.
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

// numStat is one numeric column's global value envelope, folded from its
// per-segment zone maps.
type numStat struct {
	lo, hi float64
}

// plannerStats is the per-table statistics snapshot a store hands the
// scorer: dictionary cardinalities, numeric envelopes, and the live skip
// provenance accumulated so far.
type plannerStats struct {
	t       *dataset.Table
	card    map[string]int
	numeric map[string]numStat
	prov    map[SkipAttr]int64
}

// newPlannerStats seeds the snapshot with what every store knows for free:
// the cardinality of every dictionary-coded column, categorical or integer.
func newPlannerStats(t *dataset.Table) *plannerStats {
	ps := &plannerStats{
		t:       t,
		card:    make(map[string]int),
		numeric: make(map[string]numStat),
	}
	for _, c := range t.Columns() {
		if c.Coded() {
			ps.card[c.Field.Name] = c.Cardinality()
		}
	}
	return ps
}

// addZones folds per-segment zone maps into global numeric envelopes.
// Segments with no rows (or all-NaN rows) contribute the +Inf/-Inf identity
// and fold away; a column whose every segment is empty keeps no envelope, so
// its predicates score by defaults.
func (ps *plannerStats) addZones(zones map[string]*ZoneData) {
	for _, c := range ps.t.Columns() {
		name := c.Field.Name
		if c.Field.Kind == dataset.KindString {
			continue
		}
		z := zones[name]
		if z == nil || len(z.Min) == 0 {
			continue
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for s := range z.Min {
			if z.Min[s] < lo {
				lo = z.Min[s]
			}
			if z.Max[s] > hi {
				hi = z.Max[s]
			}
		}
		if lo <= hi {
			ps.numeric[name] = numStat{lo: lo, hi: hi}
		}
	}
}

// withProv attaches a live skip-provenance snapshot as the tie-breaking
// signal: conjuncts on columns whose metadata has actually proved segments
// empty win ties against equally scored ones.
func (ps *plannerStats) withProv(prov map[SkipAttr]int64) *plannerStats {
	ps.prov = prov
	return ps
}

// provWeight sums the skip counts credited to the columns a conjunct
// constrains.
func (ps *plannerStats) provWeight(e minisql.Expr) int64 {
	if len(ps.prov) == 0 {
		return 0
	}
	var n int64
	for _, col := range exprColumns(e, nil) {
		for attr, c := range ps.prov {
			if attr.Column == col {
				n += c
			}
		}
	}
	return n
}

// Cost tiers: the per-row price of evaluating a conjunct, coarsely. Ties in
// estimated selectivity break toward the cheaper evaluator.
const (
	costConst     = 0 // folded to a constant at compile time
	costCatEq     = 1 // one dictionary-code compare per row
	costNumRange  = 2 // one or two float compares per row
	costSet       = 3 // code-bitset or hash-set membership per row
	costComposite = 4 // nested AND/OR/NOT evaluation
	costFallback  = 5 // row-at-a-time predicate closure, no zone skipping
)

// scoreConjunct estimates a conjunct's selectivity (fraction of rows
// surviving, in [0, 1] — lower runs earlier) and its evaluation cost tier.
func scoreConjunct(ps *plannerStats, e minisql.Expr) (sel float64, cost int) {
	if c := ps.t.Column(leafColumn(e)); c != nil && coversDict(c, e) {
		return 1, costConst // the column store folds it to all-true
	}
	switch x := e.(type) {
	case *minisql.And:
		sel = 1
		for _, a := range x.Args {
			s, _ := scoreConjunct(ps, a)
			sel *= s
		}
		return sel, costComposite
	case *minisql.Or:
		sel = 0
		for _, a := range x.Args {
			s, _ := scoreConjunct(ps, a)
			sel += s
		}
		return math.Min(sel, 1), costComposite
	case *minisql.Not:
		s, _ := scoreConjunct(ps, x.Arg)
		return 1 - s, costComposite
	case *minisql.Compare:
		return scoreCompare(ps, x)
	case *minisql.In:
		return scoreIn(ps, x)
	case *minisql.Like:
		return scoreLike(ps, x)
	case *minisql.Between:
		c := ps.t.Column(x.Col)
		if c == nil || c.Field.Kind == dataset.KindString ||
			x.Lo.Kind == dataset.KindString || x.Hi.Kind == dataset.KindString {
			return 0.5, costFallback
		}
		return rangeSel(ps, x.Col, x.Lo.Float(), x.Hi.Float(), 0.25), costNumRange
	}
	return 0.5, costFallback
}

// coversDict reports whether a leaf predicate's code set — an IN list or LIKE
// pattern over a categorical column, any leaf over a dictionary-coded integer
// one — holds every entry of a non-empty dictionary: zexec's z IN (<every
// slice>), or a range past the column's ends.
func coversDict(c *dataset.Column, e minisql.Expr) bool {
	var member []uint8
	if c.Field.Kind == dataset.KindString {
		member, _ = stringMembers(c, e)
	} else if c.Coded() {
		member = numericTest(e).members(c)
	}
	return len(member) > 0 && !slices.Contains(member, 0)
}

func scoreCompare(ps *plannerStats, x *minisql.Compare) (float64, int) {
	c := ps.t.Column(x.Col)
	if c == nil {
		return 0.5, costFallback
	}
	if c.Field.Kind == dataset.KindString && x.Val.Kind == dataset.KindString {
		switch x.Op {
		case minisql.CmpEq:
			if c.CodeOf(x.Val.S) < 0 {
				return 0, costConst // folds to constant false
			}
			return 1 / float64(maxInt(ps.card[x.Col], 1)), costCatEq
		case minisql.CmpNe:
			if c.CodeOf(x.Val.S) < 0 {
				return 1, costConst // folds to constant true
			}
			return 1 - 1/float64(maxInt(ps.card[x.Col], 1)), costCatEq
		}
		return 0.5, costFallback
	}
	if c.Field.Kind == dataset.KindString || x.Val.Kind == dataset.KindString {
		return 0.5, costFallback // mixed-kind comparison: predicate closure
	}
	v := x.Val.Float()
	switch x.Op {
	case minisql.CmpEq:
		return pointSel(ps, x.Col, v), costNumRange
	case minisql.CmpNe:
		return 1 - pointSel(ps, x.Col, v), costNumRange
	case minisql.CmpLt:
		return rangeSel(ps, x.Col, math.Inf(-1), math.Nextafter(v, math.Inf(-1)), 1.0/3), costNumRange
	case minisql.CmpLe:
		return rangeSel(ps, x.Col, math.Inf(-1), v, 1.0/3), costNumRange
	case minisql.CmpGt:
		return rangeSel(ps, x.Col, math.Nextafter(v, math.Inf(1)), math.Inf(1), 1.0/3), costNumRange
	case minisql.CmpGe:
		return rangeSel(ps, x.Col, v, math.Inf(1), 1.0/3), costNumRange
	}
	return 0.5, costFallback
}

func scoreIn(ps *plannerStats, x *minisql.In) (float64, int) {
	c := ps.t.Column(x.Col)
	if c == nil {
		return 0.5, costFallback
	}
	if c.Field.Kind == dataset.KindString {
		matched := 0
		for _, v := range x.Vals {
			if c.CodeOf(v.String()) >= 0 {
				matched++
			}
		}
		if matched == 0 {
			return 0, costConst // folds to constant false
		}
		return float64(matched) / float64(maxInt(ps.card[x.Col], 1)), costSet
	}
	if len(x.Vals) == 0 {
		return 0, costConst
	}
	inRange := len(x.Vals)
	if ns, ok := ps.numeric[x.Col]; ok {
		inRange = 0
		for _, v := range x.Vals {
			if fv := v.Float(); fv >= ns.lo && fv <= ns.hi {
				inRange++
			}
		}
	}
	return math.Min(1, float64(inRange)/float64(maxInt(ps.card[x.Col], 20))), costSet
}

func scoreLike(ps *plannerStats, x *minisql.Like) (float64, int) {
	c := ps.t.Column(x.Col)
	if c == nil || c.Field.Kind != dataset.KindString {
		// LIKE over a numeric column stringifies every row — the most
		// expensive conjunct shape the engine has.
		return 0.5, costFallback
	}
	m := compileLikeMatcher(x.Pattern)
	matched := 0
	for _, s := range c.Dict() {
		if m(s) {
			matched++
		}
	}
	if matched == 0 {
		return 0, costConst // folds to constant false
	}
	return float64(matched) / float64(maxInt(ps.card[x.Col], 1)), costSet
}

// pointSel estimates equality against one numeric value: zero when the
// value lies outside the column's global envelope (a zone-certain miss),
// one over the dictionary cardinality when the column is dictionary
// encoded, a small default otherwise.
func pointSel(ps *plannerStats, col string, v float64) float64 {
	if ns, ok := ps.numeric[col]; ok && (v < ns.lo || v > ns.hi) {
		return 0
	}
	return 1 / float64(maxInt(ps.card[col], 20))
}

// rangeSel estimates the fraction of the column's global envelope a range
// predicate overlaps; def is the default when no envelope is known.
func rangeSel(ps *plannerStats, col string, lo, hi float64, def float64) float64 {
	ns, ok := ps.numeric[col]
	if !ok {
		if hi < lo {
			return 0 // inverted range matches nothing regardless of data
		}
		return def
	}
	a := math.Max(lo, ns.lo)
	b := math.Min(hi, ns.hi)
	if b < a {
		return 0
	}
	width := ns.hi - ns.lo
	if width <= 0 {
		return 1 // single-valued column, and the value is inside the range
	}
	f := (b - a) / width
	return math.Max(0, math.Min(f, 1))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// orderConjuncts sorts conjuncts by (selectivity, cost tier, provenance
// weight descending, written position). The written position is the final
// key, so fully tied conjuncts keep their written order — the determinism
// guarantee the planner documents.
func orderConjuncts(ps *plannerStats, conjs []minisql.Expr) (ordered []minisql.Expr, changed bool) {
	ordered, _, changed = orderConjunctsScored(ps, conjs)
	return ordered, changed
}

// conjScore is what the planner ordered one conjunct by.
type conjScore struct {
	sel  float64
	cost int
}

// orderConjunctsScored is orderConjuncts plus the per-conjunct audit trail:
// the selectivity and cost tier each conjunct was ordered by, in the chosen
// execution order. The scores exist anyway — keeping them is what lets
// EXPLAIN show why the planner picked the order it picked.
func orderConjunctsScored(ps *plannerStats, conjs []minisql.Expr) (ordered []minisql.Expr, scores []conjScore, changed bool) {
	type scored struct {
		e    minisql.Expr
		sel  float64
		cost int
		prov int64
		idx  int
	}
	ss := make([]scored, len(conjs))
	for i, e := range conjs {
		sel, cost := scoreConjunct(ps, e)
		if math.IsNaN(sel) {
			sel = 0.5
		}
		ss[i] = scored{e: e, sel: sel, cost: cost, prov: ps.provWeight(e), idx: i}
	}
	sort.SliceStable(ss, func(i, j int) bool {
		if ss[i].sel != ss[j].sel {
			return ss[i].sel < ss[j].sel
		}
		if ss[i].cost != ss[j].cost {
			return ss[i].cost < ss[j].cost
		}
		if ss[i].prov != ss[j].prov {
			return ss[i].prov > ss[j].prov
		}
		return ss[i].idx < ss[j].idx
	})
	ordered = make([]minisql.Expr, len(ss))
	scores = make([]conjScore, len(ss))
	for k, s := range ss {
		ordered[k] = s.e
		scores[k] = conjScore{sel: s.sel, cost: s.cost}
		if s.idx != k {
			changed = true
		}
	}
	return ordered, scores, changed
}

// applyPlanOrder reorders the plan's conjuncts by the greedy score and
// recompiles the row predicate in that order, so short-circuit evaluation
// tests the cheapest, most selective leg first. The query AST — and with it
// Plan.SQL(), the result-cache key — is never touched.
func (p *Plan) applyPlanOrder(ps *plannerStats) error {
	ordered, scores, changed := orderConjunctsScored(ps, p.conjs)
	p.conjScores = scores
	if !changed {
		return nil
	}
	pred, err := compilePredicate(p.t, &minisql.And{Args: ordered})
	if err != nil {
		return err
	}
	p.conjs, p.reordered, p.pred = ordered, true, pred
	return nil
}
