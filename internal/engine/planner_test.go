package engine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/minisql"
)

// twoColTable builds a table with two float columns holding identical
// ascending values across nseg segments, plus a categorical column.
func twoColTable(nseg int) *dataset.Table {
	t := dataset.NewTable("p", []dataset.Field{
		{Name: "c", Kind: dataset.KindString},
		{Name: "f", Kind: dataset.KindFloat},
		{Name: "g", Kind: dataset.KindFloat},
	})
	for i := 0; i < nseg*SegmentSize; i++ {
		t.AppendRow(dataset.SV([]string{"a", "b"}[i%2]), dataset.FV(float64(i)), dataset.FV(float64(i)))
	}
	return t
}

// TestPlannerReordersSelectiveFirst pins the core behavior: the most
// selective conjunct is compiled first, and the plan reports the reorder.
func TestPlannerReordersSelectiveFirst(t *testing.T) {
	tb := twoColTable(3)
	cs := NewColumnStore(tb)
	q, err := minisql.Parse("SELECT COUNT(*) AS n FROM p WHERE g < 4096 AND f < 100")
	if err != nil {
		t.Fatal(err)
	}
	p, err := cs.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Reordered() {
		t.Fatal("plan not reordered")
	}
	conjs := p.Conjuncts()
	if len(conjs) != 2 || conjs[0].SQL() != "f < 100" {
		t.Fatalf("planned order = [%s, %s], want f < 100 first", conjs[0].SQL(), conjs[1].SQL())
	}
	if q.Where.SQL() != "g < 4096 AND f < 100" {
		t.Fatalf("planner mutated the AST: %s", q.Where.SQL())
	}
	c := cs.Counters()
	if c.PlansPlanned != 1 || c.PlansReordered != 1 {
		t.Fatalf("planner counters = %d/%d, want 1/1", c.PlansPlanned, c.PlansReordered)
	}
}

// TestSkipProvenancePostReorder is the satellite regression: after the
// planner reorders conjuncts, a segment both conjuncts could prove empty must
// be credited to the conjunct that actually ran first — the planner's pick,
// not the written-first one.
func TestSkipProvenancePostReorder(t *testing.T) {
	// f and g hold identical values, so segments 2 and 3 (values >= 4096) are
	// provably empty under BOTH "g < 4096" (written first) and "f < 100"
	// (planner first). The first prover in evaluation order gets the credit.
	sql := "SELECT COUNT(*) AS n FROM p WHERE g < 4096 AND f < 100"
	run := func(planning bool) map[SkipAttr]int64 {
		cs := NewColumnStore(twoColTable(3))
		cs.SetPlanning(planning)
		if _, err := execSQL(cs, sql); err != nil {
			t.Fatal(err)
		}
		return cs.Stats("p").SkipProvenance
	}
	off := run(false)
	if off[SkipAttr{Column: "g", Via: "zonemap"}] != 2 {
		t.Fatalf("planning off: want 2 skips credited to g, got %v", off)
	}
	on := run(true)
	if on[SkipAttr{Column: "f", Via: "zonemap"}] != 2 {
		t.Fatalf("planning on: want 2 skips credited to planner-first f, got %v", on)
	}
	if on[SkipAttr{Column: "g", Via: "zonemap"}] != 0 {
		t.Fatalf("planning on: g still credited: %v", on)
	}
}

// TestPlannerRowStoreRanksCodedInts: the row store has no zone maps, but it
// knows an integer column's value dictionary: an equality on a column of
// 1000 distinct values (1/1000) outranks one on a column of 40 (1/40), though
// it is written second. Without the cardinalities both score the 1/20
// default and the written order stands.
func TestPlannerRowStoreRanksCodedInts(t *testing.T) {
	tb := dataset.NewTable("p", []dataset.Field{
		{Name: "a", Kind: dataset.KindInt},
		{Name: "b", Kind: dataset.KindInt},
	})
	for i := 0; i < 4000; i++ {
		tb.AppendRow(dataset.IV(int64(i%40)), dataset.IV(int64(i%1000)))
	}
	if !tb.Column("a").Coded() || !tb.Column("b").Coded() {
		t.Fatal("both integer columns should be dictionary-coded")
	}
	q, err := minisql.Parse("SELECT COUNT(*) AS n FROM p WHERE a = 7 AND b = 7")
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewRowStore(tb).Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	info := p.Info()
	if !info.Reordered || len(info.Conjuncts) != 2 || info.Conjuncts[0].SQL != "b = 7" {
		t.Fatalf("conjunct order %+v (reordered %v), want b = 7 first", info.Conjuncts, info.Reordered)
	}
	if got, want := info.Conjuncts[0].Sel, 1.0/1000; got != want {
		t.Errorf("b = 7 scored selectivity %v, want 1/1000", got)
	}
	res, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Value(0, 0).Int(); got != 4 {
		t.Errorf("count = %d, want 4", got)
	}
}

// TestPlannerTieKeepsWrittenOrder: fully tied conjuncts (same selectivity,
// cost, provenance) keep written order — the determinism guarantee.
func TestPlannerTieKeepsWrittenOrder(t *testing.T) {
	tb := twoColTable(2)
	ps := newPlannerStats(tb)
	ps.numeric["f"] = numStat{lo: 0, hi: 8191}
	ps.numeric["g"] = numStat{lo: 0, hi: 8191}
	conjs := []minisql.Expr{
		&minisql.Compare{Col: "f", Op: minisql.CmpGt, Val: dataset.FV(100)},
		&minisql.Compare{Col: "g", Op: minisql.CmpGt, Val: dataset.FV(100)},
	}
	ordered, changed := orderConjuncts(ps, conjs)
	if changed {
		t.Fatal("tied conjuncts must not report a reorder")
	}
	if ordered[0].SQL() != "f > 100" || ordered[1].SQL() != "g > 100" {
		t.Fatalf("tied order changed: [%s, %s]", ordered[0].SQL(), ordered[1].SQL())
	}
}

// TestPlannerProvenanceTieBreak: equal scores break toward the conjunct whose
// column has live skip provenance.
func TestPlannerProvenanceTieBreak(t *testing.T) {
	tb := twoColTable(2)
	ps := newPlannerStats(tb)
	ps.numeric["f"] = numStat{lo: 0, hi: 8191}
	ps.numeric["g"] = numStat{lo: 0, hi: 8191}
	ps.withProv(map[SkipAttr]int64{{Column: "g", Via: "zonemap"}: 7})
	conjs := []minisql.Expr{
		&minisql.Compare{Col: "f", Op: minisql.CmpGt, Val: dataset.FV(100)},
		&minisql.Compare{Col: "g", Op: minisql.CmpGt, Val: dataset.FV(100)},
	}
	ordered, changed := orderConjuncts(ps, conjs)
	if !changed || ordered[0].SQL() != "g > 100" {
		t.Fatalf("provenance tie-break failed: first = %s, changed = %v", ordered[0].SQL(), changed)
	}
}

// TestPlannerAllNaNZones: a float column holding only NaN yields no zone
// envelope (its per-segment min/max fold to the +Inf/-Inf identity); its
// conjuncts score by defaults and execution stays correct.
func TestPlannerAllNaNZones(t *testing.T) {
	tb := dataset.NewTable("t", []dataset.Field{
		{Name: "f", Kind: dataset.KindFloat},
		{Name: "g", Kind: dataset.KindFloat},
	})
	for i := 0; i < 2*SegmentSize; i++ {
		tb.AppendRow(dataset.FV(math.NaN()), dataset.FV(float64(i)))
	}
	cs := NewColumnStore(tb)
	ps := cs.plannerStats(cs.cols["t"])
	if _, ok := ps.numeric["f"]; ok {
		t.Fatal("all-NaN column must not report a numeric envelope")
	}
	if _, ok := ps.numeric["g"]; !ok {
		t.Fatal("normal column lost its envelope")
	}
	res, err := execSQL(cs, "SELECT COUNT(*) AS n FROM t WHERE f > 0 AND g < 10")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value(0, 0).Int() != 0 {
		t.Fatalf("NaN comparisons must match nothing, got %v", res.Value(0, 0))
	}
}

// TestPlannerSingleSegmentAndEmpty: the planner must behave on tables too
// small for zone maps to matter, and on entirely empty tables.
func TestPlannerSingleSegmentAndEmpty(t *testing.T) {
	for _, rows := range []int{0, 5} {
		tb := dataset.NewTable("t", []dataset.Field{
			{Name: "c", Kind: dataset.KindString},
			{Name: "f", Kind: dataset.KindFloat},
		})
		for i := 0; i < rows; i++ {
			tb.AppendRow(dataset.SV("x"), dataset.FV(float64(i)))
		}
		for _, db := range []DB{NewRowStore(tb), NewColumnStore(tb)} {
			res, err := execSQL(db, "SELECT COUNT(*) AS n FROM t WHERE f >= 1 AND c = 'x'")
			if err != nil {
				t.Fatalf("rows=%d %s: %v", rows, db.Name(), err)
			}
			want := int64(0)
			if rows == 5 {
				want = 4
			}
			if res.Value(0, 0).Int() != want {
				t.Fatalf("rows=%d %s: count = %v, want %d", rows, db.Name(), res.Value(0, 0), want)
			}
		}
	}
}

// TestPlannerUnknownColumnStats: conjuncts on columns absent from every
// dictionary and zone map score by defaults without panicking, and unknown
// column names surface the usual Prepare error.
func TestPlannerUnknownColumnStats(t *testing.T) {
	tb := twoColTable(2)
	ps := newPlannerStats(tb)
	// No addZones: numeric map empty, so every conjunct uses default scores.
	conjs := []minisql.Expr{
		&minisql.Compare{Col: "f", Op: minisql.CmpGt, Val: dataset.FV(1)},
		&minisql.Compare{Col: "c", Op: minisql.CmpEq, Val: dataset.SV("a")},
	}
	ordered, _ := orderConjuncts(ps, conjs)
	// Categorical equality (1/card = 1/2) beats the range default (1/3)?
	// No: 1/3 < 1/2, the range keeps first place. The point is determinism.
	if len(ordered) != 2 {
		t.Fatal("lost a conjunct")
	}
	cs := NewColumnStore(tb)
	if _, err := execSQL(cs, "SELECT COUNT(*) AS n FROM p WHERE nope = 1 AND f > 0"); err == nil {
		t.Fatal("unknown column must fail Prepare")
	}
}

// TestPlannerConstFoldsFirst: conjuncts that fold to constant false (values
// the dictionary never saw, empty IN lists) sort ahead of everything.
func TestPlannerConstFoldsFirst(t *testing.T) {
	tb := twoColTable(2)
	cs := NewColumnStore(tb)
	ps := cs.plannerStats(cs.cols["p"])
	conjs := []minisql.Expr{
		&minisql.Compare{Col: "f", Op: minisql.CmpLt, Val: dataset.FV(10)},
		&minisql.Compare{Col: "c", Op: minisql.CmpEq, Val: dataset.SV("unseen")},
	}
	ordered, changed := orderConjuncts(ps, conjs)
	if !changed || ordered[0].SQL() != "c = 'unseen'" {
		t.Fatalf("constant-false conjunct must run first, got %s", ordered[0].SQL())
	}
	sel, cost := scoreConjunct(ps, conjs[1])
	if sel != 0 || cost != costConst {
		t.Fatalf("dict-miss equality scored (%v, %d), want (0, %d)", sel, cost, costConst)
	}
}

// TestPlanningToggleNeverChangesResults sweeps a fixed query set across every
// store with planning on and off — cheap insurance on top of the fuzzer.
func TestPlanningToggleNeverChangesResults(t *testing.T) {
	tb := twoColTable(2)
	sqls := []string{
		"SELECT c, COUNT(*) AS n FROM p WHERE g < 4096 AND f < 100 GROUP BY c",
		"SELECT SUM(f) AS s FROM p WHERE c = 'a' AND f >= 10 AND g <= 8000",
		"SELECT COUNT(*) AS n FROM p WHERE f BETWEEN 5 AND 4 AND c != 'b'",
	}
	for _, sql := range sqls {
		var want string
		for i, db := range allStores(tb) {
			for _, planning := range []bool{true, false} {
				db.(Planner).SetPlanning(planning)
				res, err := execSQL(db, sql)
				if err != nil {
					t.Fatalf("%s planning=%v: %v", db.Name(), planning, err)
				}
				got := fmt.Sprint(res.Cols, res.Rows())
				if i == 0 && planning {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("%s planning=%v diverged on %q:\n got: %s\nwant: %s",
						db.Name(), planning, sql, got, want)
				}
			}
		}
	}
}

var _ = fmt.Sprintf // keep fmt imported if cases above change
