package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
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

// TestSkipProvenancePostReorder pins written-order credit: a segment that
// two conjuncts could each prove empty is credited to the one written first,
// whichever it is.
func TestSkipProvenancePostReorder(t *testing.T) {
	// f and g hold identical values, so segments 1 and 2 (values >= 4096) are
	// provably empty under both "g < 4096" and "f < 100".
	for _, tc := range []struct {
		where       string
		first, next string
	}{
		{"g < 4096 AND f < 100", "g", "f"},
		{"f < 100 AND g < 4096", "f", "g"},
	} {
		cs := NewColumnStore(twoColTable(3))
		if _, err := execSQL(cs, "SELECT COUNT(*) AS n FROM p WHERE "+tc.where); err != nil {
			t.Fatal(err)
		}
		prov := cs.Stats().SkipProvenance
		if prov[SkipAttr{Column: tc.first, Via: "zonemap"}] != 2 {
			t.Errorf("%s: want 2 skips credited to written-first %s, got %v", tc.where, tc.first, prov)
		}
		if prov[SkipAttr{Column: tc.next, Via: "zonemap"}] != 0 {
			t.Errorf("%s: %s is credited though written second: %v", tc.where, tc.next, prov)
		}
	}
}

// TestDictMissSkipsInEveryPosition: an equality on a value the dictionary
// never saw folds to constant false, so wherever it is written — first,
// middle or last — the column store scans no row and skips every segment,
// on one fragment and on three.
func TestDictMissSkipsInEveryPosition(t *testing.T) {
	const nseg = 3
	legs := []string{"f >= 0", "g < 100000"}
	miss := "c = 'unseen'"
	for pos := 0; pos <= len(legs); pos++ {
		conjs := append(append(append([]string(nil), legs[:pos]...), miss), legs[pos:]...)
		sql := "SELECT COUNT(*) AS n FROM p WHERE " + strings.Join(conjs, " AND ")
		for _, cs := range []*ColumnStore{NewColumnStore(twoColTable(nseg)), evenStore(3, twoColTable(nseg))} {
			name := fmt.Sprintf("%d fragment(s), %q", len(cs.frags), sql)
			res, err := execSQL(cs, sql)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := res.Value(0, 0).Int(); got != 0 {
				t.Errorf("%s: count = %d, want 0", name, got)
			}
			st := cs.Stats()
			if st.RowsScanned != 0 || st.SegmentsSkipped != nseg {
				t.Errorf("%s: %d rows scanned, %d segments skipped, want 0 and %d",
					name, st.RowsScanned, st.SegmentsSkipped, nseg)
			}
			if got := st.SkipProvenance[SkipAttr{Column: "c", Via: "const"}]; got != nseg {
				t.Errorf("%s: %d skips credited to the dictionary miss, want %d (%v)", name, got, nseg, st.SkipProvenance)
			}
		}
	}
}

// TestPlannerAllNaNZones: a float column holding only NaN yields no zone
// envelope (its per-segment min/max fold to the +Inf/-Inf identity), and
// execution stays correct beside a column whose zones are normal.
func TestPlannerAllNaNZones(t *testing.T) {
	tb := dataset.NewTable("t", []dataset.Field{
		{Name: "f", Kind: dataset.KindFloat},
		{Name: "g", Kind: dataset.KindFloat},
	})
	for i := 0; i < 2*SegmentSize; i++ {
		tb.AppendRow(dataset.FV(math.NaN()), dataset.FV(float64(i)))
	}
	cs := NewColumnStore(tb)
	res, err := execSQL(cs, "SELECT COUNT(*) AS n FROM t WHERE f > 0 AND g < 10")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value(0, 0).Int() != 0 {
		t.Fatalf("NaN comparisons must match nothing, got %v", res.Value(0, 0))
	}
}

// TestPlannerSingleSegmentAndEmpty: multi-conjunct plans must behave on
// tables too small for zone maps to matter, and on entirely empty tables.
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

// TestPlannerUnknownColumnStats: an unknown column in any conjunct surfaces
// the usual Prepare error.
func TestPlannerUnknownColumnStats(t *testing.T) {
	cs := NewColumnStore(twoColTable(2))
	if _, err := execSQL(cs, "SELECT COUNT(*) AS n FROM p WHERE nope = 1 AND f > 0"); err == nil {
		t.Fatal("unknown column must fail Prepare")
	}
}
