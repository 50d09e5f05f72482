package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// rangeTable has a low-cardinality int column (indexable) and a
// high-cardinality one (not indexable).
func rangeTable() *dataset.Table {
	t := dataset.NewTable("r", []dataset.Field{
		{Name: "year", Kind: dataset.KindInt},
		{Name: "id", Kind: dataset.KindInt},
		{Name: "cat", Kind: dataset.KindString},
		{Name: "v", Kind: dataset.KindFloat},
	})
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 20000; i++ {
		t.AppendRow(
			dataset.IV(int64(2000+rng.Intn(20))),
			dataset.IV(int64(i)), // 20000 distinct: above the index bound
			dataset.SV(fmt.Sprintf("c%d", rng.Intn(5))),
			dataset.FV(rng.Float64()*100),
		)
	}
	return t
}

func TestIntIndexBuiltSelectively(t *testing.T) {
	s := NewBitmapStore(rangeTable())
	if _, ok := s.intIndexes["year"]; !ok {
		t.Error("year (20 distinct) should be int-indexed")
	}
	if _, ok := s.intIndexes["id"]; ok {
		t.Error("id (20000 distinct) should not be int-indexed")
	}
}

// TestRangePredicatesDifferential cross-checks every range operator shape
// against the row store.
func TestRangePredicatesDifferential(t *testing.T) {
	tb := rangeTable()
	row, bit := NewRowStore(tb), NewBitmapStore(tb)
	queries := []string{
		"SELECT COUNT(*) FROM r WHERE year < 2005",
		"SELECT COUNT(*) FROM r WHERE year <= 2005",
		"SELECT COUNT(*) FROM r WHERE year > 2015",
		"SELECT COUNT(*) FROM r WHERE year >= 2015",
		"SELECT COUNT(*) FROM r WHERE year = 2010",
		"SELECT COUNT(*) FROM r WHERE year != 2010",
		"SELECT COUNT(*) FROM r WHERE year BETWEEN 2005 AND 2010",
		"SELECT COUNT(*) FROM r WHERE year IN (2001, 2003, 2019)",
		"SELECT COUNT(*) FROM r WHERE year BETWEEN 2005 AND 2010 AND cat = 'c1'",
		"SELECT COUNT(*) FROM r WHERE year < 2002 OR year > 2018",
		"SELECT COUNT(*) FROM r WHERE NOT (year BETWEEN 2002 AND 2018)",
		"SELECT COUNT(*) FROM r WHERE year = 1999",  // below domain
		"SELECT COUNT(*) FROM r WHERE year > 2100",  // above domain
		"SELECT COUNT(*) FROM r WHERE year <= 1800", // empty
		"SELECT year, COUNT(*) AS n FROM r WHERE year >= 2010 GROUP BY year ORDER BY year",
	}
	for _, q := range queries {
		r1, err1 := execSQL(row, q)
		r2, err2 := execSQL(bit, q)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v / %v", q, err1, err2)
		}
		if r1.Len() != r2.Len() {
			t.Fatalf("%s: %d vs %d rows", q, r1.Len(), r2.Len())
		}
		for i := 0; i < r1.Len(); i++ {
			for j := range r1.Cols {
				if !r1.Value(i, j).Equal(r2.Value(i, j)) {
					t.Fatalf("%s: cell (%d,%d) %v vs %v", q, i, j, r1.Value(i, j), r2.Value(i, j))
				}
			}
		}
	}
}

func TestRangePredicateScansLessThanFullTable(t *testing.T) {
	tb := rangeTable()
	bit := NewBitmapStore(tb)
	before := bit.Counters().RowsScanned
	if _, err := execSQL(bit, "SELECT COUNT(*) FROM r WHERE year < 2002"); err != nil {
		t.Fatal(err)
	}
	scanned := bit.Counters().RowsScanned - before
	if scanned >= int64(tb.NumRows())/2 {
		t.Errorf("range predicate scanned %d rows of %d; index not used", scanned, tb.NumRows())
	}
}

func TestFractionalRangeBounds(t *testing.T) {
	tb := rangeTable()
	row, bit := NewRowStore(tb), NewBitmapStore(tb)
	// Fractional comparisons exercise the ceil/floor boundary logic.
	for _, q := range []string{
		"SELECT COUNT(*) FROM r WHERE year < 2005.5",
		"SELECT COUNT(*) FROM r WHERE year >= 2004.5",
		"SELECT COUNT(*) FROM r WHERE year = 2005.5",
	} {
		r1, _ := execSQL(row, q)
		r2, err := execSQL(bit, q)
		if err != nil {
			t.Fatal(err)
		}
		if !r1.Value(0, 0).Equal(r2.Value(0, 0)) {
			t.Errorf("%s: %v vs %v", q, r1.Value(0, 0), r2.Value(0, 0))
		}
	}
}

func TestUnindexedIntStillCorrect(t *testing.T) {
	tb := rangeTable()
	row, bit := NewRowStore(tb), NewBitmapStore(tb)
	q := "SELECT COUNT(*) FROM r WHERE id < 100 AND cat = 'c1'"
	r1, _ := execSQL(row, q)
	r2, err := execSQL(bit, q)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Value(0, 0).Equal(r2.Value(0, 0)) {
		t.Errorf("%v vs %v", r1.Value(0, 0), r2.Value(0, 0))
	}
}
