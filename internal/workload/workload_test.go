package workload

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
)

func TestSalesShapeAndDeterminism(t *testing.T) {
	cfg := SalesConfig{Rows: 5000, Products: 20, Years: 8, Cities: 5, Seed: 9}
	a := Sales(cfg)
	b := Sales(cfg)
	if a.NumRows() != 5000 || a.NumCols() != 10 {
		t.Fatalf("shape = %dx%d", a.NumRows(), a.NumCols())
	}
	for i := 0; i < 100; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if !ra[j].Equal(rb[j]) {
				t.Fatalf("not deterministic at row %d", i)
			}
		}
	}
	if got := a.Column("product").Cardinality(); got > 20 {
		t.Errorf("product cardinality = %d", got)
	}
	if got := a.Column("year").DistinctSorted(); len(got) > 8 {
		t.Errorf("years = %d", len(got))
	}
}

func TestSalesPlantedTrends(t *testing.T) {
	tb := Sales(SalesConfig{Rows: 50000, Products: 8, Years: 10, Cities: 5, Seed: 9})
	// product0000 rises, product0001 falls: compare mean revenue in first vs
	// last year.
	meanRev := func(product string, year int64) float64 {
		var sum float64
		var n int
		pc, yc, rc := tb.Column("product"), tb.Column("year"), tb.Column("revenue")
		for i := 0; i < tb.NumRows(); i++ {
			if pc.Value(i).S == product && yc.Value(i).I == year {
				sum += rc.Float(i)
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	if meanRev("product0000", 2015) <= meanRev("product0000", 2006) {
		t.Error("product0000 should rise")
	}
	if meanRev("product0001", 2015) >= meanRev("product0001", 2006) {
		t.Error("product0001 should fall")
	}
}

func TestAirlineShape(t *testing.T) {
	tb := Airline(AirlineConfig{Rows: 3000, Airports: 12, Years: 5, Seed: 1})
	if tb.NumRows() != 3000 || tb.NumCols() != 10 {
		t.Fatalf("shape = %dx%d", tb.NumRows(), tb.NumCols())
	}
	if tb.Column("airport").CodeOf("JFK") < 0 {
		t.Error("known airports should appear")
	}
	if tb.Column("Month").Field.Kind != dataset.KindString {
		t.Error("Month must be a string column (the corpus compares Month='06')")
	}
}

func TestCensusShape(t *testing.T) {
	tb := Census(CensusConfig{Rows: 2000, Seed: 1})
	if tb.NumRows() != 2000 || tb.NumCols() != 14 {
		t.Fatalf("shape = %dx%d", tb.NumRows(), tb.NumCols())
	}
	if len(tb.CategoricalColumns()) < 8 {
		t.Error("census should be categorical-heavy")
	}
	// Education correlates with wage by construction.
	var hsSum, phdSum float64
	var hsN, phdN int
	ec, wc := tb.Column("education"), tb.Column("wage_per_hour")
	for i := 0; i < tb.NumRows(); i++ {
		switch ec.Value(i).S {
		case "HS":
			hsSum += wc.Float(i)
			hsN++
		case "Doctorate":
			phdSum += wc.Float(i)
			phdN++
		}
	}
	if hsN == 0 || phdN == 0 || phdSum/float64(phdN) <= hsSum/float64(hsN) {
		t.Error("doctorate wages should exceed HS wages")
	}
}

func TestHousingShape(t *testing.T) {
	cfg := HousingConfig{Cities: 10, States: 3, Years: 4, Seed: 1}
	tb := Housing(cfg)
	if tb.NumRows() != 10*4*12 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	if tb.Column("state").Cardinality() != 3 {
		t.Errorf("states = %d", tb.Column("state").Cardinality())
	}
}

func TestGroupSweepCardinalities(t *testing.T) {
	tb := GroupSweep(20000, 100, 10, 5)
	if got := tb.Column("z").Cardinality(); got > 100 {
		t.Errorf("z cardinality = %d", got)
	}
	if got := len(tb.Column("x").DistinctSorted()); got > 10 {
		t.Errorf("x cardinality = %d", got)
	}
	// p1 selects roughly 10%.
	p1 := tb.Column("p1")
	yes := 0
	for i := 0; i < tb.NumRows(); i++ {
		if p1.Value(i).S == "yes" {
			yes++
		}
	}
	frac := float64(yes) / float64(tb.NumRows())
	if frac < 0.07 || frac > 0.13 {
		t.Errorf("p1 selectivity = %v, want ~0.10", frac)
	}
}

func TestSalesBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Sales(SalesConfig{Rows: 10})
}

// The fixtures are documented as deterministic: every call must build the
// same rows in the same order, down to the row-indexed weight and size
// columns and the order of the string dictionaries.
func TestFixturesAreDeterministic(t *testing.T) {
	for _, fixture := range []func() *dataset.Table{FixtureSales, FixtureAirline} {
		var a, b bytes.Buffer
		if err := dataset.WriteCSV(fixture(), &a); err != nil {
			t.Fatal(err)
		}
		if err := dataset.WriteCSV(fixture(), &b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: two calls wrote different CSV bytes", fixture().Name)
		}
	}
	if p := FixtureSales().Row(0)[0].S; p != "stapler" {
		t.Errorf("first sales row is product %q, want stapler (the documented order)", p)
	}
	if ap := FixtureAirline().Row(0)[0].S; ap != "JFK" {
		t.Errorf("first airline row is airport %q, want JFK (the documented order)", ap)
	}
}
