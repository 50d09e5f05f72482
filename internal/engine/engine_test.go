package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/minisql"
)

// execSQL parses, prepares and runs one statement as a single plan: the
// test shorthand for Plan.Execute over SQL text.
func execSQL(db DB, sql string) (*Result, error) {
	q, err := minisql.Parse(sql)
	if err != nil {
		return nil, err
	}
	return execQuery(db, q)
}

// execQuery prepares and runs one parsed query as a single plan.
func execQuery(db DB, q *minisql.Query) (*Result, error) {
	p, err := db.Prepare(q)
	if err != nil {
		return nil, err
	}
	return p.Execute()
}

func salesTable() *dataset.Table {
	t := dataset.NewTable("sales", []dataset.Field{
		{Name: "product", Kind: dataset.KindString},
		{Name: "location", Kind: dataset.KindString},
		{Name: "year", Kind: dataset.KindInt},
		{Name: "sales", Kind: dataset.KindFloat},
		{Name: "profit", Kind: dataset.KindFloat},
	})
	products := []string{"chair", "table", "desk", "stapler"}
	locations := []string{"US", "UK"}
	rng := rand.New(rand.NewSource(7))
	for _, p := range products {
		for _, l := range locations {
			for y := 2010; y <= 2015; y++ {
				for rep := 0; rep < 3; rep++ {
					t.AppendRow(
						dataset.SV(p), dataset.SV(l), dataset.IV(int64(y)),
						dataset.FV(float64(100+rng.Intn(900))),
						dataset.FV(float64(rng.Intn(500))-100),
					)
				}
			}
		}
	}
	return t
}

func allStores(t *dataset.Table) []DB {
	return []DB{NewRowStore(t), NewBitmapStore(t), NewColumnStore(t), evenStore(3, t)}
}

// TestNewStoreResolvesBackendNames pins what each back-end name builds, now
// that the names resolve outside this package (cmd/zenvisage for all four,
// the server registry for column and auto): the constructor each name
// resolves to, with "auto" building exactly what "column" does, and the
// benchmark's shims ignoring their shard count — a table is cut by its data.
func TestNewStoreResolvesBackendNames(t *testing.T) {
	tb := twoColTable(3)
	cases := []struct {
		backend string
		db      DB
		name    string
	}{
		{"row", NewRowStore(tb), "rowstore"},
		{"bitmap", NewBitmapStore(tb), "bitmapstore"},
		{"column", NewColumnStore(tb), "columnstore"},
		{"auto", NewAutoStore(3, tb), "columnstore"},
		{"sharded shim", NewShardedStoreFromSource(3, NewMemSource(tb)), "columnstore"},
	}
	for _, tc := range cases {
		if tc.db.Name() != tc.name {
			t.Errorf("%s = %s, want %s", tc.backend, tc.db.Name(), tc.name)
		}
		if cs, ok := tc.db.(*ColumnStore); ok && len(cs.cols["p"].frags) != 1 {
			t.Errorf("%s: %d fragments over a one-segment table, want 1", tc.backend, len(cs.cols["p"].frags))
		}
	}
}

// evenStore is the column store with each table cut into n fragments of as
// equal size as integer division allows — some of them empty when n exceeds
// the segment count: the layouts the merge tests sweep.
func evenStore(n int, tables ...*dataset.Table) *ColumnStore {
	s := newColumnStore()
	for _, src := range memSources(tables) {
		s.add(src, evenCuts(src.NumSegments(), n))
	}
	return s
}

// evenCuts returns the interior boundaries of n even fragments over nseg
// segments.
func evenCuts(nseg, n int) []int {
	var cuts []int
	for i := 1; i < n; i++ {
		cuts = append(cuts, i*nseg/n)
	}
	return cuts
}

func TestSimpleAggregation(t *testing.T) {
	tb := salesTable()
	for _, db := range allStores(tb) {
		res, err := execSQL(db, "SELECT year, SUM(sales) FROM sales WHERE product='chair' AND location='US' GROUP BY year ORDER BY year")
		if err != nil {
			t.Fatalf("%s: %v", db.Name(), err)
		}
		if res.Len() != 6 {
			t.Fatalf("%s: %d rows, want 6", db.Name(), res.Len())
		}
		// Verify against a manual computation.
		want := make(map[int64]float64)
		prod, loc := tb.Column("product"), tb.Column("location")
		for i := 0; i < tb.NumRows(); i++ {
			if prod.Value(i).S == "chair" && loc.Value(i).S == "US" {
				want[tb.Column("year").Value(i).I] += tb.Column("sales").Float(i)
			}
		}
		for _, row := range res.Rows() {
			if got := row[1].Float(); got != want[row[0].Int()] {
				t.Errorf("%s: year %d sum = %v, want %v", db.Name(), row[0].Int(), got, want[row[0].Int()])
			}
		}
		// Sorted ascending by year.
		for i := 1; i < res.Len(); i++ {
			if res.Value(i, 0).Int() <= res.Value(i-1, 0).Int() {
				t.Errorf("%s: rows not ordered by year", db.Name())
			}
		}
	}
}

// aggTable, binTable and zipTable are the small tables of the tests below;
// TestReferenceEngineQueries replays those tests' queries over them.
func aggTable() *dataset.Table {
	tb := dataset.NewTable("t", []dataset.Field{
		{Name: "g", Kind: dataset.KindString},
		{Name: "v", Kind: dataset.KindFloat},
	})
	for i, v := range []float64{1, 2, 3, 10, 20} {
		g := "a"
		if i >= 3 {
			g = "b"
		}
		tb.AppendRow(dataset.SV(g), dataset.FV(v))
	}
	return tb
}

func binTable() *dataset.Table {
	tb := dataset.NewTable("w", []dataset.Field{
		{Name: "weight", Kind: dataset.KindFloat},
		{Name: "sales", Kind: dataset.KindFloat},
	})
	for i := 0; i < 100; i++ {
		tb.AppendRow(dataset.FV(float64(i)), dataset.FV(1))
	}
	return tb
}

func zipTable() *dataset.Table {
	tb := dataset.NewTable("z", []dataset.Field{
		{Name: "zip", Kind: dataset.KindString},
	})
	for _, z := range []string{"02134", "02999", "03000", "12999", "0213"} {
		tb.AppendRow(dataset.SV(z))
	}
	return tb
}

func TestAllAggregates(t *testing.T) {
	tb := aggTable()
	for _, db := range allStores(tb) {
		res, err := execSQL(db, "SELECT g, SUM(v) AS s, AVG(v) AS a, MIN(v) AS lo, MAX(v) AS hi, COUNT(*) AS n FROM t GROUP BY g ORDER BY g")
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 2 {
			t.Fatalf("%d rows", res.Len())
		}
		a := res.Rows()[0]
		if a[1].Float() != 6 || a[2].Float() != 2 || a[3].Float() != 1 || a[4].Float() != 3 || a[5].Int() != 3 {
			t.Errorf("%s: group a = %v", db.Name(), a)
		}
		b := res.Rows()[1]
		if b[1].Float() != 30 || b[2].Float() != 15 || b[3].Float() != 10 || b[4].Float() != 20 || b[5].Int() != 2 {
			t.Errorf("%s: group b = %v", db.Name(), b)
		}
	}
}

func TestProjectionWithoutAggregation(t *testing.T) {
	tb := salesTable()
	for _, db := range allStores(tb) {
		res, err := execSQL(db, "SELECT product, sales FROM sales WHERE year = 2010 AND location = 'UK' ORDER BY sales DESC LIMIT 5")
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 5 {
			t.Fatalf("%s: %d rows", db.Name(), res.Len())
		}
		for i := 1; i < res.Len(); i++ {
			if res.Value(i, 1).Float() > res.Value(i-1, 1).Float() {
				t.Errorf("%s: not descending", db.Name())
			}
		}
	}
}

func TestBinning(t *testing.T) {
	tb := binTable()
	for _, db := range allStores(tb) {
		res, err := execSQL(db, "SELECT BIN(weight, 20) AS w, SUM(sales) AS s FROM w GROUP BY BIN(weight, 20) ORDER BY w")
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 5 {
			t.Fatalf("%s: %d bins, want 5", db.Name(), res.Len())
		}
		for i, row := range res.Rows() {
			if row[0].Float() != float64(i*20) || row[1].Float() != 20 {
				t.Errorf("%s: bin %d = %v", db.Name(), i, row)
			}
		}
	}
}

func TestLikePredicate(t *testing.T) {
	tb := zipTable()
	for _, db := range allStores(tb) {
		res, err := execSQL(db, "SELECT zip FROM z WHERE zip LIKE '02___'")
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 2 {
			t.Errorf("%s: LIKE '02___' matched %d, want 2", db.Name(), res.Len())
		}
		res, err = execSQL(db, "SELECT zip FROM z WHERE zip LIKE '0%9'")
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 || res.Value(0, 0).S != "02999" {
			t.Errorf("%s: LIKE '0%%9' = %v", db.Name(), res.Rows())
		}
	}
}

func TestLikeMatcher(t *testing.T) {
	cases := []struct {
		pattern string
		s       string
		want    bool
	}{
		{"abc", "abc", true},
		{"abc", "abcd", false},
		{"a_c", "abc", true},
		{"a_c", "ac", false},
		{"%", "", true},
		{"%", "anything", true},
		{"a%", "abc", true},
		{"a%", "ba", false},
		{"%c", "abc", true},
		{"%b%", "abc", true},
		{"%b%", "ac", false},
		{"a%c%e", "abcde", true},
		{"a%c%e", "ace", true},
		{"a%c%e", "aec", false},
		{"02%", "02134", true},
		{"", "", true},
		{"", "x", false},
	}
	for _, c := range cases {
		if got := compileLikeMatcher(c.pattern)(c.s); got != c.want {
			t.Errorf("LIKE %q on %q = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
}

func TestInAndBetween(t *testing.T) {
	tb := salesTable()
	for _, db := range allStores(tb) {
		res, err := execSQL(db, "SELECT product, SUM(sales) FROM sales WHERE product IN ('chair','desk') AND year BETWEEN 2011 AND 2012 GROUP BY product ORDER BY product")
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 2 || res.Value(0, 0).S != "chair" || res.Value(1, 0).S != "desk" {
			t.Errorf("%s: rows = %v", db.Name(), res.Rows())
		}
	}
}

func TestOrNotPredicates(t *testing.T) {
	tb := salesTable()
	for _, db := range allStores(tb) {
		res, err := execSQL(db, "SELECT COUNT(*) FROM sales WHERE product = 'chair' OR product = 'desk'")
		if err != nil {
			t.Fatal(err)
		}
		if res.Value(0, 0).Int() != 2*2*6*3 {
			t.Errorf("%s: OR count = %v", db.Name(), res.Value(0, 0))
		}
		res, err = execSQL(db, "SELECT COUNT(*) FROM sales WHERE NOT (product = 'chair')")
		if err != nil {
			t.Fatal(err)
		}
		if res.Value(0, 0).Int() != 3*2*6*3 {
			t.Errorf("%s: NOT count = %v", db.Name(), res.Value(0, 0))
		}
		res, err = execSQL(db, "SELECT COUNT(*) FROM sales WHERE product != 'chair'")
		if err != nil {
			t.Fatal(err)
		}
		if res.Value(0, 0).Int() != 3*2*6*3 {
			t.Errorf("%s: != count = %v", db.Name(), res.Value(0, 0))
		}
	}
}

func TestMissingTableAndColumn(t *testing.T) {
	tb := salesTable()
	for _, db := range allStores(tb) {
		if _, err := execSQL(db, "SELECT a FROM nope"); err == nil {
			t.Errorf("%s: missing table should error", db.Name())
		}
		if _, err := execSQL(db, "SELECT nope FROM sales"); err == nil {
			t.Errorf("%s: missing select column should error", db.Name())
		}
		if _, err := execSQL(db, "SELECT product FROM sales WHERE nope = 1"); err == nil {
			t.Errorf("%s: missing predicate column should error", db.Name())
		}
		if _, err := execSQL(db, "SELECT product FROM sales GROUP BY nope"); err == nil {
			t.Errorf("%s: missing group column should error", db.Name())
		}
		if _, err := execSQL(db, "SELECT product FROM sales ORDER BY other"); err == nil {
			t.Errorf("%s: unknown order column should error", db.Name())
		}
	}
}

func TestEqualityOnUnseenValue(t *testing.T) {
	tb := salesTable()
	for _, db := range allStores(tb) {
		res, err := execSQL(db, "SELECT COUNT(*) FROM sales WHERE product = 'widget'")
		if err != nil {
			t.Fatal(err)
		}
		// COUNT over an empty group set yields no rows.
		if res.Len() != 1 || res.Value(0, 0).Int() != 0 {
			t.Errorf("%s: unseen equality = %v", db.Name(), res.Rows())
		}
	}
}

func TestCountersAdvance(t *testing.T) {
	tb := salesTable()
	for _, db := range allStores(tb) {
		before := db.Counters()
		if _, err := execSQL(db, "SELECT COUNT(*) FROM sales"); err != nil {
			t.Fatal(err)
		}
		after := db.Counters()
		if after.Queries != before.Queries+1 {
			t.Errorf("%s: queries %d -> %d", db.Name(), before.Queries, after.Queries)
		}
		if after.RowsScanned <= before.RowsScanned {
			t.Errorf("%s: rows scanned did not advance", db.Name())
		}
	}
}

func TestBitmapScansFewerRowsOnSelectivePredicates(t *testing.T) {
	tb := salesTable()
	row, bit := NewRowStore(tb), NewBitmapStore(tb)
	q := "SELECT year, SUM(sales) FROM sales WHERE product='chair' AND location='US' GROUP BY year ORDER BY year"
	if _, err := execSQL(row, q); err != nil {
		t.Fatal(err)
	}
	if _, err := execSQL(bit, q); err != nil {
		t.Fatal(err)
	}
	if bit.Counters().RowsScanned >= row.Counters().RowsScanned {
		t.Errorf("bitmap store scanned %d rows, row store %d; bitmap should scan fewer",
			bit.Counters().RowsScanned, row.Counters().RowsScanned)
	}
}

func TestIndexSizeReporting(t *testing.T) {
	tb := salesTable()
	s := NewBitmapStore(tb)
	if s.IndexSizeBytes("sales") <= 0 {
		t.Error("index size should be positive")
	}
	if s.IndexSizeBytes("nope") != 0 {
		t.Error("unknown table index size should be zero")
	}
}

// TestDifferentialRandomQueries cross-checks the two back-ends on randomly
// generated queries: they must return identical results.
func TestDifferentialRandomQueries(t *testing.T) {
	tb := salesTable()
	row, bit := NewRowStore(tb), NewBitmapStore(tb)
	rng := rand.New(rand.NewSource(11))
	products := []string{"chair", "table", "desk", "stapler", "widget"}
	locations := []string{"US", "UK", "FR"}
	preds := func() string {
		var opts []string
		opts = append(opts, fmt.Sprintf("product = '%s'", products[rng.Intn(len(products))]))
		opts = append(opts, fmt.Sprintf("location != '%s'", locations[rng.Intn(len(locations))]))
		opts = append(opts, fmt.Sprintf("year >= %d", 2010+rng.Intn(6)))
		opts = append(opts, fmt.Sprintf("sales < %d", 200+rng.Intn(800)))
		opts = append(opts, fmt.Sprintf("product IN ('%s', '%s')", products[rng.Intn(len(products))], products[rng.Intn(len(products))]))
		n := 1 + rng.Intn(3)
		out := opts[rng.Intn(len(opts))]
		for i := 1; i < n; i++ {
			conj := " AND "
			if rng.Intn(2) == 0 {
				conj = " OR "
			}
			out += conj + opts[rng.Intn(len(opts))]
		}
		return out
	}
	for trial := 0; trial < 60; trial++ {
		q := fmt.Sprintf("SELECT year, SUM(sales) AS s, COUNT(*) AS n FROM sales WHERE %s GROUP BY year ORDER BY year", preds())
		r1, err1 := execSQL(row, q)
		r2, err2 := execSQL(bit, q)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error divergence on %q: %v vs %v", q, err1, err2)
		}
		if err1 != nil {
			continue
		}
		parsed, err := minisql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, tb, []DB{row, bit}, parsed)
		if r1.Len() != r2.Len() {
			t.Fatalf("row count divergence on %q: %d vs %d", q, r1.Len(), r2.Len())
		}
		for i := 0; i < r1.Len(); i++ {
			for j := range r1.Cols {
				if !r1.Value(i, j).Equal(r2.Value(i, j)) {
					t.Fatalf("value divergence on %q at (%d,%d): %v vs %v", q, i, j, r1.Value(i, j), r2.Value(i, j))
				}
			}
		}
	}
}

func TestResultColIndex(t *testing.T) {
	r := &Result{Cols: []string{"a", "b"}}
	if r.ColIndex("b") != 1 || r.ColIndex("z") != -1 {
		t.Error("ColIndex broken")
	}
}

func TestNonGroupedPlainColumnTakesRepresentative(t *testing.T) {
	tb := salesTable()
	for _, db := range allStores(tb) {
		// location is not grouped; executor takes the group's first row value.
		res, err := execSQL(db, "SELECT year, location, SUM(sales) FROM sales WHERE location='US' GROUP BY year ORDER BY year")
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows() {
			if row[1].S != "US" {
				t.Errorf("%s: representative = %v", db.Name(), row[1])
			}
		}
	}
}
