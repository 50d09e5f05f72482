package engine

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/minisql"
)

// genWorkload builds a deterministic mix of slice/aggregate queries of the
// shapes zexec emits: per-slice equality filters, IN-list batches, range
// constraints, grouped multi-aggregates, and plain projections.
func genWorkload(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	products := []string{"chair", "table", "desk", "stapler", "widget"}
	locations := []string{"US", "UK", "FR"}
	var out []string
	for i := 0; i < n; i++ {
		switch rng.Intn(5) {
		case 0:
			out = append(out, fmt.Sprintf(
				"SELECT year, SUM(sales) AS a0 FROM sales WHERE product = '%s' GROUP BY year ORDER BY year",
				products[rng.Intn(len(products))]))
		case 1:
			out = append(out, fmt.Sprintf(
				"SELECT year, AVG(sales) AS a0, product FROM sales WHERE product IN ('%s', '%s') AND location = '%s' GROUP BY product, year ORDER BY product, year",
				products[rng.Intn(len(products))], products[rng.Intn(len(products))],
				locations[rng.Intn(len(locations))]))
		case 2:
			out = append(out, fmt.Sprintf(
				"SELECT year, MIN(profit) AS lo, MAX(profit) AS hi, COUNT(*) AS n FROM sales WHERE year >= %d AND sales < %d GROUP BY year ORDER BY year",
				2010+rng.Intn(6), 200+rng.Intn(800)))
		case 3:
			out = append(out, fmt.Sprintf(
				"SELECT product, sales FROM sales WHERE location = '%s' AND year BETWEEN %d AND %d ORDER BY sales DESC LIMIT %d",
				locations[rng.Intn(len(locations))], 2010+rng.Intn(3), 2013+rng.Intn(3), 1+rng.Intn(20)))
		default:
			out = append(out, fmt.Sprintf(
				"SELECT BIN(sales, 100) AS b, COUNT(*) AS n FROM sales WHERE product != '%s' GROUP BY BIN(sales, 100) ORDER BY b",
				products[rng.Intn(len(products))]))
		}
	}
	return out
}

func mustPrepareAll(t *testing.T, db DB, sqls []string) []*Plan {
	t.Helper()
	plans := make([]*Plan, len(sqls))
	for i, s := range sqls {
		q, err := minisql.Parse(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		p, err := db.Prepare(q)
		if err != nil {
			t.Fatalf("%s: prepare %q: %v", db.Name(), s, err)
		}
		plans[i] = p
	}
	return plans
}

func assertSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: cols %v vs %v", label, got.Cols, want.Cols)
	}
	for i := range want.Cols {
		if got.Cols[i] != want.Cols[i] {
			t.Fatalf("%s: cols %v vs %v", label, got.Cols, want.Cols)
		}
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows vs %d", label, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		for j := range want.Cols {
			g, w := got.Value(i, j), want.Value(i, j)
			if g.IsNull() != w.IsNull() || (!w.IsNull() && !g.Equal(w)) {
				t.Fatalf("%s: row %d col %d: %v vs %v", label, i, j, g, w)
			}
		}
	}
}

// TestExecuteBatchMatchesExecute is the differential test for the batch
// path: on both back-ends, ExecuteBatch over a generated workload must
// return exactly what per-query Execute returns.
func TestExecuteBatchMatchesExecute(t *testing.T) {
	tb := salesTable()
	sqls := genWorkload(23, 64)
	for _, db := range allStores(tb) {
		plans := mustPrepareAll(t, db, sqls)
		batch, err := db.ExecuteBatch(context.Background(), plans)
		if err != nil {
			t.Fatalf("%s: ExecuteBatch: %v", db.Name(), err)
		}
		if len(batch) != len(plans) {
			t.Fatalf("%s: %d results for %d plans", db.Name(), len(batch), len(plans))
		}
		for i, p := range plans {
			single, err := p.Execute()
			if err != nil {
				t.Fatalf("%s: Execute %q: %v", db.Name(), sqls[i], err)
			}
			assertSameResult(t, fmt.Sprintf("%s %q", db.Name(), sqls[i]), batch[i], single)
		}
	}
}

// TestExecuteBatchAcrossStores cross-checks the two back-ends' batch
// executors against each other.
func TestExecuteBatchAcrossStores(t *testing.T) {
	tb := salesTable()
	sqls := genWorkload(41, 48)
	row, bit := NewRowStore(tb), NewBitmapStore(tb)
	rowRes, err := row.ExecuteBatch(context.Background(), mustPrepareAll(t, row, sqls))
	if err != nil {
		t.Fatal(err)
	}
	bitRes, err := bit.ExecuteBatch(context.Background(), mustPrepareAll(t, bit, sqls))
	if err != nil {
		t.Fatal(err)
	}
	for i := range sqls {
		assertSameResult(t, sqls[i], bitRes[i], rowRes[i])
	}
}

// TestExecuteBatchParallelismOne forces a single shared scan for the whole
// batch and checks both correctness and the scan-sharing counter.
func TestExecuteBatchParallelismOne(t *testing.T) {
	tb := salesTable()
	db := NewRowStore(tb)
	db.SetParallelism(1)
	sqls := genWorkload(7, 16)
	plans := mustPrepareAll(t, db, sqls)
	before := db.Counters()
	batch, err := db.ExecuteBatch(context.Background(), plans)
	if err != nil {
		t.Fatal(err)
	}
	after := db.Counters()
	if got := after.Queries - before.Queries; got != int64(len(plans)) {
		t.Errorf("queries counter advanced by %d, want %d", got, len(plans))
	}
	// One worker means one shared scan: the whole batch costs one table
	// length, not len(plans) of them.
	if got := after.RowsScanned - before.RowsScanned; got != int64(tb.NumRows()) {
		t.Errorf("batch scanned %d rows, want one shared scan of %d", got, tb.NumRows())
	}
	for i, p := range plans {
		single, err := p.Execute()
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, sqls[i], batch[i], single)
	}
}

// TestPlanReuse executes one prepared plan repeatedly; results must not
// leak state between runs.
func TestPlanReuse(t *testing.T) {
	tb := salesTable()
	for _, db := range allStores(tb) {
		q, err := minisql.Parse("SELECT year, SUM(sales) AS s FROM sales WHERE product = 'chair' GROUP BY year ORDER BY year")
		if err != nil {
			t.Fatal(err)
		}
		p, err := db.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		first, err := p.Execute()
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			again, err := p.Execute()
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, fmt.Sprintf("%s rep %d", db.Name(), rep), again, first)
		}
	}
}

// TestPrepareRejectsForeignPlan ensures a plan cannot run on a back-end
// that did not prepare it.
func TestPrepareRejectsForeignPlan(t *testing.T) {
	tb := salesTable()
	row, bit := NewRowStore(tb), NewBitmapStore(tb)
	q, err := minisql.Parse("SELECT COUNT(*) FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	p, err := row.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bit.ExecuteBatch(context.Background(), []*Plan{p}); err == nil {
		t.Error("bitmap store accepted a row-store plan")
	}
	if _, err := row.ExecuteBatch(context.Background(), []*Plan{nil}); err == nil {
		t.Error("nil plan accepted")
	}
}

// TestEmptyMatchAggregates pins the SQL semantics of aggregates over an
// empty match set with no GROUP BY: COUNT is 0 and every other aggregate
// is NULL.
func TestEmptyMatchAggregates(t *testing.T) {
	tb := salesTable()
	for _, db := range allStores(tb) {
		res, err := execSQL(db, "SELECT COUNT(*) AS n, SUM(sales) AS s, MIN(sales) AS lo, MAX(sales) AS hi, AVG(sales) AS a FROM sales WHERE product = 'nothing'")
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 {
			t.Fatalf("%s: %d rows, want 1", db.Name(), res.Len())
		}
		row := res.Rows()[0]
		if row[0].Int() != 0 {
			t.Errorf("%s: COUNT over empty set = %v, want 0", db.Name(), row[0])
		}
		for i, name := range []string{"SUM", "MIN", "MAX", "AVG"} {
			if !row[1+i].IsNull() {
				t.Errorf("%s: %s over empty set = %v, want NULL", db.Name(), name, row[1+i])
			}
		}
	}
}

// TestPrepareValidation pins the errors Prepare reports for unresolvable
// queries — validation happens once, before any execution.
func TestPrepareValidation(t *testing.T) {
	tb := salesTable()
	for _, db := range allStores(tb) {
		for _, bad := range []string{
			"SELECT a FROM nope",
			"SELECT nope FROM sales",
			"SELECT product FROM sales GROUP BY nope",
			"SELECT product FROM sales ORDER BY other",
			"SELECT product FROM sales WHERE nope = 1",
		} {
			q, err := minisql.Parse(bad)
			if err != nil {
				t.Fatalf("parse %q: %v", bad, err)
			}
			if _, err := db.Prepare(q); err == nil {
				t.Errorf("%s: Prepare(%q) should fail", db.Name(), bad)
			}
		}
	}
}

// TestExecuteBatchContainsPredicatePanic: a plan whose compiled predicate
// panics, batched with a healthy plan on two workers, fails the batch with an
// error on the row store and on the bitmap store (whose WHERE on a measure
// is not indexable, so the drain calls the predicate) instead of killing the
// process.
func TestExecuteBatchContainsPredicatePanic(t *testing.T) {
	for _, db := range []interface {
		DB
		SetParallelism(int)
	}{NewRowStore(salesTable()), NewBitmapStore(salesTable())} {
		db.SetParallelism(2)
		plans := mustPrepareAll(t, db, []string{
			"SELECT year, SUM(sales) AS s FROM sales WHERE profit > 0 GROUP BY year",
			"SELECT year, COUNT(*) AS n FROM sales WHERE sales > 500 GROUP BY year",
		})
		plans[1].pred = func(int) bool { panic("predicate kaboom") }
		_, err := db.ExecuteBatch(context.Background(), plans)
		if err == nil || !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "predicate kaboom") {
			t.Errorf("%s: got %v, want the contained predicate panic", db.Name(), err)
		}
	}
}
