package engine

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/dataset"
	"repro/internal/minisql"
	"repro/internal/workload"
)

// offHeapPlan prepares sql on a store over a fresh off-heap table, runs it
// once and returns the plan with its answer rendered; nothing else it built
// stays reachable.
//
//go:noinline
func offHeapPlan(t *testing.T, store func(*dataset.Table) DB, sql string) (*Plan, string) {
	var csv bytes.Buffer
	if err := dataset.WriteCSV(workload.Sales(workload.SalesConfig{Rows: 20000, Products: 20, Years: 8, Cities: 10, Seed: 5}), &csv); err != nil {
		t.Fatal(err)
	}
	tb, err := dataset.ReadCSV("sales", &csv) // stitched into mappings (Chunks.Table)
	if err != nil {
		t.Fatal(err)
	}
	q, err := minisql.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := store(tb).Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	return p, fmt.Sprint(res.Rows())
}

// TestOffHeapPlanKeepsItsTable: a prepared plan is all it takes to keep its
// table's mappings: with every other reference dropped and three collections
// run, the plan answers as before, on either store. The scan runs under
// SetPanicOnFault, so a read of an unmapped array fails the test rather than
// the process: a plan runs as a batch of one, whose lone scan job par.Do
// runs on the calling goroutine and whose fault it returns as an error.
func TestOffHeapPlanKeepsItsTable(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for _, st := range []struct {
		name  string
		store func(*dataset.Table) DB
	}{
		{"column", func(tb *dataset.Table) DB { return NewColumnStoreFromSource(NewMemSource(tb)) }},
		{"row", func(tb *dataset.Table) DB { return NewRowStore(tb) }},
	} {
		name, store := st.name, st.store
		for _, sql := range []string{
			"SELECT year, SUM(revenue) AS s FROM sales WHERE revenue > 10 AND product = 'product0003' GROUP BY year ORDER BY year",
			"SELECT city, AVG(profit) AS p FROM sales WHERE weight <> 3 AND size IN (1, 2, 5) GROUP BY city ORDER BY city",
			"SELECT product, COUNT(*) AS n FROM sales WHERE city = 'city004' GROUP BY product ORDER BY product",
		} {
			p, want := offHeapPlan(t, store, sql)
			for i := 0; i < 3; i++ {
				runtime.GC()
			}
			res, err := p.Execute()
			if err != nil {
				t.Fatalf("%s store, %s: %v", name, sql, err)
			}
			if res.Len() == 0 {
				t.Fatalf("%s store, %s: no rows", name, sql)
			}
			if got := fmt.Sprint(res.Rows()); got != want {
				t.Errorf("%s store, %s after the collections:\n%.300s\nwant\n%.300s", name, sql, got, want)
			}
		}
	}
}
