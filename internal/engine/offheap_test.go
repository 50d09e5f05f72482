package engine

import (
	"bytes"
	"context"
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

// executeHere runs p's scan on the calling goroutine, so that its
// SetPanicOnFault covers every read of the table, and returns a fault as an
// error. The row store scans a single plan on its caller's goroutine; a
// column-store plan's one scan job is run here directly (runJob contains its
// panics) instead of on the store's worker pool.
func executeHere(p *Plan) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("fault: %v", r)
		}
	}()
	cs, ok := p.db.(*ColumnStore)
	if !ok {
		return p.Execute()
	}
	ct := cs.cols[p.t.Name]
	if len(ct.ranges) != 1 {
		return nil, fmt.Errorf("%d ranges, want 1", len(ct.ranges))
	}
	j := &scanJob{ct: ct, r: ct.ranges[0], idx: []int{0}}
	if err := cs.runJob(context.Background(), j, []*Plan{p}, nil); err != nil {
		return nil, err
	}
	return j.sinks[0].finish(), nil
}

// TestOffHeapPlanKeepsItsTable: a prepared plan is all it takes to keep its
// table's mappings: with every other reference dropped and three collections
// run, the plan answers as before, on either store. The scan runs under
// SetPanicOnFault, so a read of an unmapped array fails the test rather than
// the process.
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
			res, err := executeHere(p)
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
