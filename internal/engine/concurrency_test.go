package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/minisql"
)

// The concurrent-read contract of all three back-ends: tables are immutable
// after build, indexes/zone maps are immutable after store construction,
// roaring set operations are functional (they return fresh bitmaps, or share
// inputs read-only), plan execution state lives in per-execution sinks (the
// column store's compiled vecFilters hold only immutable state), and the
// cumulative counters are atomics. This test drives every read entry point
// from many goroutines at once so `go test -race` verifies the audit.

// concurrencyQueries is a mix of shapes: indexable equality (bitmap fast
// path), range predicates (int index), residual predicates (post-filter),
// aggregation, grouping, ordering, and full scans.
var concurrencyQueries = []string{
	"SELECT year, SUM(sales) FROM sales WHERE product='chair' AND location='US' GROUP BY year ORDER BY year",
	"SELECT year, AVG(profit) FROM sales WHERE product='table' GROUP BY year ORDER BY year",
	"SELECT product, COUNT(*) FROM sales GROUP BY product ORDER BY product",
	"SELECT year, SUM(sales) FROM sales WHERE year >= 2012 AND profit > 0 GROUP BY year ORDER BY year",
	"SELECT product, location, MAX(sales) FROM sales GROUP BY product, location ORDER BY product, location",
	"SELECT year, sales FROM sales WHERE product='desk' AND location='UK' ORDER BY year LIMIT 10",
	"SELECT COUNT(*) FROM sales WHERE product IN ('chair', 'stapler')",
}

func TestConcurrentReaders(t *testing.T) {
	tb := salesTable()
	for _, db := range allStores(tb) {
		name := db.Name()
		if cs, ok := db.(*ColumnStore); ok && len(cs.cols["sales"].frags) > 1 {
			name = "fragmented"
		}
		t.Run(name, func(t *testing.T) {
			// Baseline results computed sequentially before any concurrency.
			want := make([]*Result, len(concurrencyQueries))
			for i, sql := range concurrencyQueries {
				res, err := execSQL(db, sql)
				if err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
				want[i] = res
			}
			const goroutines = 8
			const rounds = 20
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						// Single-plan path.
						qi := (g + r) % len(concurrencyQueries)
						res, err := execSQL(db, concurrencyQueries[qi])
						if err != nil {
							errs <- err
							return
						}
						if err := sameResult(res, want[qi]); err != nil {
							errs <- fmt.Errorf("query %d: %w", qi, err)
							return
						}
						// Batch path: every query as one shared-scan batch.
						plans := make([]*Plan, len(concurrencyQueries))
						for i, sql := range concurrencyQueries {
							q, err := minisql.Parse(sql)
							if err != nil {
								errs <- err
								return
							}
							if plans[i], err = db.Prepare(q); err != nil {
								errs <- err
								return
							}
						}
						results, err := db.ExecuteBatch(context.Background(), plans)
						if err != nil {
							errs <- err
							return
						}
						for i, res := range results {
							if err := sameResult(res, want[i]); err != nil {
								errs <- fmt.Errorf("batch query %d: %w", i, err)
								return
							}
						}
						// Counter reads race with the writers by design.
						_ = db.Counters()
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// sameResult compares two results cell by cell.
func sameResult(got, want *Result) error {
	if len(got.Cols) != len(want.Cols) {
		return fmt.Errorf("cols = %v, want %v", got.Cols, want.Cols)
	}
	if got.Len() != want.Len() {
		return fmt.Errorf("%d rows, want %d", got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		for j := range got.Cols {
			if !got.Value(i, j).Equal(want.Value(i, j)) {
				return fmt.Errorf("row %d col %d = %v, want %v", i, j, got.Value(i, j), want.Value(i, j))
			}
		}
	}
	return nil
}
