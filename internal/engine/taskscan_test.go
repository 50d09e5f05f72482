package engine_test

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/minisql"
	"repro/internal/workload"
	"repro/internal/zpack"
)

// taskScanQuery returns the query a front-end task compiles to — every
// product's (year, AVG(revenue)) series under two range filters — and the
// 200 000-row table it runs over: 500 products × 20 years, 10 000 groups.
func taskScanQuery(tb testing.TB) (*dataset.Table, *minisql.Query) {
	const products = 500
	t := workload.Sales(workload.SalesConfig{Rows: 200_000, Products: products, Years: 20, Cities: 50, Seed: 1})
	in := make([]string, products)
	for p := range in {
		in[p] = fmt.Sprintf("'product%04d'", p)
	}
	q, err := minisql.Parse("SELECT year, AVG(revenue) AS a0, product FROM sales WHERE product IN (" +
		strings.Join(in, ", ") + ") AND weight >= 10 AND size < 80 GROUP BY product, year ORDER BY product, year")
	if err != nil {
		tb.Fatal(err)
	}
	return t, q
}

// BenchmarkTaskScan runs taskScanQuery over a one-fragment column store:
// the fold and the (product, year) ORDER BY of a 10 000-group result
// dominate it. The store's source is the table in memory (a view of each
// segment) or its spill, a zpack.Reader that reads every segment's blocks
// from the file on every scan, as a served dataset does: the difference is
// the read cost.
func BenchmarkTaskScan(b *testing.B) {
	tb, q := taskScanQuery(b)
	spill, err := zpack.Spill(tb, b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer spill.Close()
	for _, src := range []struct {
		name string
		src  engine.SegmentSource
	}{{"memory", engine.NewMemSource(tb)}, {"zpack", spill}} {
		b.Run("source="+src.name, func(b *testing.B) {
			p, err := engine.NewColumnStoreFromSource(src.src).Prepare(q)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Execute(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestGroupedScanAllocGuard pins what one execution of taskScanQuery
// allocates over the table in memory, at one fragment and at two (two sinks
// of up to 10 000 groups each, merged): the median of seven runs'
// runtime.MemStats deltas. At one fragment it allocated 1.25 MB while a
// group kept its key cells as 64-bit words, a 32-byte accumulator and a slot
// entry, and ORDER BY gathered the result into copies; about 0.67 MB since a
// group keeps its key code and a 16-byte accumulator and the result is
// ordered in place.
func TestGroupedScanAllocGuard(t *testing.T) {
	tb, q := taskScanQuery(t)
	src := engine.NewMemSource(tb)
	for _, c := range []struct {
		name     string
		cuts     []int
		maxBytes float64
	}{
		{"one fragment", nil, 0.75e6},
		{"two fragments", []int{src.NumSegments() / 2}, 1.1e6},
	} {
		db := engine.NewColumnStoreAt(src, c.cuts...)
		db.SetParallelism(1)
		p, err := db.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		per := make([]float64, 7)
		for i := -1; i < len(per); i++ { // run -1 warms the pools
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := p.Execute()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.Len() != 10_000 {
				t.Fatalf("%s: %d groups, want 10 000", c.name, res.Len())
			}
			if i >= 0 {
				per[i] = float64(after.TotalAlloc - before.TotalAlloc)
			}
		}
		slices.Sort(per)
		t.Logf("%s: %.0f kB an execution (median of %d)", c.name, per[len(per)/2]/1000, len(per))
		if per[len(per)/2] > c.maxBytes {
			t.Errorf("%s: an execution allocates %.0f kB, want <= %.0f kB", c.name, per[len(per)/2]/1000, c.maxBytes/1000)
		}
	}
}
