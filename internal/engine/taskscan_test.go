package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/minisql"
	"repro/internal/workload"
	"repro/internal/zpack"
)

// BenchmarkTaskScan is the query a front-end task compiles to — every
// product's (year, AVG(revenue)) series under two range filters — over a
// one-fragment column store: the fold and the (product, year) ORDER BY of a
// 10 000-group result dominate it. The store's source is the table in memory
// (a view of each segment) or its spill, a zpack.Reader that reads every
// segment's blocks from the file on every scan, as a served dataset does:
// the difference is the read cost.
func BenchmarkTaskScan(b *testing.B) {
	const products = 500
	tb := workload.Sales(workload.SalesConfig{Rows: 200_000, Products: products, Years: 20, Cities: 50, Seed: 1})
	spill, err := zpack.Spill(tb, b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer spill.Close()
	in := make([]string, products)
	for p := range in {
		in[p] = fmt.Sprintf("'product%04d'", p)
	}
	q, err := minisql.Parse("SELECT year, AVG(revenue) AS a0, product FROM sales WHERE product IN (" +
		strings.Join(in, ", ") + ") AND weight >= 10 AND size < 80 GROUP BY product, year ORDER BY product, year")
	if err != nil {
		b.Fatal(err)
	}
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
