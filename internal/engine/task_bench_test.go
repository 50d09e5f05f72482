package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/minisql"
	"repro/internal/workload"
)

// BenchmarkOrderBy sorts a (product, year) result — a 500-entry dictionary
// and 20 ints — of each size by counting rank buckets and by comparing rows:
// where the first overtakes the second sets bucketSortMin.
func BenchmarkOrderBy(b *testing.B) {
	col := dataset.NewColumn(dataset.Field{Name: "product", Kind: dataset.KindString})
	for p := 0; p < 500; p++ {
		col.AppendString(fmt.Sprintf("product%04d", p))
	}
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{32, 64, 128, 512, 10_000} {
		res := &Result{Cols: []string{"product", "year"}, Vecs: []Vector{
			{Kind: dataset.KindString, Dict: col.Dictionary(), Codes: make([]int32, n)},
			{Kind: dataset.KindInt, Ints: make([]int64, n)},
		}, n: n}
		for i := 0; i < n; i++ {
			res.Vecs[0].Codes[i], res.Vecs[1].Ints[i] = int32(rng.Intn(500)), int64(2006+rng.Intn(20))
		}
		cols, order := []int{0, 1}, make([]minisql.OrderItem, 2)
		perm := make([]int32, n)
		reset := func() {
			for i := range perm {
				perm[i] = int32(i)
			}
		}
		b.Run(fmt.Sprintf("rows=%d/buckets", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reset()
				if !res.bucketSort(perm, cols, order) && n >= bucketSortMin {
					b.Fatal("declined")
				}
			}
		})
		b.Run(fmt.Sprintf("rows=%d/compare", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reset()
				res.compareSort(perm, cols, order)
			}
		})
	}
}

// BenchmarkAddSel folds a task query's selection — 70 % of each segment's
// rows — into a fresh aggregation sink: the fold alone, with no filter and
// no ORDER BY. One AVG takes addSel's fused path, two its buffered one.
func BenchmarkAddSel(b *testing.B) {
	tb := workload.Sales(workload.SalesConfig{Rows: 200_000, Products: 500, Years: 20, Cities: 50, Seed: 1})
	db := NewColumnStore(tb)
	rng := rand.New(rand.NewSource(5))
	sel := newSegBits()
	for i := 0; i < segmentSize; i++ {
		if rng.Intn(10) < 7 {
			setBit(sel, i)
		}
	}
	for _, aggs := range []string{"AVG(revenue) AS a0", "AVG(revenue) AS a0, SUM(profit) AS a1"} {
		q, err := minisql.Parse("SELECT year, " + aggs + ", product FROM sales GROUP BY product, year")
		if err != nil {
			b.Fatal(err)
		}
		p, err := db.Prepare(q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("aggs=%d", len(p.aggCol)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink := p.newSink(tb)
				for lo := 0; lo < tb.NumRows(); lo += segmentSize {
					sink.addSel(sel, lo, min(lo+segmentSize, tb.NumRows()))
				}
			}
		})
	}
}
