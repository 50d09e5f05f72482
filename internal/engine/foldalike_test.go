package engine_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/minisql"
	"repro/internal/zpack"
)

// foldAlikeQueries cover every way a store folds a plan: grouped SUM, AVG,
// MIN, MAX and COUNT (index and residual access), an aggregate without
// GROUP BY, a projection cut by ORDER BY … LIMIT, coded keys beside a
// representative cell ordered in place, MIN and MAX over a measure whose
// every fragment starts with a NaN cell, and int keys decoded from their
// combined key code, cut by ORDER BY … DESC LIMIT.
var foldAlikeQueries = []string{
	"SELECT product, SUM(revenue) AS s, AVG(profit) AS a, MIN(profit) AS lo, MAX(revenue) AS hi, COUNT(*) AS n FROM sales GROUP BY product",
	"SELECT year, SUM(revenue) AS s FROM sales WHERE city = 'c3' GROUP BY year",
	"SELECT city, year, AVG(revenue) AS a, SUM(profit) AS p FROM sales WHERE year >= 2003 AND product IN ('p1', 'p2', 'p5') GROUP BY city, year",
	"SELECT city, SUM(profit) AS p, MIN(revenue) AS lo FROM sales WHERE profit > 0 AND revenue < 900 GROUP BY city",
	"SELECT SUM(revenue) AS s, AVG(profit) AS a, MAX(profit) AS hi, COUNT(*) AS n FROM sales WHERE profit > -20",
	"SELECT product, revenue, profit FROM sales WHERE year = 2005 ORDER BY revenue DESC LIMIT 25",
	"SELECT product, city, SUM(revenue) AS s, COUNT(*) AS n FROM sales WHERE year < 2008 GROUP BY product ORDER BY product DESC",
	foldAlikeNaNQuery,
	"SELECT year, product, MAX(revenue) AS hi, COUNT(*) AS n FROM sales WHERE city = 'c1' GROUP BY year, product ORDER BY year DESC, product LIMIT 30",
}

// foldAlikeNaNQuery folds score, NaN on every fourth row: every city has
// real scores beside its NaN ones, so no MIN or MAX of it may be NaN.
const foldAlikeNaNQuery = "SELECT city, MIN(score) AS lo, MAX(score) AS hi, MIN(profit) AS plo FROM sales GROUP BY city"

// foldAlikeTable is a sales table of n rows whose measures are arbitrary
// finite floats: their sums round differently in every summation order. Its
// score is NaN on every fourth row, the first of every fragment among them.
func foldAlikeTable(n int) *dataset.Table {
	tb := dataset.NewTable("sales", []dataset.Field{
		{Name: "product", Kind: dataset.KindString},
		{Name: "city", Kind: dataset.KindString},
		{Name: "year", Kind: dataset.KindInt},
		{Name: "revenue", Kind: dataset.KindFloat},
		{Name: "profit", Kind: dataset.KindFloat},
		{Name: "score", Kind: dataset.KindFloat},
	})
	rng, scores := rand.New(rand.NewSource(52)), rand.New(rand.NewSource(53))
	for i := range n {
		score := scores.NormFloat64() * 10
		if i%4 == 0 {
			score = math.NaN()
		}
		tb.AppendRow(
			dataset.SV(fmt.Sprintf("p%d", rng.Intn(40))),
			dataset.SV(fmt.Sprintf("c%d", rng.Intn(7))),
			dataset.IV(int64(2000+rng.Intn(10))),
			dataset.FV(rng.Float64()*1000),
			dataset.FV(rng.NormFloat64()*50),
			dataset.FV(score),
		)
	}
	return tb
}

// TestStoresFoldAlike pins that the row, bitmap and column stores (in memory
// and over a zpack file) cut a table at the same fragments and merge them in
// the same order: every cell of every answer has the same bits on every
// store at every scan width, over a table of four fragments of two segments
// (the last one short) and over a table of no rows.
func TestStoresFoldAlike(t *testing.T) {
	prev := engine.SetFragmentSegments(2)
	t.Cleanup(func() { engine.SetFragmentSegments(prev) })
	for _, rows := range []int{3*2*engine.SegmentSize + 1234, 0} {
		tb := foldAlikeTable(rows)
		path := filepath.Join(t.TempDir(), "sales.zpack")
		if err := zpack.Build(path, tb); err != nil {
			t.Fatal(err)
		}
		r, err := zpack.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		stores := []struct {
			name string
			db   interface {
				engine.DB
				SetParallelism(int)
			}
		}{
			{"row", engine.NewRowStore(tb)},
			{"bitmap", engine.NewBitmapStore(tb)},
			{"column", engine.NewColumnStore(tb)},
			{"zpack", engine.NewColumnStoreFromSource(r)},
		}
		var want []*engine.Result
		for _, s := range stores {
			plans := make([]*engine.Plan, len(foldAlikeQueries))
			for i, sql := range foldAlikeQueries {
				q, err := minisql.Parse(sql)
				if err != nil {
					t.Fatal(err)
				}
				if plans[i], err = s.db.Prepare(q); err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
			}
			for _, width := range []int{1, 2, 4} {
				s.db.SetParallelism(width)
				got, err := s.db.ExecuteBatch(context.Background(), plans)
				if err != nil {
					t.Fatalf("%s at width %d: %v", s.name, width, err)
				}
				if want == nil {
					want = got // the row store at width 1
					noNaN(t, want[slices.Index(foldAlikeQueries, foldAlikeNaNQuery)])
					continue
				}
				for i := range got {
					label := fmt.Sprintf("%d rows, %s at width %d, %s", rows, s.name, width, foldAlikeQueries[i])
					sameBits(t, label, got[i], want[i])
				}
			}
		}
	}
}

// noNaN fails if a float cell of res is NaN: NaN is the identity of MIN and
// MAX, so a NaN seed gives way to the first real value, in a fold and in a
// merge of fragments.
func noNaN(t *testing.T, res *engine.Result) {
	t.Helper()
	for i := range res.Len() {
		for j := range res.Cols {
			if v := res.Value(i, j); v.Kind == dataset.KindFloat && math.IsNaN(v.F) {
				t.Errorf("%s: cell (%d, %s) is NaN", foldAlikeNaNQuery, i, res.Cols[j])
			}
		}
	}
}

// sameBits fails unless got and want hold the same cells, floats compared by
// their bits.
func sameBits(t *testing.T, label string, got, want *engine.Result) {
	t.Helper()
	if got.Len() != want.Len() || len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: %d rows × %d cols, want %d × %d", label, got.Len(), len(got.Cols), want.Len(), len(want.Cols))
	}
	differ := 0
	for i := range want.Len() {
		for j := range want.Cols {
			g, w := got.Value(i, j), want.Value(i, j)
			if g.Kind != w.Kind || g.S != w.S || g.I != w.I || math.Float64bits(g.F) != math.Float64bits(w.F) {
				if differ == 0 {
					t.Errorf("%s: cell (%d, %s) = %v, want %v", label, i, want.Cols[j], g, w)
				}
				differ++
			}
		}
	}
	if differ > 1 {
		t.Errorf("%s: %d cells differ in all", label, differ)
	}
}
