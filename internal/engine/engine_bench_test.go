package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

func benchTable(rows, zCard int) *dataset.Table {
	t := dataset.NewTable("b", []dataset.Field{
		{Name: "z", Kind: dataset.KindString},
		{Name: "x", Kind: dataset.KindInt},
		{Name: "p", Kind: dataset.KindString},
		{Name: "y", Kind: dataset.KindFloat},
	})
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < rows; i++ {
		p := "no"
		if rng.Intn(10) == 0 {
			p = "yes"
		}
		t.AppendRow(
			dataset.SV(fmt.Sprintf("z%04d", rng.Intn(zCard))),
			dataset.IV(int64(rng.Intn(10))),
			dataset.SV(p),
			dataset.FV(rng.Float64()*100),
		)
	}
	return t
}

const benchAgg = "SELECT x, SUM(y) AS s, z FROM b WHERE p = 'yes' GROUP BY z, x ORDER BY z, x"

func BenchmarkRowStoreSelectiveAggregate(b *testing.B) {
	db := NewRowStore(benchTable(100000, 100))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := execSQL(db, benchAgg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBitmapStoreSelectiveAggregate(b *testing.B) {
	db := NewBitmapStore(benchTable(100000, 100))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := execSQL(db, benchAgg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBitmapRangePredicate(b *testing.B) {
	db := NewBitmapStore(benchTable(100000, 100))
	q := "SELECT COUNT(*) FROM b WHERE x BETWEEN 2 AND 4"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := execSQL(db, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRowStoreRangePredicate(b *testing.B) {
	db := NewRowStore(benchTable(100000, 100))
	q := "SELECT COUNT(*) FROM b WHERE x BETWEEN 2 AND 4"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := execSQL(db, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredicateCompilation(b *testing.B) {
	t := benchTable(1000, 10)
	db := NewRowStore(t)
	q := "SELECT COUNT(*) FROM b WHERE p = 'yes' AND x > 3 AND z LIKE 'z00%' AND NOT (y BETWEEN 10 AND 20)"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := execSQL(db, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroupByCardinality(b *testing.B) {
	for _, zCard := range []int{10, 1000, 10000} {
		db := NewRowStore(benchTable(100000, zCard))
		q := "SELECT x, SUM(y) AS s, z FROM b GROUP BY z, x ORDER BY z, x"
		b.Run(fmt.Sprintf("groups=%d", zCard*10), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := execSQL(db, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
