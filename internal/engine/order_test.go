package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/minisql"
)

// TestOrderByRanksMatchesStrings: ORDER BY over a categorical column compares
// dictionary ranks, and must give the permutation the string comparator
// gives — on random results with duplicate keys, NaN, DESC and several sort
// columns, over dictionaries smaller and larger than the result.
func TestOrderByRanksMatchesStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 300; iter++ {
		n := 2 + rng.Intn(60)
		col := dataset.NewColumn(dataset.Field{Name: "s", Kind: dataset.KindString})
		for i, card := 0, 1+rng.Intn(2*n); i < card; i++ {
			col.AppendString(fmt.Sprintf("v%x", rng.Intn(1000))) // duplicates fold: no entry repeats
		}
		s := Vector{Kind: dataset.KindString, Dict: col.Dictionary(), Codes: make([]int32, n)}
		i := Vector{Kind: dataset.KindInt, Ints: make([]int64, n)}
		f := Vector{Kind: dataset.KindFloat, Floats: make([]float64, n)}
		for r := 0; r < n; r++ {
			s.Codes[r] = int32(rng.Intn(col.Cardinality()))
			i.Ints[r] = int64(rng.Intn(4))
			f.Floats[r] = float64(rng.Intn(3))
			if rng.Intn(5) == 0 {
				f.Floats[r] = math.NaN()
			}
		}
		vecs := []Vector{s, i, f}
		cols := rng.Perm(3)[:1+rng.Intn(3)]
		order := make([]minisql.OrderItem, len(cols))
		for k := range order {
			order[k].Desc = rng.Intn(2) == 0
		}

		// The reference: every categorical cell compared as its string.
		want := make([]int32, n)
		for r := range want {
			want[r] = int32(r)
		}
		slices.SortStableFunc(want, func(a, b int32) int {
			for k, j := range cols {
				var d int
				switch v := vecs[j]; v.Kind {
				case dataset.KindString:
					d = strings.Compare(v.Dict.Entries()[v.Codes[a]], v.Dict.Entries()[v.Codes[b]])
				case dataset.KindInt:
					d = orderFloat(float64(v.Ints[a]), float64(v.Ints[b]))
				default:
					d = orderFloat(v.Floats[a], v.Floats[b])
				}
				if d != 0 {
					if order[k].Desc {
						return -d
					}
					return d
				}
			}
			return 0
		})

		// A fourth column tags each row with its index, so the sorted result
		// names the permutation.
		tag := Vector{Kind: dataset.KindInt, Ints: make([]int64, n)}
		for r := range tag.Ints {
			tag.Ints[r] = int64(r)
		}
		res := &Result{Cols: []string{"s", "i", "f", "row"}, Vecs: []Vector{
			{Kind: dataset.KindString, Dict: col.Dictionary(), Codes: slices.Clone(s.Codes)},
			{Kind: dataset.KindInt, Ints: slices.Clone(i.Ints)},
			{Kind: dataset.KindFloat, Floats: slices.Clone(f.Floats)}, tag}, n: n}
		res.orderAndLimit(cols, order, -1)
		for r, w := range want {
			if got := res.Vecs[3].Ints[r]; got != int64(w) {
				t.Fatalf("iteration %d (dictionary %d, rows %d): row %d is %d, want %d", iter, col.Cardinality(), n, r, got, w)
			}
		}
	}
}
