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

// orderCase draws a result of n rows and an ORDER BY over one to three of
// its columns, each ASC or DESC: categorical keys over dictionaries smaller
// than, near and far larger than the result, ints of a narrow span, of a
// span too wide to bucket and beyond ±2^53 (where the comparator's float64
// ties neighbours), and floats with NaN. A last column tags each row with
// its index.
func orderCase(rng *rand.Rand, n int) (*Result, []int, []minisql.OrderItem) {
	col := dataset.NewColumn(dataset.Field{Name: "s", Kind: dataset.KindString})
	for i, card := 0, 1+rng.Intn([]int{8, n, 40 * n}[rng.Intn(3)]); i < card; i++ {
		col.AppendString(fmt.Sprintf("v%x", rng.Intn(1<<20)))
	}
	const exact = 1 << 53
	res := &Result{Cols: []string{"s", "i", "f", "row"}, n: n, Vecs: []Vector{
		{Kind: dataset.KindString, Dict: col.Dictionary(), Codes: make([]int32, n)},
		{Kind: dataset.KindInt, Ints: make([]int64, n)},
		{Kind: dataset.KindFloat, Floats: make([]float64, n)},
		{Kind: dataset.KindInt, Ints: make([]int64, n)},
	}}
	ints := rng.Intn(4)
	for r := 0; r < n; r++ {
		res.Vecs[0].Codes[r] = int32(rng.Intn(col.Cardinality()))
		switch ints {
		case 0: // narrow: buckets
			res.Vecs[1].Ints[r] = int64(2006 + rng.Intn(20))
		case 1: // negative, still narrow
			res.Vecs[1].Ints[r] = int64(rng.Intn(3*n)) - exact
		case 2: // too wide a span for buckets
			res.Vecs[1].Ints[r] = rng.Int63n(1 << 40)
		default: // past 2^53: 2^53+1 compares equal to 2^53
			res.Vecs[1].Ints[r] = exact + int64(rng.Intn(4))
		}
		res.Vecs[2].Floats[r] = float64(rng.Intn(3))
		if rng.Intn(5) == 0 {
			res.Vecs[2].Floats[r] = math.NaN()
		}
		res.Vecs[3].Ints[r] = int64(r)
	}
	cols := rng.Perm(3)[:1+rng.Intn(3)]
	order := make([]minisql.OrderItem, len(cols))
	for k := range order {
		order[k].Desc = rng.Intn(2) == 0
	}
	return res, cols, order
}

// checkOrderCase sorts res in place and fails unless its rows come out in
// the permutation compareSort, the comparator path, gives; it reports
// whether the rank buckets sorted them.
func checkOrderCase(t *testing.T, res *Result, cols []int, order []minisql.OrderItem) bool {
	t.Helper()
	want := make([]int32, res.n)
	for r := range want {
		want[r] = int32(r)
	}
	res.compareSort(want, cols, order)
	probe := slices.Clone(want)
	bucketed := res.bucketSort(probe, cols, order)
	res.orderAndLimit(cols, order, -1)
	for r, w := range want {
		if got := res.Vecs[3].Ints[r]; got != int64(w) {
			t.Fatalf("rows %d, keys %v, order %v, buckets %v: row %d is %d, want %d", res.n, cols, order, bucketed, r, got, w)
		}
	}
	return bucketed
}

// TestOrderByBucketsMatchComparator: above bucketSortMin rows, ORDER BY
// over rank-bucketed keys gives exactly the comparator's permutation — on
// every key, ASC and DESC, over dictionaries far larger than the result —
// and keys the buckets cannot hold (floats, ints past ±2^53, ints spanning
// too much) keep the comparator.
func TestOrderByBucketsMatchComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ran := map[bool]int{}
	for iter := 0; iter < 400; iter++ {
		res, cols, order := orderCase(rng, bucketSortMin+rng.Intn(3000))
		beyond := slices.Contains(cols, 1) && slices.Max(res.Vecs[1].Ints) > 1<<53
		bucketed := checkOrderCase(t, res, cols, order)
		if bucketed && (beyond || slices.Contains(cols, 2)) {
			t.Fatalf("keys %v: a float or an int past 2^53 took the bucket path", cols)
		}
		ran[bucketed]++
	}
	if ran[true] < 50 || ran[false] < 50 {
		t.Errorf("%d bucket and %d comparator sorts: want both well covered", ran[true], ran[false])
	}
}

// FuzzOrderBy compares the bucket path with the comparator on results
// drawn from a fuzzed seed and size.
func FuzzOrderBy(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 64, 513} {
		f.Add(seed, uint16(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		rng := rand.New(rand.NewSource(seed))
		res, cols, order := orderCase(rng, 2+int(n)%4000)
		checkOrderCase(t, res, cols, order)
	})
}
