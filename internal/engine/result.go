package engine

import (
	"cmp"
	"slices"

	"repro/internal/dataset"
	"repro/internal/minisql"
)

// Result is the output relation of a query, held column-wise: one typed
// vector per output column, every vector Len() cells long. Results are shared
// between requests (the serving layer caches them) and are read-only once an
// executor has returned them.
type Result struct {
	Cols []string
	Vecs []Vector // parallel to Cols
	n    int
}

// Vector is one result column; Kind says which of Codes, Ints and Floats
// holds its cells. A column's kind is fixed by the query: COUNT is an int,
// every other aggregate and every binned item a float, and a plain item has
// its base column's kind — a categorical one as the base column's own
// dictionary codes, so no string is copied or compared until someone asks.
type Vector struct {
	Kind   dataset.Kind
	Codes  []int32            // KindString: codes into Dict
	Dict   dataset.Dictionary // KindString: the base column's dictionary
	Ints   []int64            // KindInt
	Floats []float64          // KindFloat
	// null: the only cell is dataset.NullValue — a non-COUNT item of an
	// aggregate without GROUP BY over no rows, the one NULL this SQL has.
	null bool
}

// Len returns the number of rows.
func (r *Result) Len() int { return r.n }

// ColIndex returns the position of an output column, or -1.
func (r *Result) ColIndex(name string) int { return slices.Index(r.Cols, name) }

// Value boxes one cell.
func (r *Result) Value(row, col int) dataset.Value { return r.Vecs[col].Value(row) }

// Value boxes cell i.
func (v *Vector) Value(i int) dataset.Value {
	switch {
	case v.null:
		return dataset.NullValue
	case v.Kind == dataset.KindString:
		return dataset.SV(v.Dict.Entries()[v.Codes[i]])
	case v.Kind == dataset.KindInt:
		return dataset.IV(v.Ints[i])
	}
	return dataset.FV(v.Floats[i])
}

// Rows boxes the whole relation, a dataset.Value per cell: for tests and the
// cold consumers that want rows, never the serving path.
func (r *Result) Rows() []dataset.Row {
	rows := make([]dataset.Row, r.n)
	for i := range rows {
		rows[i] = make(dataset.Row, len(r.Vecs))
		for j := range r.Vecs {
			rows[i][j] = r.Vecs[j].Value(i)
		}
	}
	return rows
}

// SizeBytes returns the heap the result's cells pin — what the result cache
// budgets. Dictionaries belong to the table and are not counted.
func (r *Result) SizeBytes() int64 {
	var b int
	for i := range r.Vecs {
		v := &r.Vecs[i]
		b += 4*cap(v.Codes) + 8*(cap(v.Ints)+cap(v.Floats))
	}
	return int64(b)
}

// orderAndLimit sorts the rows by the ORDER BY columns (stably, so ties keep
// the executor's first-seen order) and truncates to limit (< 0: no limit).
// Only a permutation moves during the sort; then the vectors are permuted in
// place, or, when the limit cuts them, their kept rows are copied out:
// SizeBytes counts capacity, and a cached result must pin only its rows.
func (r *Result) orderAndLimit(cols []int, order []minisql.OrderItem, limit int) {
	var perm []int32
	if len(cols) > 0 && r.n > 1 { // so no key ever meets the NULL cell
		perm = make([]int32, r.n)
		for i := range perm {
			perm[i] = int32(i)
		}
		if !r.bucketSort(perm, cols, order) {
			r.compareSort(perm, cols, order)
		}
	}
	if limit >= 0 && limit < r.n {
		r.n = limit
	} else if perm != nil {
		r.permute(perm)
		return
	}
	for j := range r.Vecs {
		v := &r.Vecs[j]
		v.Codes, v.Ints, v.Floats = pick(v.Codes, perm, r.n), pick(v.Ints, perm, r.n), pick(v.Floats, perm, r.n)
	}
}

// permute reorders the vectors in place so that row i is the old row
// perm[i]: it walks each cycle of perm once, swapping the cells of every
// vector along it, and marks the rows it has placed by complementing their
// entries of perm.
func (r *Result) permute(perm []int32) {
	for i := range perm {
		if perm[i] < 0 {
			continue
		}
		j := i
		for k := int(perm[j]); k != i; j, k = k, int(perm[k]) {
			for x := range r.Vecs {
				switch v := &r.Vecs[x]; {
				case v.Codes != nil:
					v.Codes[j], v.Codes[k] = v.Codes[k], v.Codes[j]
				case v.Ints != nil:
					v.Ints[j], v.Ints[k] = v.Ints[k], v.Ints[j]
				default:
					v.Floats[j], v.Floats[k] = v.Floats[k], v.Floats[j]
				}
			}
			perm[j] = ^perm[j]
		}
		perm[j] = ^perm[j]
	}
}

// compareSort is the general ORDER BY: a stable merge sort of perm under the
// columns' comparators.
func (r *Result) compareSort(perm []int32, cols []int, order []minisql.OrderItem) {
	cmps := make([]func(a, b int32) int, len(cols))
	for k, j := range cols {
		cmps[k] = r.Vecs[j].comparator()
	}
	slices.SortStableFunc(perm, func(a, b int32) int {
		for k, c := range cmps {
			if d := c(a, b); d != 0 {
				if order[k].Desc {
					return -d
				}
				return d
			}
		}
		return 0
	})
}

// bucketSortMin is the row count from which an ORDER BY whose every key has
// rank buckets sorts by counting them instead of comparing rows: below it
// the merge sort is as fast (BenchmarkOrderBy puts the crossover near 32
// rows for (product, year) keys on one core: ranking the dictionary, which
// both pay, dominates there).
const bucketSortMin = 64

// bucketSort sorts perm by stable counting passes, the last key first — the
// permutation compareSort gives, because every key's comparator is a total
// order on small integer buckets: a categorical column's dictionary ranks,
// or an int column whose cells are within ±2^53, where the comparator's
// float64 comparison is exact. It declines (false, perm untouched) below
// bucketSortMin rows, for float keys (NaN ties with every number, so that
// order is not transitive), for ints beyond ±2^53 (the comparator ties some
// of them) and for keys spanning more than bucketSpanPerRow buckets a row.
// Every key is checked before any is numbered, and each pass numbers its
// key into the same array.
func (r *Result) bucketSort(perm []int32, cols []int, order []minisql.OrderItem) bool {
	if r.n < bucketSortMin {
		return false
	}
	keys, most := make([]bucketKey, len(cols)), 0
	for k, j := range cols {
		if keys[k] = r.Vecs[j].bucketKey(r.n); keys[k].span == 0 {
			return false
		}
		most = max(most, keys[k].span)
	}
	key, tmp := make([]uint32, r.n), make([]int32, r.n)
	counts := make([]int32, most+1)
	for k := len(cols) - 1; k >= 0; k-- {
		r.Vecs[cols[k]].fillBuckets(key, keys[k], order[k].Desc)
		count := counts[:keys[k].span+1]
		clear(count)
		for _, i := range perm {
			count[key[i]+1]++
		}
		for b := 1; b < len(count); b++ {
			count[b] += count[b-1]
		}
		for _, i := range perm {
			tmp[count[key[i]]] = i
			count[key[i]]++
		}
		perm, tmp = tmp, perm
	}
	if len(cols)%2 == 1 {
		copy(tmp, perm) // the passes ended in the scratch array
	}
	return true
}

// bucketSpanPerRow bounds a bucketed key's span, per result row: the count
// array must not dwarf the rows it sorts.
const bucketSpanPerRow = 16

// bucketKey numbers a vector's cells in the comparator's order, dense from
// 0 and equal cells equal: a cell's bucket is its dictionary rank, or its
// int value, less lo.
type bucketKey struct {
	rank []uint64 // a categorical key's dictionary ranks; nil for an int key
	lo   int64
	span int // the number of buckets; 0 when the key has no numbering
}

// bucketKey returns the numbering of the first n cells, or a zero span when
// the vector has none or it spans more than bucketSpanPerRow*n buckets.
func (v *Vector) bucketKey(n int) bucketKey {
	const exact = 1 << 53 // ints within ±2^53 convert to float64 exactly
	var b bucketKey
	var hi int64
	switch v.Kind {
	case dataset.KindString:
		b.rank = dataset.DictRanks(v.Dict.Entries())
		b.lo, hi = int64(b.rank[v.Codes[0]]), int64(b.rank[v.Codes[0]])
		for _, c := range v.Codes[:n] {
			b.lo, hi = min(b.lo, int64(b.rank[c])), max(hi, int64(b.rank[c]))
		}
	case dataset.KindInt:
		if b.lo, hi = slices.Min(v.Ints[:n]), slices.Max(v.Ints[:n]); b.lo < -exact || hi > exact {
			return bucketKey{}
		}
	default:
		return bucketKey{}
	}
	if hi-b.lo >= int64(bucketSpanPerRow*n) {
		return bucketKey{}
	}
	b.span = int(hi - b.lo + 1)
	return b
}

// fillBuckets writes the bucket of each of the first len(dst) cells into
// dst, in reverse order for desc.
func (v *Vector) fillBuckets(dst []uint32, b bucketKey, desc bool) {
	if b.rank != nil {
		for i, c := range v.Codes[:len(dst)] {
			dst[i] = uint32(int64(b.rank[c]) - b.lo)
		}
	} else {
		for i, x := range v.Ints[:len(dst)] {
			dst[i] = uint32(x - b.lo)
		}
	}
	if desc {
		for i := range dst {
			dst[i] = uint32(b.span-1) - dst[i]
		}
	}
}

// pick keeps the first keep cells of src, taken in perm's order if there is one.
func pick[T any](src []T, perm []int32, keep int) []T {
	switch {
	case src == nil:
		return nil
	case perm == nil:
		return src[:keep]
	}
	out := make([]T, keep)
	for g, i := range perm[:keep] {
		out[g] = src[i]
	}
	return out
}

// comparator orders two cells the way dataset.Value.Compare does: numerics
// as float64 (NaN ties with everything), strings lexically. A dictionary is
// ranked once, in string order, and cells compare by rank: its entries are
// unique, so the order is the same.
func (v *Vector) comparator() func(a, b int32) int {
	switch v.Kind {
	case dataset.KindString:
		codes, dict := v.Codes, v.Dict.Entries()
		rank := dataset.DictRanks(dict)
		return func(a, b int32) int { return cmp.Compare(rank[codes[a]], rank[codes[b]]) }
	case dataset.KindInt:
		ints := v.Ints
		return func(a, b int32) int { return orderFloat(float64(ints[a]), float64(ints[b])) }
	}
	floats := v.Floats
	return func(a, b int32) int { return orderFloat(floats[a], floats[b]) }
}

func orderFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
