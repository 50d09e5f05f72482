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
// Only a permutation moves during the sort; the vectors are gathered once.
func (r *Result) orderAndLimit(cols []int, order []minisql.OrderItem, limit int) {
	var perm []int32
	if len(cols) > 0 && r.n > 1 { // so no comparator ever meets the NULL cell
		cmps := make([]func(a, b int32) int, len(cols))
		for k, j := range cols {
			cmps[k] = r.Vecs[j].comparator()
		}
		perm = make([]int32, r.n)
		for i := range perm {
			perm[i] = int32(i)
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
	if limit >= 0 && limit < r.n {
		r.n = limit
	}
	for j := range r.Vecs {
		v := &r.Vecs[j]
		v.Codes, v.Ints, v.Floats = pick(v.Codes, perm, r.n), pick(v.Ints, perm, r.n), pick(v.Floats, perm, r.n)
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
	return gatherRows(src, perm[:keep])
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
