package dataset

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Field describes one column of a table.
type Field struct {
	Name string
	Kind Kind
}

// Column is the physical storage for one field. Categorical columns are
// dictionary-encoded: codes[i] indexes into dict. Numeric columns use the
// typed slices directly.
//
// A column normally materializes through Append*; a lazily-backed table
// (zpack) instead Presizes the storage and fills row ranges in place as
// segments load, optionally installing a distinct-value cache and an
// ensure-loaded hook so metadata reads stay correct before the data lands.
type Column struct {
	Field Field

	codes  []int32
	dict   []string
	dictIx map[string]int32

	ints   []int64
	floats []float64

	distinct []Value // optional precomputed DistinctSorted (lazy backings)
	ensure   func()  // optional hook: materialize all rows before a raw read
}

// NewColumn returns an empty column of the given field.
func NewColumn(f Field) *Column {
	c := &Column{Field: f}
	if f.Kind == KindString {
		c.dictIx = make(map[string]int32)
	}
	return c
}

// Len returns the number of rows stored.
func (c *Column) Len() int {
	switch c.Field.Kind {
	case KindString:
		return len(c.codes)
	case KindInt:
		return len(c.ints)
	default:
		return len(c.floats)
	}
}

// AppendString appends a categorical value; panics on non-string columns.
func (c *Column) AppendString(s string) { c.codes = append(c.codes, c.codeFor(s)) }

// codeFor returns the dictionary code of s, adding s to the dictionary the
// first time it appears.
func (c *Column) codeFor(s string) int32 {
	code, ok := c.dictIx[s]
	if !ok {
		code = int32(len(c.dict))
		c.dict = append(c.dict, s)
		c.dictIx[s] = code
	}
	return code
}

// AppendInt appends an integer value.
func (c *Column) AppendInt(i int64) { c.ints = append(c.ints, i) }

// AppendFloat appends a float value.
func (c *Column) AppendFloat(f float64) { c.floats = append(c.floats, f) }

// Append appends a dynamically typed value, coercing it to the column kind.
func (c *Column) Append(v Value) {
	switch c.Field.Kind {
	case KindString:
		c.AppendString(v.String())
	case KindInt:
		c.AppendInt(v.Int())
	default:
		c.AppendFloat(v.Float())
	}
}

// Value returns the cell at row i as a Value.
func (c *Column) Value(i int) Value {
	switch c.Field.Kind {
	case KindString:
		return SV(c.dict[c.codes[i]])
	case KindInt:
		return IV(c.ints[i])
	default:
		return FV(c.floats[i])
	}
}

// Float returns the cell at row i coerced to float64. For categorical
// columns it parses the dictionary entry.
func (c *Column) Float(i int) float64 {
	switch c.Field.Kind {
	case KindInt:
		return float64(c.ints[i])
	case KindFloat:
		return c.floats[i]
	default:
		return SV(c.dict[c.codes[i]]).Float()
	}
}

// Code returns the dictionary code at row i; only valid for string columns.
func (c *Column) Code(i int) int32 { return c.codes[i] }

// Codes exposes the raw code slice of a categorical column for fast scans.
func (c *Column) Codes() []int32 { return c.codes }

// Ints exposes the raw int slice.
func (c *Column) Ints() []int64 { return c.ints }

// Floats exposes the raw float slice.
func (c *Column) Floats() []float64 { return c.floats }

// Dict returns the dictionary of a categorical column (code -> value).
func (c *Column) Dict() []string { return c.dict }

// CodeOf returns the dictionary code for s, or -1 if s never occurs.
func (c *Column) CodeOf(s string) int32 {
	if code, ok := c.dictIx[s]; ok {
		return code
	}
	return -1
}

// Cardinality returns the number of distinct values of a categorical column.
func (c *Column) Cardinality() int { return len(c.dict) }

// Presize replaces the column's storage with zeroed slices of length n, the
// layout a lazily-loading backing fills in place: the slice headers never
// change after this, so readers that captured them observe loaded data.
func (c *Column) Presize(n int) {
	switch c.Field.Kind {
	case KindString:
		c.codes = make([]int32, n)
	case KindInt:
		c.ints = make([]int64, n)
	default:
		c.floats = make([]float64, n)
	}
}

// Extend returns the length-n continuation of a presized array, n >=
// len(prev). With alias set it is a re-slice of prev's backing array (the
// caller has checked cap(prev) >= n): holders of prev keep their shorter
// view, and rows past len(prev) are invisible to them. Otherwise it is fresh
// zeroed storage with a quarter of headroom — grown like append, so a lineage
// of small extensions reallocates a logarithmic number of times — and the
// caller copies over whichever rows of prev it may safely read.
func Extend[T any](prev []T, n int, alias bool) []T {
	if alias {
		return prev[:n]
	}
	return make([]T, n, n+n/4)
}

// capRows returns how many rows the column's storage can hold in place.
func (c *Column) capRows() int {
	switch c.Field.Kind {
	case KindString:
		return cap(c.codes)
	case KindInt:
		return cap(c.ints)
	default:
		return cap(c.floats)
	}
}

// SetDict installs the full dictionary of a categorical column up front
// (lazy backings persist dictionaries in their metadata footer).
func (c *Column) SetDict(dict []string) {
	c.dict = append([]string(nil), dict...)
	c.dictIx = make(map[string]int32, len(dict))
	for i, s := range c.dict {
		c.dictIx[s] = int32(i)
	}
}

// SetDistinctSorted installs a precomputed DistinctSorted result, so a
// lazily-backed numeric column can answer distinct-value enumeration (axis
// '*' expansion) from metadata without materializing any data.
func (c *Column) SetDistinctSorted(vals []Value) { c.distinct = vals }

// SetEnsureLoaded installs a hook DistinctSorted calls before scanning raw
// numeric data, so a lazily-backed column can materialize itself first.
func (c *Column) SetEnsureLoaded(f func()) { c.ensure = f }

// DistinctSorted returns the sorted distinct values of the column. For
// numeric columns this scans (materializing a lazy backing first); for
// categorical it sorts the dictionary.
func (c *Column) DistinctSorted() []Value {
	if c.distinct != nil {
		return append([]Value(nil), c.distinct...)
	}
	if c.ensure != nil && c.Field.Kind != KindString {
		c.ensure()
	}
	switch c.Field.Kind {
	case KindString:
		vals := append([]string(nil), c.dict...)
		sort.Strings(vals)
		out := make([]Value, len(vals))
		for i, s := range vals {
			out[i] = SV(s)
		}
		return out
	case KindInt:
		seen := make(map[int64]struct{})
		for _, v := range c.ints {
			seen[v] = struct{}{}
		}
		keys := make([]int64, 0, len(seen))
		for k := range seen {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		out := make([]Value, len(keys))
		for i, k := range keys {
			out[i] = IV(k)
		}
		return out
	default:
		seen := make(map[float64]struct{})
		for _, v := range c.floats {
			seen[v] = struct{}{}
		}
		keys := make([]float64, 0, len(seen))
		for k := range seen {
			keys = append(keys, k)
		}
		sort.Float64s(keys)
		out := make([]Value, len(keys))
		for i, k := range keys {
			out[i] = FV(k)
		}
		return out
	}
}

// Table is an immutable-after-build named relation.
type Table struct {
	Name   string
	cols   []*Column
	byName map[string]*Column
	nrows  int
}

// NewTable creates an empty table with the given schema.
func NewTable(name string, fields []Field) *Table {
	t := &Table{Name: name, byName: make(map[string]*Column, len(fields))}
	for _, f := range fields {
		c := NewColumn(f)
		t.cols = append(t.cols, c)
		t.byName[f.Name] = c
	}
	return t
}

// NewPresized creates a table whose columns are zeroed storage of the given
// row count, ready to be filled in place by a lazy backing (zpack). The
// table reports rows rows immediately; cells read as zero values until
// their segment loads.
func NewPresized(name string, fields []Field, rows int) *Table {
	t := NewTable(name, fields)
	for _, c := range t.cols {
		c.Presize(rows)
	}
	t.nrows = rows
	return t
}

// NewExtended creates the rows-row successor of a presized table over the
// same schema (rows >= prev's), each column the Extend of prev's: with alias
// set (the caller has checked prev.CapRows() >= rows) the two tables share
// backing arrays and differ only in length, otherwise the successor's storage
// is fresh, with headroom. Dictionaries and hooks are not carried over; the
// lazy backing installs its own.
func NewExtended(prev *Table, rows int, alias bool) *Table {
	t := &Table{Name: prev.Name, byName: make(map[string]*Column, len(prev.cols)), nrows: rows}
	for _, pc := range prev.cols {
		c := NewColumn(pc.Field)
		switch c.Field.Kind {
		case KindString:
			c.codes = Extend(pc.codes, rows, alias)
		case KindInt:
			c.ints = Extend(pc.ints, rows, alias)
		default:
			c.floats = Extend(pc.floats, rows, alias)
		}
		t.cols = append(t.cols, c)
		t.byName[c.Field.Name] = c
	}
	return t
}

// CapRows returns how many rows every column's storage can hold in place —
// the bound under which NewExtended may alias.
func (t *Table) CapRows() int {
	n := math.MaxInt
	for _, c := range t.cols {
		n = min(n, c.capRows())
	}
	return n
}

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.nrows }

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.cols) }

// Columns returns the columns in schema order.
func (t *Table) Columns() []*Column { return t.cols }

// Column returns the column named name, or nil.
func (t *Table) Column(name string) *Column { return t.byName[name] }

// HasColumn reports whether the table has a column named name.
func (t *Table) HasColumn(name string) bool { _, ok := t.byName[name]; return ok }

// Fields returns the schema: each column's field, in order.
func (t *Table) Fields() []Field {
	out := make([]Field, len(t.cols))
	for i, c := range t.cols {
		out[i] = c.Field
	}
	return out
}

// ColumnNames returns the field names in schema order.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.cols))
	for i, c := range t.cols {
		out[i] = c.Field.Name
	}
	return out
}

// AppendRow appends one tuple; values must match the schema arity.
func (t *Table) AppendRow(vals ...Value) {
	if len(vals) != len(t.cols) {
		panic(fmt.Sprintf("dataset: AppendRow arity %d != schema arity %d", len(vals), len(t.cols)))
	}
	for i, v := range vals {
		t.cols[i].Append(v)
	}
	t.nrows++
}

// Row materializes row i as a Row of Values.
func (t *Table) Row(i int) Row {
	r := make(Row, len(t.cols))
	for j, c := range t.cols {
		r[j] = c.Value(i)
	}
	return r
}

// Truncate drops every row but keeps the dictionaries and the storage: a
// buffer table that fills and drains over and over neither forgets a code nor
// allocates again.
func (t *Table) Truncate() {
	for _, c := range t.cols {
		c.codes, c.ints, c.floats = c.codes[:0], c.ints[:0], c.floats[:0]
	}
	t.nrows = 0
}

// Remap translates the dictionary codes of a source table's categorical
// columns into a destination's, one array per column (nil for numeric
// columns). Codes resolve on first use, in append order, so the destination's
// dictionaries grow in first-appearance order exactly as cell-by-cell
// AppendString would grow them — but with one dictionary lookup per distinct
// value instead of one per cell. A Remap stays valid for as long as both
// dictionaries only grow.
type Remap [][]int32

// NewRemap returns the unresolved Remap out of src.
func NewRemap(src *Table) Remap {
	rm := make(Remap, len(src.cols))
	for j, c := range src.cols {
		if c.Field.Kind == KindString {
			rm[j] = make([]int32, len(c.dict))
			for i := range rm[j] {
				rm[j][i] = -1
			}
		}
	}
	return rm
}

// AppendRange appends rows [lo, hi) of src column by column. src has t's
// schema (arity and kinds, which the caller has checked) but its own
// dictionaries; rm, from NewRemap(src), carries the code translation across
// calls.
func (t *Table) AppendRange(src *Table, lo, hi int, rm Remap) {
	for j, c := range t.cols {
		sc := src.cols[j]
		switch c.Field.Kind {
		case KindString:
			c.appendCodes(sc, sc.codes[lo:hi], nil, rm[j])
		case KindInt:
			c.ints = append(c.ints, sc.ints[lo:hi]...)
		default:
			c.floats = append(c.floats, sc.floats[lo:hi]...)
		}
	}
	t.nrows += hi - lo
}

// AppendGather appends the rows of src that rows lists, in that order; it is
// AppendRange through a row permutation.
func (t *Table) AppendGather(src *Table, rows []int, rm Remap) {
	for j, c := range t.cols {
		sc := src.cols[j]
		switch c.Field.Kind {
		case KindString:
			c.appendCodes(sc, sc.codes, rows, rm[j])
		case KindInt:
			c.ints = gather(c.ints, sc.ints, rows)
		default:
			c.floats = gather(c.floats, sc.floats, rows)
		}
	}
	t.nrows += len(rows)
}

func gather[T any](dst, src []T, rows []int) []T {
	n := len(dst)
	dst = slices.Grow(dst, len(rows))[:n+len(rows)]
	for i, r := range rows {
		dst[n+i] = src[r]
	}
	return dst
}

// appendCodes appends src's codes — codes[r] for each r of rows, or all of
// codes when rows is nil — translated through remap, resolving the entries
// still at -1 against c's dictionary as they come up.
func (c *Column) appendCodes(src *Column, codes []int32, rows []int, remap []int32) {
	resolve := func(sc int32) int32 {
		code := remap[sc]
		if code < 0 {
			code = c.codeFor(src.dict[sc])
			remap[sc] = code
		}
		return code
	}
	n := len(c.codes)
	if rows == nil {
		c.codes = slices.Grow(c.codes, len(codes))[:n+len(codes)]
		for i, sc := range codes {
			c.codes[n+i] = resolve(sc)
		}
		return
	}
	c.codes = slices.Grow(c.codes, len(rows))[:n+len(rows)]
	for i, r := range rows {
		c.codes[n+i] = resolve(codes[r])
	}
}

// CategoricalColumns returns the names of all string-kinded columns, the set
// the bitmap back-end indexes by default.
func (t *Table) CategoricalColumns() []string {
	var out []string
	for _, c := range t.cols {
		if c.Field.Kind == KindString {
			out = append(out, c.Field.Name)
		}
	}
	return out
}

// MeasureColumns returns the names of all numeric columns.
func (t *Table) MeasureColumns() []string {
	var out []string
	for _, c := range t.cols {
		if c.Field.Kind != KindString {
			out = append(out, c.Field.Name)
		}
	}
	return out
}
