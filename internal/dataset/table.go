package dataset

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// Field describes one column of a table.
type Field struct {
	Name string
	Kind Kind
}

// Column is the physical storage for one field. A categorical column is
// dictionary-encoded: codes index into dict. So is an integer column while its
// distinct values number at most MaxIntDictCardinality: codes index into the
// value dictionary ivals, in first-appearance order (or whatever order SetIntDict
// was given), and no int64 per row exists; past the bound the column is raw
// int64s for good. Floats are raw. Codes are packed, see Codes.
//
// Value, Float, Int and Code read any layout. The raw arrays — Codes, Ints,
// Floats — are for loops that have switched on the layout once.
//
// A column normally materializes through Append*; a lazily-backed table
// (zpack) instead installs the dictionaries, Presizes the storage and fills row
// ranges in place as segments load, optionally installing an ensure-loaded hook
// so metadata reads stay correct before the data lands.
//
// A served column's array lives off the Go heap (see mem.go): Presize,
// NewExtended, Chunks.Table and OffHeap put it there, and widening it keeps
// it there.
type Column struct {
	Field Field

	codes Codes
	mem   *mapping // owns the array when it lives off the Go heap; nil otherwise

	dict      []string
	dictIx    map[string]int32
	dictBytes int // string bytes the dictionary holds, for SizeBytes

	ivals   []int64
	ivalIx  intIndex
	rawInts bool // an int column past MaxIntDictCardinality: ints holds it

	ints   []int64
	floats []float64

	ensure func() // optional hook: materialize all rows before a raw read
}

// NewColumn returns an empty column of the given field.
func NewColumn(f Field) *Column {
	c := &Column{Field: f}
	if f.Kind == KindString {
		c.dictIx = make(map[string]int32)
	}
	return c
}

// Coded reports whether the column is stored as dictionary codes: every
// categorical column, and an integer column that has not gone raw.
func (c *Column) Coded() bool {
	return c.Field.Kind == KindString || c.Field.Kind == KindInt && !c.rawInts
}

// Len returns the number of rows stored.
func (c *Column) Len() int {
	switch {
	case c.Coded():
		return c.codes.Len()
	case c.Field.Kind == KindInt:
		return len(c.ints)
	default:
		return len(c.floats)
	}
}

// AppendString appends a categorical value; panics on non-string columns.
func (c *Column) AppendString(s string) { c.codes.append(c.codeFor(s)) }

// codeFor returns the dictionary code of s, adding s to the dictionary the
// first time it appears.
func (c *Column) codeFor(s string) int32 {
	code, ok := c.dictIx[s]
	if !ok {
		code = c.addEntry(s)
		c.dictIx[s] = code
	}
	return code
}

// addEntry appends s, a value new to the dictionary, and returns its code;
// indexing it is the caller's business.
func (c *Column) addEntry(s string) int32 {
	c.dict = append(c.dict, s)
	c.dictBytes += len(s)
	c.fit(len(c.dict))
	return int32(len(c.dict) - 1)
}

// AppendInt appends an integer value.
func (c *Column) AppendInt(v int64) {
	if !c.rawInts {
		if code, ok := c.codeForInt(v); ok {
			c.codes.append(code)
			return
		}
	}
	c.ints = append(c.ints, v)
}

// codeForInt returns the code of v in the value dictionary, adding v the first
// time it appears. One distinct value past MaxIntDictCardinality the column
// goes raw instead and codeForInt reports false.
func (c *Column) codeForInt(v int64) (int32, bool) {
	code, ok := c.ivalIx.lookup(v)
	if !ok {
		if len(c.ivals) == MaxIntDictCardinality {
			c.SetRawInts()
			return 0, false
		}
		code = int32(len(c.ivals))
		c.ivals = append(c.ivals, v)
		c.ivalIx.add(v, code)
		c.fit(len(c.ivals))
	}
	return code, true
}

// fit widens the column's codes, if it must, to hold the codes of a
// dictionary of card entries, off the Go heap if they were. Length and
// capacity in codes carry over, so an append that crosses a width boundary
// costs one conversion of what is there and appending stays amortised O(1)
// per cell.
func (c *Column) fit(card int) {
	width := CodeWidth(card)
	if width <= c.codes.Width() {
		return
	}
	wide, m := makeCodes(width, c.codes.Len(), c.codes.Cap(), c.mem != nil)
	wide.Fill(0, c.codes, math.MaxInt)
	c.codes, c.mem = wide, m
}

// SetRawInts makes an integer column raw int64s — decoding what it holds, at
// the same capacity in rows and off the Go heap if its codes were — and drops
// the value dictionary. A lazy backing whose metadata carries no dictionary
// for the column calls it up front.
func (c *Column) SetRawInts() {
	if c.rawInts {
		return
	}
	ints, m := newArray[int64](c.codes.Len(), c.codes.Cap(), c.mem != nil)
	for i := range ints {
		ints[i] = c.ivals[c.codes.At(i)]
	}
	c.ints, c.mem, c.rawInts, c.codes, c.ivals, c.ivalIx = ints, m, true, Codes{}, nil, intIndex{}
}

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
		return SV(c.dict[c.codes.At(i)])
	case KindInt:
		return IV(c.Int(i))
	default:
		return FV(c.floats[i])
	}
}

// Float returns the cell at row i coerced to float64. For categorical
// columns it parses the dictionary entry.
func (c *Column) Float(i int) float64 {
	switch c.Field.Kind {
	case KindInt:
		return float64(c.Int(i))
	case KindFloat:
		return c.floats[i]
	default:
		return SV(c.dict[c.codes.At(i)]).Float()
	}
}

// Int returns the cell at row i of an integer column.
func (c *Column) Int(i int) int64 {
	if c.rawInts {
		return c.ints[i]
	}
	return c.ivals[c.codes.At(i)]
}

// Code returns the dictionary code at row i; only valid for Coded columns.
func (c *Column) Code(i int) int32 { return c.codes.At(i) }

// Codes exposes the packed code array of a Coded column for fast scans.
func (c *Column) Codes() Codes { return c.codes }

// Ints exposes the raw int slice: nil unless the column is a raw int one.
func (c *Column) Ints() []int64 { return c.ints }

// Floats exposes the raw float slice.
func (c *Column) Floats() []float64 { return c.floats }

// Dict returns the dictionary of a categorical column (code -> value).
func (c *Column) Dict() []string { return c.dict }

// IntDict returns the value dictionary of a Coded integer column (code ->
// value), in no particular order.
func (c *Column) IntDict() []int64 { return c.ivals }

// DictRanks returns, for each code of a dictionary whose entries are unique
// (Dict, IntDict), the rank of its entry in the sorted dictionary: codes
// compare as their values do when they compare as their ranks.
func DictRanks[T cmp.Ordered](dict []T) []uint64 {
	codes := make([]int32, len(dict))
	for i := range codes {
		codes[i] = int32(i)
	}
	slices.SortFunc(codes, func(a, b int32) int { return cmp.Compare(dict[a], dict[b]) })
	ranks := make([]uint64, len(dict))
	for rank, code := range codes {
		ranks[code] = uint64(rank)
	}
	return ranks
}

// CodeOf returns the dictionary code for s, or -1 if s never occurs.
func (c *Column) CodeOf(s string) int32 {
	if code, ok := c.dictIx[s]; ok {
		return code
	}
	return -1
}

// CodeOfInt returns the code of v in a Coded integer column's value
// dictionary, or -1 if v never occurs.
func (c *Column) CodeOfInt(v int64) int32 {
	if code, ok := c.ivalIx.lookup(v); ok {
		return code
	}
	return -1
}

// Cardinality returns the number of dictionary entries of a Coded column.
func (c *Column) Cardinality() int {
	if c.Field.Kind == KindInt {
		return len(c.ivals)
	}
	return len(c.dict)
}

// allocate replaces the column's storage with n zeroed rows and room for
// capacity, in the layout and at the width its dictionary asks for so far,
// off the Go heap when offHeap is set.
func (c *Column) allocate(n, capacity int, offHeap bool) {
	switch {
	case c.Coded():
		c.codes, c.mem = makeCodes(CodeWidth(c.Cardinality()), n, capacity, offHeap)
	case c.Field.Kind == KindInt:
		c.ints, c.mem = newArray[int64](n, capacity, offHeap)
	default:
		c.floats, c.mem = newArray[float64](n, capacity, offHeap)
	}
}

// extend returns the length-n continuation of a presized array, n >=
// len(prev). With alias set it is a re-slice of prev's backing array (the
// caller has checked cap(prev) >= n, and shares prev's mapping): holders of
// prev keep their shorter view, and rows past len(prev) are invisible to
// them. Otherwise it is fresh zeroed storage off the Go heap, returned with
// its mapping, with a quarter of headroom — grown like append, so a lineage
// of small extensions reallocates a logarithmic number of times — and the
// caller copies over whichever rows of prev it may safely read.
func extend[T element](prev []T, n int, alias bool) ([]T, *mapping) {
	if alias {
		return prev[:n], nil
	}
	return newArray[T](n, n+n/4, true)
}

// capRows returns how many rows the column's storage can hold in place.
func (c *Column) capRows() int {
	switch {
	case c.Coded():
		return c.codes.Cap()
	case c.Field.Kind == KindInt:
		return cap(c.ints)
	default:
		return cap(c.floats)
	}
}

// SetDict installs the full dictionary of a categorical column up front
// (lazy backings persist dictionaries in their metadata footer). Storage the
// column already has is widened if the dictionary asks for it.
func (c *Column) SetDict(dict []string) {
	c.dict = append([]string(nil), dict...)
	c.dictIx = make(map[string]int32, len(dict))
	c.dictBytes = 0
	for i, s := range c.dict {
		c.dictIx[s] = int32(i)
		c.dictBytes += len(s)
	}
	c.fit(len(c.dict))
}

// SetIntDict installs the full value dictionary (distinct values, at most
// MaxIntDictCardinality of them) of an integer column up front, as SetDict
// does a categorical column's.
func (c *Column) SetIntDict(vals []int64) {
	c.ivals = append([]int64(nil), vals...)
	c.ivalIx = intIndex{}
	for i, v := range c.ivals {
		c.ivalIx.add(v, int32(i))
	}
	c.fit(len(c.ivals))
}

// ShareDicts gives c src's dictionaries themselves, values and indexes, not
// copies: for a lazily backed copy of src's column, presized at the width
// src's codes have, that holds src's codes once loaded. Neither column may
// grow its dictionaries afterwards.
func (c *Column) ShareDicts(src *Column) {
	c.dict, c.dictIx, c.dictBytes = src.dict, src.dictIx, src.dictBytes
	c.ivals, c.ivalIx = src.ivals, src.ivalIx
}

// SetEnsureLoaded installs a hook DistinctSorted calls before scanning raw
// numeric data, so a lazily-backed column can materialize itself first.
func (c *Column) SetEnsureLoaded(f func()) { c.ensure = f }

// DistinctSorted returns the sorted distinct values of the column. A Coded
// column sorts its dictionary; a raw one scans (materializing a lazy backing
// first).
func (c *Column) DistinctSorted() []Value {
	switch {
	case c.Field.Kind == KindString:
		vals := append([]string(nil), c.dict...)
		sort.Strings(vals)
		out := make([]Value, len(vals))
		for i, s := range vals {
			out[i] = SV(s)
		}
		return out
	case c.Coded():
		return distinctValues(slices.Clone(c.ivals), IV)
	}
	if c.ensure != nil {
		c.ensure()
	}
	if c.Field.Kind == KindInt {
		return distinctValues(slices.Clone(c.ints), IV)
	}
	// NaN != NaN: Compact keeps every NaN, as the map this replaced did.
	return distinctValues(slices.Clone(c.floats), FV)
}

// distinctValues sorts keys in place and boxes each distinct one.
func distinctValues[T int64 | float64](keys []T, box func(T) Value) []Value {
	slices.Sort(keys)
	keys = slices.Compact(keys)
	out := make([]Value, len(keys))
	for i, k := range keys {
		out[i] = box(k)
	}
	return out
}

// SizeBytes returns the memory the column's arrays and dictionaries hold, by
// capacity, on the Go heap or off it. The value-to-code indexes are not
// counted.
func (c *Column) SizeBytes() int64 {
	const stringHeader = 16
	return int64(c.codes.Cap()*c.codes.Width() + 8*(cap(c.ints)+cap(c.floats)+cap(c.ivals)) +
		stringHeader*cap(c.dict) + c.dictBytes)
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

// Presize gives every column zeroed storage of the given row count off the
// Go heap, ready to be filled in place by a lazy backing (zpack), which has
// installed the dictionaries — they decide the code widths — and marked the
// raw integer columns first. The table reports rows rows immediately; cells
// read as code zero or zero values until their segment loads, and a page no
// segment has been read into takes no memory. The slice headers never change
// after this, so readers that captured them observe loaded data.
func (t *Table) Presize(rows int) {
	for _, c := range t.cols {
		c.allocate(rows, rows, true)
	}
	t.nrows = rows
}

// NewExtended creates the rows-row successor of a presized table over the
// same schema and column layouts (rows >= prev's), each array the extend of
// prev's: with alias set (the caller has checked prev.CapRows() >= rows) the
// two tables share backing arrays and their mappings and differ only in
// length, otherwise the successor's storage is fresh, off the Go heap, with
// headroom. Dictionaries and hooks are not carried over; the lazy backing
// installs its own, which must ask for the code widths prev has.
func NewExtended(prev *Table, rows int, alias bool) *Table {
	t := &Table{Name: prev.Name, byName: make(map[string]*Column, len(prev.cols)), nrows: rows}
	for _, pc := range prev.cols {
		c := NewColumn(pc.Field)
		c.rawInts = pc.rawInts
		switch {
		case c.Coded():
			c.codes, c.mem = pc.codes.extended(rows, alias)
		case c.Field.Kind == KindInt:
			c.ints, c.mem = extend(pc.ints, rows, alias)
		default:
			c.floats, c.mem = extend(pc.floats, rows, alias)
		}
		if alias {
			c.mem = pc.mem
		}
		t.cols = append(t.cols, c)
		t.byName[c.Field.Name] = c
	}
	return t
}

// CopyRows copies rows [lo, hi) of src — a column of c's field, layout and
// code width — into the same rows of c.
func (c *Column) CopyRows(src *Column, lo, hi int) {
	switch {
	case c.Coded():
		c.codes.Fill(lo, src.codes.slice(lo, hi), math.MaxInt)
	case c.Field.Kind == KindInt:
		copy(c.ints[lo:hi], src.ints[lo:hi])
	default:
		copy(c.floats[lo:hi], src.floats[lo:hi])
	}
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

// SizeBytes returns the memory the table's column arrays and dictionaries
// hold (capacity, not length), on the Go heap or off it: the one answer to
// "how big is the table".
func (t *Table) SizeBytes() int64 {
	var b int64
	for _, c := range t.cols {
		b += c.SizeBytes()
	}
	return b
}

// OffHeap moves every column array still on the Go heap into a mapping of
// its own, at the same length and capacity: what a table built on the heap
// (a demo dataset, a test's) goes through once before it is served. Nothing
// may read or write the table meanwhile.
func (t *Table) OffHeap() {
	for _, c := range t.cols {
		switch {
		case c.mem != nil:
		case c.Coded():
			c.codes, c.mem = c.codes.movedOffHeap()
		case c.Field.Kind == KindInt:
			c.ints, c.mem = movedOffHeap(c.ints)
		default:
			c.floats, c.mem = movedOffHeap(c.floats)
		}
	}
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

// Truncate drops every row but keeps the dictionaries, the layouts and the
// storage: a buffer table that fills and drains over and over neither forgets a
// code nor allocates again.
func (t *Table) Truncate() {
	for _, c := range t.cols {
		c.codes, c.ints, c.floats = c.codes.slice(0, 0), c.ints[:0], c.floats[:0]
	}
	t.nrows = 0
}

// Remap translates the dictionary codes of a source table's Coded columns
// into a destination's, one array per column (nil for raw columns). Codes
// resolve on first use, in append order, so the destination's dictionaries grow
// in first-appearance order exactly as cell-by-cell appends would grow them —
// but with one dictionary lookup per distinct value instead of one per cell. A
// Remap stays valid for as long as both tables' dictionaries only grow.
type Remap struct {
	codes [][]int32 // -1: not resolved yet
	left  []int     // per column, how many entries are still -1
}

// NewRemap returns the unresolved Remap out of src.
func NewRemap(src *Table) Remap {
	rm := Remap{codes: make([][]int32, len(src.cols)), left: make([]int, len(src.cols))}
	for j, c := range src.cols {
		if c.Coded() {
			rm.codes[j] = make([]int32, c.Cardinality())
			for i := range rm.codes[j] {
				rm.codes[j][i] = -1
			}
			rm.left[j] = len(rm.codes[j])
		}
	}
	return rm
}

// AppendRange appends rows [lo, hi) of src column by column. src has t's
// schema (arity and kinds, which the caller has checked) but its own
// dictionaries and layouts; rm, from NewRemap(src), carries the code
// translation across calls.
func (t *Table) AppendRange(src *Table, lo, hi int, rm Remap) {
	for j, c := range t.cols {
		c.appendFrom(src.cols[j], lo, hi, rm.codes[j], &rm.left[j])
	}
	t.nrows += hi - lo
}

// appendFrom appends src's cells [lo, hi), whatever the two columns' layouts.
// remap and left are the pair's entry of a Remap (nil when src is raw).
func (c *Column) appendFrom(src *Column, lo, hi int, remap []int32, left *int) {
	switch {
	case c.Field.Kind == KindFloat:
		c.floats = append(c.floats, src.floats[lo:hi]...)
		return
	case !src.Coded():
		// Raw ints: c, Coded or not, takes them a cell at a time.
		for _, v := range src.ints[lo:hi] {
			c.AppendInt(v)
		}
		return
	}
	// First the codes of the range that have no translation yet, in row
	// order: this is where c's dictionary grows — and its array widens, or an
	// int column goes raw — so the copy below runs at one width.
	for r := lo; r < hi && *left > 0 && !c.rawInts; r++ {
		c.resolve(src, src.codes.At(r), remap, left)
	}
	if c.rawInts {
		for r := lo; r < hi; r++ {
			c.ints = append(c.ints, src.ivals[src.codes.At(r)])
		}
		return
	}
	c.codes.appendMapped(src.codes, lo, hi, remap)
}

// Gather returns a new table of the rows of t that rows lists, in that order,
// gathered a whole column per ForEachColumn call. It shares t's dictionaries,
// so codes mean the same in both and none is translated; neither table may be
// appended to afterwards.
func (t *Table) Gather(rows []int) *Table {
	out := &Table{Name: t.Name, cols: make([]*Column, len(t.cols)), byName: make(map[string]*Column, len(t.cols)), nrows: len(rows)}
	t.ForEachColumn(func(j int, c *Column) {
		g := *c
		g.ensure, g.mem, g.codes, g.ints, g.floats = nil, nil, c.codes.gathered(rows), gather(c.ints, rows), gather(c.floats, rows)
		out.cols[j] = &g
	})
	for _, c := range out.cols {
		out.byName[c.Field.Name] = c
	}
	return out
}

func gather[T any](src []T, rows []int) []T {
	if src == nil {
		return nil
	}
	out := make([]T, len(rows))
	for i, r := range rows {
		out[i] = src[r]
	}
	return out
}

// ForEachColumn calls f once for each column, on up to GOMAXPROCS goroutines
// at a time, and returns when every call has.
func (t *Table) ForEachColumn(f func(j int, c *Column)) {
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for j, c := range t.cols {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			f(j, c)
		}()
	}
	wg.Wait()
}

// resolve gives src's code sc its translation in remap, if it has none yet:
// the code of the same entry in c's dictionary, which grows by it if it must.
// An int column that would outgrow its dictionary goes raw instead, and
// resolves nothing from then on.
func (c *Column) resolve(src *Column, sc int32, remap []int32, left *int) {
	if remap[sc] >= 0 || c.rawInts {
		return
	}
	if c.Field.Kind == KindString {
		remap[sc] = c.codeFor(src.dict[sc])
	} else if code, ok := c.codeForInt(src.ivals[sc]); ok {
		remap[sc] = code
	} else {
		return
	}
	*left--
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
