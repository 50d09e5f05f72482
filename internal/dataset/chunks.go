package dataset

import (
	"math"
	"sort"
)

// Chunks is a table held as the run of chunks it was decoded in — row ranges,
// each with its own dictionaries — together with the dictionaries they merge
// into: what DecodeCSV hands a writer, which can seal segments straight from
// the chunks (zpack.Build) and never hold a second copy of the table, and what
// Table stitches for a caller that wants one. A Table is the one-chunk case
// (Table.Chunks), its own dictionaries the merged ones.
type Chunks struct {
	Name string
	// dicts carries the merged dictionaries and the final column layouts:
	// every code width, and which integer columns are raw.
	dicts  *Table
	parts  []*Table // the chunks, in row order
	starts []int    // the first row of each part
	// remaps translate each part's codes into dicts'; nil when the one part
	// is dicts itself.
	remaps []Remap
	rows   int
}

// Chunks returns t as its own single chunk.
func (t *Table) Chunks() *Chunks {
	return &Chunks{Name: t.Name, dicts: t, parts: []*Table{t}, starts: []int{0}, rows: t.nrows}
}

// Chunks returns c itself: a Table and a Chunks both answer it, so a writer
// can take either.
func (c *Chunks) Chunks() *Chunks { return c }

// mergeChunks merges the parts' dictionaries in part order — which is
// first-appearance order, because each part's dictionary is — so every code
// width and raw-int decision is final before a row is copied anywhere.
func mergeChunks(name string, fields []Field, parts []*Table) *Chunks {
	c := &Chunks{Name: name, dicts: NewTable(name, fields), parts: parts,
		starts: make([]int, len(parts)), remaps: make([]Remap, len(parts))}
	for i, p := range parts {
		c.starts[i] = c.rows
		c.rows += p.nrows
		// A part's whole dictionary, in its own order: every entry occurs in
		// the part, first appearances in dictionary order. A raw part column
		// had too many values for the merged one to be anything else.
		rm := NewRemap(p)
		for j, dc := range c.dicts.cols {
			src := p.cols[j]
			if dc.Field.Kind == KindInt && !src.Coded() {
				dc.SetRawInts()
			}
			for sc := range rm.codes[j] {
				dc.resolve(src, int32(sc), rm.codes[j], &rm.left[j])
			}
		}
		c.remaps[i] = rm
	}
	return c
}

// NumRows returns the row count.
func (c *Chunks) NumRows() int { return c.rows }

// Fields returns the schema.
func (c *Chunks) Fields() []Field { return c.dicts.Fields() }

// Dicts returns the table whose columns carry the merged dictionaries and the
// layouts every row is written at. Its rows, if it has any, are read through
// Segment.
func (c *Chunks) Dicts() *Table { return c.dicts }

// Segment returns rows [lo, hi) as a table at the final layouts, sharing the
// merged dictionaries: a view of the one part that needs no remapping, or
// otherwise the rows remapped from the one or two parts they lie in into
// scratch's storage. scratch is nil or what an earlier call on c returned; the
// result is valid until the next call given it.
func (c *Chunks) Segment(lo, hi int, scratch *Table) *Table {
	if c.remaps == nil {
		return c.parts[0].slice(lo, hi)
	}
	seg := scratch
	if seg == nil || seg.CapRows() < hi-lo {
		seg = c.empty(hi - lo)
	}
	seg.resize(hi - lo)
	c.CopyRows(seg, 0, lo, hi)
	return seg
}

// CopyRows writes rows [lo, hi) over dst's rows from at on. dst has the final
// layouts, and the merged dictionaries or copies of them.
func (c *Chunks) CopyRows(dst *Table, at, lo, hi int) {
	for i := sort.SearchInts(c.starts, lo+1) - 1; i < len(c.parts) && c.starts[i] < hi; i++ {
		p, start := c.parts[i], c.starts[i]
		plo, phi := max(lo, start)-start, min(hi, start+p.nrows)-start
		for j, dc := range dst.cols {
			var remap []int32
			if c.remaps != nil {
				remap = c.remaps[i].codes[j]
			}
			dc.fillFrom(p.cols[j], plo, phi, at+start+plo-lo, remap)
		}
	}
}

// Table stitches the chunks into one table, every column allocated once,
// exact-size, at its final layout and off the Go heap. From then on c is that
// table's one chunk.
func (c *Chunks) Table() *Table {
	t := c.dicts
	if c.remaps == nil || c.rows == 0 {
		return t
	}
	for _, dc := range t.cols {
		dc.allocate(c.rows, c.rows, true)
	}
	t.nrows = c.rows
	c.CopyRows(t, 0, 0, c.rows)
	c.parts, c.starts, c.remaps = []*Table{t}, []int{0}, nil
	return t
}

// empty returns a table of the merged layouts and dictionaries with storage
// for rows rows.
func (c *Chunks) empty(rows int) *Table {
	t := NewTable(c.Name, c.dicts.Fields())
	for j, col := range t.cols {
		col.ShareDicts(c.dicts.cols[j])
		col.rawInts = c.dicts.cols[j].rawInts
		col.allocate(rows, rows, false)
	}
	t.nrows = rows
	return t
}

// slice returns rows [lo, hi) of t as a table over the same storage and
// dictionaries.
func (t *Table) slice(lo, hi int) *Table {
	out := &Table{Name: t.Name, cols: make([]*Column, len(t.cols)), byName: make(map[string]*Column, len(t.cols)), nrows: hi - lo}
	for j, c := range t.cols {
		s := *c
		s.ensure = nil
		switch {
		case c.Coded():
			s.codes = c.codes.slice(lo, hi)
		case c.Field.Kind == KindInt:
			s.ints = c.ints[lo:hi]
		default:
			s.floats = c.floats[lo:hi]
		}
		out.cols[j] = &s
		out.byName[s.Field.Name] = &s
	}
	return out
}

// resize sets every column, and the table, to n rows within capacity.
func (t *Table) resize(n int) {
	for _, c := range t.cols {
		switch {
		case c.Coded():
			c.codes = c.codes.slice(0, n)
		case c.Field.Kind == KindInt:
			c.ints = c.ints[:n]
		default:
			c.floats = c.floats[:n]
		}
	}
	t.nrows = n
}

// fillFrom writes src's cells [lo, hi) over c's rows from at on, whatever the
// two columns' layouts; remap translates src's codes into c's dictionary,
// which already holds every one of them unless c is raw, and nil means the
// codes are c's already.
func (c *Column) fillFrom(src *Column, lo, hi, at int, remap []int32) {
	switch {
	case c.Field.Kind == KindFloat:
		copy(c.floats[at:], src.floats[lo:hi])
	case c.Coded() && remap == nil:
		c.codes.Fill(at, src.codes.slice(lo, hi), math.MaxInt)
	case c.Coded():
		c.codes.fillMapped(at, src.codes.slice(lo, hi), remap)
	case !src.Coded():
		copy(c.ints[at:], src.ints[lo:hi])
	default:
		// A raw column from a coded part: each code's value.
		for k := lo; k < hi; k++ {
			c.ints[at+k-lo] = src.ivals[src.codes.At(k)]
		}
	}
}
