package engine

import (
	"encoding/binary"
	"math"
	"math/bits"

	"repro/internal/dataset"
)

// SegmentSize is the fixed row count of one column-store segment: the unit
// of zone-map granularity, of vectorized predicate evaluation, and of the
// on-disk zpack block layout. 4096 rows keeps a segment's selection bitmap
// at 64 words and a segment's worth of one float64 column inside L1/L2.
const SegmentSize = 4096

// ZoneData holds one column's per-segment zone maps. Numeric columns carry
// min/max plus a NaN-presence flag (NaN compares false with everything, so
// it never lands in min/max — but it still matches != predicates);
// categorical columns carry a presence bitset over dictionary codes (Words
// words per segment).
type ZoneData struct {
	Min, Max []float64 // numeric columns: one entry per segment
	NaN      []bool
	Words    int      // categorical columns: bitset words per segment
	Present  []uint64 // categorical columns: nseg * Words presence bits
}

func (z *ZoneData) hasCode(s int, code int32) bool {
	return z.Present[s*z.Words+int(code>>6)]&(1<<(uint(code)&63)) != 0
}

// onlyCode reports whether code is the only dictionary code present in
// segment s.
func (z *ZoneData) onlyCode(s int, code int32) bool {
	base := s * z.Words
	for w := 0; w < z.Words; w++ {
		p := z.Present[base+w]
		if w == int(code>>6) {
			p &^= 1 << (uint(code) & 63)
		}
		if p != 0 {
			return false
		}
	}
	return true
}

// anyCode reports whether any code of the want bitset occurs in segment s.
func (z *ZoneData) anyCode(s int, want []uint64) bool {
	base := s * z.Words
	for w := 0; w < z.Words; w++ {
		if z.Present[base+w]&want[w] != 0 {
			return true
		}
	}
	return false
}

// ColumnSet is a set of a table's columns by ordinal, their position in
// Table.Columns(): bit j%64 of word j/64 stands for column j.
type ColumnSet []uint64

// NewColumnSet returns the set of the given ordinals, sized for a table of n
// columns.
func NewColumnSet(n int, cols ...int) ColumnSet {
	s := make(ColumnSet, (n+63)/64)
	for _, j := range cols {
		s.Add(j)
	}
	return s
}

// AllColumns returns the set of every column of a table of n columns.
func AllColumns(n int) ColumnSet {
	s := NewColumnSet(n)
	for j := 0; j < n; j++ {
		s.Add(j)
	}
	return s
}

// Add puts column j into the set, which must be sized for it.
func (s ColumnSet) Add(j int) { s[j>>6] |= 1 << (uint(j) & 63) }

// Has reports whether column j is in the set.
func (s ColumnSet) Has(j int) bool { return j>>6 < len(s) && s[j>>6]&(1<<(uint(j)&63)) != 0 }

// Or adds the columns of o to s, which must be at least as long.
func (s ColumnSet) Or(o ColumnSet) {
	for w, b := range o {
		s[w] |= b
	}
}

// SegmentSource supplies a segmented table whose column data materializes
// lazily: the schema, dictionaries (categorical and integer, on the table's
// columns) and zone maps are available up front (cheap, footer-sized
// metadata), while a column's data in a segment — one block — is decoded only
// when Load is first asked for it. This is the seam the zpack persistent
// format plugs into — zone-map skipping works without ever deserializing
// skipped segments, and a scan never deserializes a column no plan of it
// reads.
type SegmentSource interface {
	// Table returns the base table: full schema, dictionaries, and row count,
	// with column data slices preallocated but unfilled until Load.
	Table() *dataset.Table
	// NumSegments returns the segment count, ceil(rows / SegmentSize).
	NumSegments() int
	// Zone returns the named column's zone maps, or nil if unknown.
	Zone(col string) *ZoneData
	// Load materializes segment seg's rows of the columns in cols into the
	// table's column arrays. Load must be safe for concurrent use and
	// idempotent — the column store calls it for every segment a scan
	// visits, on every scan; implementations synchronize and load each
	// (segment, column) block once.
	Load(seg int, cols ColumnSet) error
}

// memSource adapts a fully in-memory table to the SegmentSource interface:
// everything is already materialized, so Load is a no-op. It is what
// NewColumnStore wraps its tables in, keeping one construction path for the
// eager and lazy cases.
type memSource struct {
	t     *dataset.Table
	nseg  int
	zones map[string]*ZoneData
}

// NewMemSource builds an eager SegmentSource over an in-memory table,
// computing its zone maps up front.
func NewMemSource(t *dataset.Table) SegmentSource {
	return &memSource{
		t:     t,
		nseg:  (t.NumRows() + SegmentSize - 1) / SegmentSize,
		zones: ComputeZones(t),
	}
}

func (s *memSource) Table() *dataset.Table     { return s.t }
func (s *memSource) NumSegments() int          { return s.nseg }
func (s *memSource) Zone(col string) *ZoneData { return s.zones[col] }
func (s *memSource) Load(int, ColumnSet) error { return nil }

// ComputeZones builds every column's per-segment zone maps over a fully
// materialized table, one ColumnZones per column on t.ForEachColumn's
// goroutines.
func ComputeZones(t *dataset.Table) map[string]*ZoneData {
	byCol := make([]*ZoneData, t.NumCols())
	t.ForEachColumn(func(j int, c *dataset.Column) { byCol[j] = ColumnZones(c, t.NumRows()) })
	zones := make(map[string]*ZoneData, t.NumCols())
	for j, c := range t.Columns() {
		zones[c.Field.Name] = byCol[j]
	}
	return zones
}

// ColumnZones builds the zone maps of the first n rows of c, one per
// SegmentSize rows. It is the single definition of zone semantics: the
// in-memory column store uses it at construction and the zpack writer as it
// seals each segment, so the skipping proofs agree byte for byte.
func ColumnZones(c *dataset.Column, n int) *ZoneData {
	nseg := (n + SegmentSize - 1) / SegmentSize
	z := &ZoneData{}
	if c.Field.Kind == dataset.KindString {
		markCodes(c, z, nseg)
		return z
	}
	z.Min = make([]float64, nseg)
	z.Max = make([]float64, nseg)
	z.NaN = make([]bool, nseg)
	for s := range z.Min {
		z.Min[s], z.Max[s] = math.Inf(1), math.Inf(-1)
	}
	if c.Coded() {
		// A dictionary-coded int: a segment's extremes are those of the
		// values of the codes it holds, so no cell is decoded.
		p := &ZoneData{}
		markCodes(c, p, nseg)
		dict := c.IntDict()
		for s := range z.Min {
			for w, word := range p.Present[s*p.Words : (s+1)*p.Words] {
				for ; word != 0; word &= word - 1 {
					z.note(s, float64(dict[w<<6|bits.TrailingZeros64(word)]))
				}
			}
		}
		return z
	}
	for s := range z.Min {
		lo, hi := s*SegmentSize, min(n, (s+1)*SegmentSize)
		if c.Field.Kind == dataset.KindFloat {
			noteAll(z, s, c.Floats()[lo:hi])
		} else {
			noteAll(z, s, c.Ints()[lo:hi])
		}
	}
	return z
}

// noteAll takes the cells of vals into segment s's numeric zone.
func noteAll[T int64 | float64](z *ZoneData, s int, vals []T) {
	for _, v := range vals {
		z.note(s, float64(v))
	}
}

// note takes cell value v into segment s's numeric zone.
func (z *ZoneData) note(s int, v float64) {
	if v != v {
		z.NaN[s] = true
		return
	}
	// Not min/max: the zones go into zpack footers, and those order -0 below
	// +0 where < does not.
	if v < z.Min[s] {
		z.Min[s] = v
	}
	if v > z.Max[s] {
		z.Max[s] = v
	}
}

// markCodes gives z a presence bitset per segment over a Coded column's
// dictionary codes, and sets the bit of every code each segment holds.
func markCodes(c *dataset.Column, z *ZoneData, nseg int) {
	z.Words = max((c.Cardinality()+63)/64, 1)
	z.Present = make([]uint64, nseg*z.Words)
	switch pc := c.Codes(); {
	case pc.U16 != nil:
		markPresent(pc.U16, z)
	case pc.U32 != nil:
		markPresent(pc.U32, z)
	default:
		markPresent(pc.U8, z)
	}
}

// markPresent sets, per segment, the presence bit of every code that occurs.
// It marks a byte per code in a segment's scratch, then folds the bytes into
// bits eight at a time: a store per row that depends on no earlier one,
// where OR-ing into a bitset word makes each row wait on the last store to
// that word. A dictionary wider than a segment keeps markEach, whose
// scratch would outweigh the segment.
func markPresent[W dataset.Code](codes []W, z *ZoneData) {
	if z.Words*64 > SegmentSize {
		markEach(codes, z)
		return
	}
	seen := make([]byte, z.Words*64)
	for lo := 0; lo < len(codes); lo += SegmentSize {
		for _, code := range codes[lo:min(lo+SegmentSize, len(codes))] {
			seen[code] = 1
		}
		words := z.Present[lo/SegmentSize*z.Words:][:z.Words]
		for w := range words {
			var word uint64
			for k := 0; k < 8; k++ {
				// Eight 0/1 bytes, byte i at bit 8i: the product puts byte
				// i at bit 56+i, and no two partial products collide.
				x := binary.LittleEndian.Uint64(seen[w*64+k*8:])
				word |= (x * 0x0102040810204080 >> 56) << (8 * k)
			}
			words[w] = word
		}
		clear(seen)
	}
}

// markEach is markPresent a row at a time.
func markEach[W dataset.Code](codes []W, z *ZoneData) {
	for i, code := range codes {
		z.Present[(i/SegmentSize)*z.Words+int(code>>6)] |= 1 << (uint(code) & 63)
	}
}
