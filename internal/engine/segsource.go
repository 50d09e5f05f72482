package engine

import (
	"math"

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

// SegmentSource supplies a segmented table whose column data materializes
// lazily: the schema, dictionaries (categorical and integer, on the table's
// columns) and zone maps are available up front (cheap, footer-sized
// metadata), while the column data of a segment is decoded only when Load is
// first called for it. This is the
// seam the zpack persistent format plugs into — zone-map skipping works
// without ever deserializing skipped segments.
type SegmentSource interface {
	// Table returns the base table: full schema, dictionaries, and row count,
	// with column data slices preallocated but unfilled until Load.
	Table() *dataset.Table
	// NumSegments returns the segment count, ceil(rows / SegmentSize).
	NumSegments() int
	// Zone returns the named column's zone maps, or nil if unknown.
	Zone(col string) *ZoneData
	// Load materializes segment seg's rows into the table's column arrays.
	// Load must be safe for concurrent use
	// and idempotent — the column store calls it for every segment a scan
	// visits, on every scan; implementations synchronize and load once.
	Load(seg int) error
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
func (s *memSource) Load(int) error            { return nil }

// ComputeZones builds every column's per-segment zone maps over a fully
// materialized table. It is the single definition of zone semantics: the
// in-memory column store uses it at construction and the zpack writer uses
// it at segment-seal time, so the skipping proofs agree byte for byte.
func ComputeZones(t *dataset.Table) map[string]*ZoneData {
	n := t.NumRows()
	nseg := (n + SegmentSize - 1) / SegmentSize
	zones := make(map[string]*ZoneData, t.NumCols())
	for _, c := range t.Columns() {
		z := &ZoneData{}
		if c.Field.Kind == dataset.KindString {
			z.Words = (c.Cardinality() + 63) / 64
			if z.Words == 0 {
				z.Words = 1
			}
			z.Present = make([]uint64, nseg*z.Words)
			switch pc := c.Codes(); {
			case pc.U16 != nil:
				markPresent(pc.U16, z)
			case pc.U32 != nil:
				markPresent(pc.U32, z)
			default:
				markPresent(pc.U8, z)
			}
		} else {
			z.Min = make([]float64, nseg)
			z.Max = make([]float64, nseg)
			z.NaN = make([]bool, nseg)
			vals := newNumReader(c)
			var rows [SegmentSize]int32
			var buf [SegmentSize]float64
			for s := 0; s < nseg; s++ {
				z.Min[s], z.Max[s] = math.Inf(1), math.Inf(-1)
				seg := rows[:min(n, (s+1)*SegmentSize)-s*SegmentSize]
				for i := range seg {
					seg[i] = int32(s*SegmentSize + i)
				}
				for _, v := range vals.gather(seg, buf[:]) {
					if v != v {
						z.NaN[s] = true
						continue
					}
					// Not min/max: the zones go into zpack footers, and those
					// order -0 below +0 where < does not.
					if v < z.Min[s] {
						z.Min[s] = v
					}
					if v > z.Max[s] {
						z.Max[s] = v
					}
				}
			}
		}
		zones[c.Field.Name] = z
	}
	return zones
}

// markPresent sets, per segment, the presence bit of every code that occurs.
func markPresent[W dataset.Code](codes []W, z *ZoneData) {
	for i, code := range codes {
		z.Present[(i/SegmentSize)*z.Words+int(code>>6)] |= 1 << (uint(code) & 63)
	}
}
