package dataset

import "slices"

// The packed physical form of dictionary-coded columns. A categorical column,
// and an integer column with at most MaxIntDictCardinality distinct values, is
// stored only as codes into its dictionary, in the narrowest of one, two or
// four bytes that holds the dictionary; nothing wider is kept beside it.

// MaxIntDictCardinality bounds the distinct values an integer column may have
// and still be stored as codes over a value dictionary (the same 4096 the
// bitmap store uses for its integer value indexes). One value more and the
// column is raw int64s for good.
const MaxIntDictCardinality = 4096

// Code is the set of code widths; kernels over packed codes are written once,
// generic over it.
type Code interface{ uint8 | uint16 | uint32 }

// CodeWidth returns the bytes per code of a column whose dictionary has card
// entries: 1 up to 256 entries, 2 up to 65 536, else 4.
func CodeWidth(card int) int {
	switch {
	case card <= 1<<8:
		return 1
	case card <= 1<<16:
		return 2
	}
	return 4
}

// Codes is a packed code array: U16 or U32 when that one is non-nil, U8
// otherwise (an empty array is a U8 one). Hot loops switch on the width once
// and run a kernel generic over Code; everything else reads through At.
type Codes struct {
	U8  []uint8
	U16 []uint16
	U32 []uint32
}

// Width returns the bytes per code.
func (p Codes) Width() int {
	switch {
	case p.U16 != nil:
		return 2
	case p.U32 != nil:
		return 4
	}
	return 1
}

// Len returns the number of codes.
func (p Codes) Len() int {
	switch {
	case p.U16 != nil:
		return len(p.U16)
	case p.U32 != nil:
		return len(p.U32)
	}
	return len(p.U8)
}

// Cap returns how many codes the array can hold in place.
func (p Codes) Cap() int {
	switch {
	case p.U16 != nil:
		return cap(p.U16)
	case p.U32 != nil:
		return cap(p.U32)
	}
	return cap(p.U8)
}

// At returns code i.
func (p Codes) At(i int) int32 {
	switch {
	case p.U16 != nil:
		return int32(p.U16[i])
	case p.U32 != nil:
		return int32(p.U32[i])
	}
	return int32(p.U8[i])
}

// makeCodes returns a zeroed array of n codes, width bytes each, with room
// for capacity, off the Go heap when offHeap is set (newArray).
func makeCodes(width, n, capacity int, offHeap bool) (Codes, *mapping) {
	switch width {
	case 2:
		a, m := newArray[uint16](n, capacity, offHeap)
		return Codes{U16: a}, m
	case 4:
		a, m := newArray[uint32](n, capacity, offHeap)
		return Codes{U32: a}, m
	}
	a, m := newArray[uint8](n, capacity, offHeap)
	return Codes{U8: a}, m
}

func (p *Codes) append(code int32) {
	switch {
	case p.U16 != nil:
		p.U16 = append(p.U16, uint16(code))
	case p.U32 != nil:
		p.U32 = append(p.U32, uint32(code))
	default:
		p.U8 = append(p.U8, uint8(code))
	}
}

// Fill copies the codes of src into p from code at on, converting each to p's
// width, and reports whether every one lies below card. The check ORs together
// card-1-code for every code, which wraps to a value with its top bit set when
// a code is out of range: one test per call, no branch per code.
func (p Codes) Fill(at int, src Codes, card int) bool {
	switch {
	case p.U16 != nil:
		return fillFrom(p.U16[at:], src, card)
	case p.U32 != nil:
		return fillFrom(p.U32[at:], src, card)
	}
	return fillFrom(p.U8[at:], src, card)
}

func fillFrom[D Code](dst []D, src Codes, card int) bool {
	switch {
	case src.U16 != nil:
		return fill(dst, src.U16, card)
	case src.U32 != nil:
		return fill(dst, src.U32, card)
	}
	return fill(dst, src.U8, card)
}

func fill[D, S Code](dst []D, src []S, card int) bool {
	var bad uint64
	top := uint64(card) - 1
	for i, c := range src {
		dst[i] = D(c)
		bad |= top - uint64(c)
	}
	return bad>>63 == 0
}

// Below reports whether every code lies below card, by Fill's test, without
// copying a code: what a block read straight into its array is checked with.
func (p Codes) Below(card int) bool {
	switch {
	case p.U16 != nil:
		return below(p.U16, card)
	case p.U32 != nil:
		return below(p.U32, card)
	}
	return below(p.U8, card)
}

func below[W Code](codes []W, card int) bool {
	if uint64(card) > uint64(^W(0)) { // every code of the width is below card
		return true
	}
	var bad uint64
	top := uint64(card) - 1
	for _, c := range codes {
		bad |= top - uint64(c)
	}
	return bad>>63 == 0
}

// slice returns codes [lo, hi) of the array, hi <= Cap, over the same storage.
func (p Codes) slice(lo, hi int) Codes {
	switch {
	case p.U16 != nil:
		return Codes{U16: p.U16[lo:hi]}
	case p.U32 != nil:
		return Codes{U32: p.U32[lo:hi]}
	}
	return Codes{U8: p.U8[lo:hi]}
}

// gathered returns a new array of src's codes at rows, in that order.
func (p Codes) gathered(rows []int) Codes {
	switch {
	case p.U16 != nil:
		return Codes{U16: gather(p.U16, rows)}
	case p.U32 != nil:
		return Codes{U32: gather(p.U32, rows)}
	}
	return Codes{U8: gather(p.U8, rows)}
}

// appendMapped appends remap[src.At(r)] for each r of [lo, hi). Every code of
// the range has its translation by now, and the array its final width.
func (p *Codes) appendMapped(src Codes, lo, hi int, remap []int32) {
	n := p.Len()
	switch {
	case p.U16 != nil:
		p.U16 = slices.Grow(p.U16, hi-lo)[:n+hi-lo]
	case p.U32 != nil:
		p.U32 = slices.Grow(p.U32, hi-lo)[:n+hi-lo]
	default:
		p.U8 = slices.Grow(p.U8, hi-lo)[:n+hi-lo]
	}
	p.fillMapped(n, src.slice(lo, hi), remap)
}

// fillMapped writes remap[c] for each code c of src over p's codes from at on.
func (p Codes) fillMapped(at int, src Codes, remap []int32) {
	switch {
	case p.U16 != nil:
		fillMapped(p.U16[at:], src, remap)
	case p.U32 != nil:
		fillMapped(p.U32[at:], src, remap)
	default:
		fillMapped(p.U8[at:], src, remap)
	}
}

func fillMapped[D Code](dst []D, src Codes, remap []int32) {
	switch {
	case src.U16 != nil:
		mapCodes(dst, src.U16, remap)
	case src.U32 != nil:
		mapCodes(dst, src.U32, remap)
	default:
		mapCodes(dst, src.U8, remap)
	}
}

// mapCodes fills dst with remap[c] for each code c of src.
func mapCodes[D, S Code](dst []D, src []S, remap []int32) {
	for i, sc := range src {
		dst[i] = D(remap[sc])
	}
}

// intIndex maps the values of an integer dictionary to their codes: a dense
// table over [base, base+len(dense)) while the values span little — one load
// per lookup, which is what CSV decode and v1 zpack loads pay per cell —
// and a map once they do not.
type intIndex struct {
	base  int64
	dense []int32 // code+1 of value base+i; 0 = not in the dictionary
	m     map[int64]int32
}

// maxDenseSpan caps the dense table (256 KiB of int32s).
const maxDenseSpan = 1 << 16

func (ix *intIndex) lookup(v int64) (int32, bool) {
	if ix.m != nil {
		code, ok := ix.m[v]
		return code, ok
	}
	if v < ix.base {
		return 0, false
	}
	// v >= base, so the unsigned difference is the true one, whatever the signs.
	if d := uint64(v) - uint64(ix.base); d < uint64(len(ix.dense)) {
		code := ix.dense[d]
		return code - 1, code != 0
	}
	return 0, false
}

func (ix *intIndex) add(v int64, code int32) {
	if ix.m == nil {
		if ix.cover(v) {
			ix.dense[uint64(v)-uint64(ix.base)] = code + 1
			return
		}
		// Sized by the entries (codes arrive in order), not by the span the
		// dense table covered: a few far-apart values must not cost a map of
		// maxDenseSpan slots.
		ix.m = make(map[int64]int32, 2*int(code+1))
		for i, c := range ix.dense {
			if c != 0 {
				ix.m[ix.base+int64(i)] = c - 1
			}
		}
		ix.dense = nil
	}
	ix.m[v] = code
}

// cover grows the dense table to include v, at least doubling it so that
// values arriving in order cost amortised O(1) each; it reports false when the
// table would pass maxDenseSpan. Offsets are unsigned differences from base,
// which are exact for any two int64s in order.
func (ix *intIndex) cover(v int64) bool {
	n := uint64(len(ix.dense))
	if n == 0 {
		ix.base, ix.dense = v, make([]int32, 64)
		return true
	}
	if v >= ix.base {
		d := uint64(v) - uint64(ix.base)
		if d >= maxDenseSpan {
			return false
		}
		if d >= n {
			grown := make([]int32, min(maxDenseSpan, max(d+1, 2*n)))
			copy(grown, ix.dense)
			ix.dense = grown
		}
		return true
	}
	shift := uint64(ix.base) - uint64(v)
	if shift >= maxDenseSpan || shift+n > maxDenseSpan {
		return false
	}
	// Leave as much room below v again, down to where int64 ends (1<<63 is
	// MinInt64 as an offset).
	shift = min(max(shift, n), maxDenseSpan-n, uint64(ix.base)-1<<63)
	grown := make([]int32, shift+n)
	copy(grown[shift:], ix.dense)
	ix.base, ix.dense = ix.base-int64(shift), grown
	return true
}
