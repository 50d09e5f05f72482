package dataset

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
// for capacity.
func makeCodes(width, n, capacity int) Codes {
	switch width {
	case 2:
		return Codes{U16: make([]uint16, n, capacity)}
	case 4:
		return Codes{U32: make([]uint32, n, capacity)}
	}
	return Codes{U8: make([]uint8, n, capacity)}
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

// fit widens the array, if it must, to hold the codes of a dictionary of card
// entries. Length and capacity in codes carry over, so an append that crosses
// a width boundary costs one conversion of what is there and appending stays
// amortised O(1) per cell.
func (p *Codes) fit(card int) {
	width := CodeWidth(card)
	if width <= p.Width() {
		return
	}
	wide := makeCodes(width, p.Len(), p.Cap())
	switch {
	case wide.U16 != nil:
		widen(wide.U16, p.U8)
	case p.U16 != nil:
		widen(wide.U32, p.U16)
	default:
		widen(wide.U32, p.U8)
	}
	*p = wide
}

func widen[D, S Code](dst []D, src []S) {
	for i, c := range src {
		dst[i] = D(c)
	}
}

// resliced returns the array at length n <= Cap, over the same storage.
func (p Codes) resliced(n int) Codes {
	switch {
	case p.U16 != nil:
		return Codes{U16: p.U16[:n]}
	case p.U32 != nil:
		return Codes{U32: p.U32[:n]}
	}
	return Codes{U8: p.U8[:n]}
}

// extended is extend at the array's own width.
func (p Codes) extended(n int, alias bool) Codes {
	switch {
	case p.U16 != nil:
		return Codes{U16: extend(p.U16, n, alias)}
	case p.U32 != nil:
		return Codes{U32: extend(p.U32, n, alias)}
	}
	return Codes{U8: extend(p.U8, n, alias)}
}

// copyRange copies codes [lo, hi) of src, an array of p's width, into place.
func (p Codes) copyRange(src Codes, lo, hi int) {
	switch {
	case p.U16 != nil:
		copy(p.U16[lo:hi], src.U16[lo:hi])
	case p.U32 != nil:
		copy(p.U32[lo:hi], src.U32[lo:hi])
	default:
		copy(p.U8[lo:hi], src.U8[lo:hi])
	}
}

// appendMapped appends remap[src.At(r)] for each r of rows, or of [lo, hi)
// when rows is nil. Every code of the range has its translation by now, and
// the array its final width.
func (p *Codes) appendMapped(src Codes, lo, hi int, rows []int, remap []int32) {
	switch {
	case p.U16 != nil:
		p.U16 = appendMapped(p.U16, src, lo, hi, rows, remap)
	case p.U32 != nil:
		p.U32 = appendMapped(p.U32, src, lo, hi, rows, remap)
	default:
		p.U8 = appendMapped(p.U8, src, lo, hi, rows, remap)
	}
}

func appendMapped[D Code](dst []D, src Codes, lo, hi int, rows []int, remap []int32) []D {
	n := len(dst)
	if rows == nil {
		dst = growBy(dst, hi-lo)
	} else {
		dst = growBy(dst, len(rows))
	}
	switch {
	case src.U16 != nil:
		mapCodes(dst[n:], src.U16, lo, rows, remap)
	case src.U32 != nil:
		mapCodes(dst[n:], src.U32, lo, rows, remap)
	default:
		mapCodes(dst[n:], src.U8, lo, rows, remap)
	}
	return dst
}

// mapCodes fills dst with remap[src[r]] for each r of rows, or of the
// len(dst) rows from lo when rows is nil.
func mapCodes[D, S Code](dst []D, src []S, lo int, rows []int, remap []int32) {
	if rows == nil {
		for i, sc := range src[lo : lo+len(dst)] {
			dst[i] = D(remap[sc])
		}
		return
	}
	for i, r := range rows {
		dst[i] = D(remap[src[r]])
	}
}

// intIndex maps the values of an integer dictionary to their codes: a dense
// table over [base, base+len(dense)) while the values span little — one load
// per lookup, which is what CSV decode and zpack segment loads pay per cell —
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
