package dataset

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
)

// The cell parsers of the CSV block decode. Each reads its cell in place in
// the block, so the cell's end is found by the parse itself, and the common
// cells — plain decimals, short strings — never reach strconv or the Go map.

const (
	every = 0x0101010101010101 // one in every byte
	low7  = 0x7f * every
)

// zeroBytes has the top bit of exactly the bytes of x that are zero (the sum
// cannot carry from one byte into the next).
func zeroBytes(x uint64) uint64 { return ^((x&low7 + low7) | x | low7) }

// leadingDigits counts the ASCII digits the eight bytes of w (little endian,
// so the first byte lowest) start with. A byte is a digit when its high
// nibble is 3 and adding 6 leaves it 3; the add can carry only out of a byte
// from 0xFA up, which is no digit, and only into the bytes after it.
func leadingDigits(w uint64) int {
	const hi = 0xf0 * every
	nondigit := (w&hi ^ '0'*every) | ((w+6*every)&hi ^ '0'*every)
	return bits.TrailingZeros64(nondigit) / 8
}

// eightDigits returns the value of the k leading ASCII digits of w, 1 <= k
// <= 8: shifted to the top of the word they are the last k of eight, behind
// zeros, and three multiplies fold the eight into one number.
func eightDigits(w uint64, k int) uint64 {
	w = (w - '0'*every) << (64 - 8*k)
	w = w*10 + w>>8
	return (w&0x000000ff000000ff*(100+1000000<<32) + w>>16&0x000000ff000000ff*(1+10000<<32)) >> 32 & 0xffffffff
}

// pow10u holds the powers of ten up to 10^8.
var pow10u = [...]uint64{1, 10, 100, 1000, 10000, 100000, 1000000, 10000000, 100000000}

// digits reads the run of decimal digits at b[i:] on into mant, which holds
// the n digits before it, eight bytes at a time while eight remain. It
// returns where the run ends and the new mant and n; past 19 digits mant has
// wrapped and means nothing.
func digits(b []byte, i int, mant uint64, n int) (int, uint64, int) {
	for i+8 <= len(b) {
		w := binary.LittleEndian.Uint64(b[i:])
		k := leadingDigits(w)
		if k == 0 {
			return i, mant, n
		}
		mant = mant*pow10u[k] + eightDigits(w, k)
		i, n = i+k, n+k
		if k < 8 {
			return i, mant, n
		}
	}
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		mant = mant*10 + uint64(b[i]-'0')
		n++
	}
	return i, mant, n
}

// scanInt reads the integer [+-]digits at b[i:] while it has at most 18
// digits, which cannot overflow. It returns the value and where the digits
// end; ok is false when there are none or too many.
func scanInt(b []byte, i int) (v int64, end int, ok bool) {
	neg := false
	if i < len(b) && (b[i] == '-' || b[i] == '+') {
		neg, i = b[i] == '-', i+1
	}
	if i+8 <= len(b) {
		// The common cell, one to seven digits, is one word.
		w := binary.LittleEndian.Uint64(b[i:])
		if k := leadingDigits(w); k > 0 && k < 8 {
			if v = int64(eightDigits(w, k)); neg {
				v = -v
			}
			return v, i + k, true
		}
	}
	end, mant, n := digits(b, i, 0, 0)
	if n == 0 || n > 18 {
		return 0, end, false
	}
	if v = int64(mant); neg {
		v = -v
	}
	return v, end, true
}

// scanFloat reads the plain decimal [+-]digits[.digits] at b[i:] while it
// has at most 19 digits, and returns its float64 and where it ends; ok is
// false when it has none or too many, or when Eisel–Lemire cannot decide. A
// digit integer below 2^53 and a power of ten up to 10^19 are exact float64s,
// so one IEEE division rounds correctly; a larger one goes through
// Eisel–Lemire on the same integer. Either way the result is ParseFloat's.
func scanFloat(b []byte, i int) (f float64, end int, ok bool) {
	neg := false
	if i < len(b) && (b[i] == '-' || b[i] == '+') {
		neg, i = b[i] == '-', i+1
	}
	end, mant, n := digits(b, i, 0, 0)
	point := n
	if end < len(b) && b[end] == '.' {
		end, mant, n = digits(b, end+1, mant, n)
	}
	if n == 0 || n > 19 {
		return 0, end, false
	}
	frac := n - point
	if mant < 1<<53 {
		f = float64(mant) / pow10[frac]
		if neg {
			f = -f
		}
		return f, end, true
	}
	f, ok = eiselLemire(mant, -frac, neg)
	return f, end, ok
}

// parseInt is strconv.ParseInt(cell, 10, 64), short-cut through scanInt.
func parseInt(cell []byte) (int64, error) {
	if v, end, ok := scanInt(cell, 0); ok && end == len(cell) {
		return v, nil
	}
	return strconv.ParseInt(string(cell), 10, 64)
}

// parseFloat is strconv.ParseFloat(cell, 64), short-cut through scanFloat.
func parseFloat(cell []byte) (float64, error) {
	if f, end, ok := scanFloat(cell, 0); ok && end == len(cell) {
		return f, nil
	}
	return strconv.ParseFloat(string(cell), 64)
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// pow10Wide holds 10^-19 .. 10^0 as 128-bit mantissas rounded down, high
// word second: the rows of the power table Go's strconv uses for
// Eisel–Lemire that a decimal of at most 19 digits can need.
var pow10Wide = [20][2]uint64{
	{0x2B31E9E3D06C32E5, 0xEC1E4A7DB69561A5}, // 1e-19
	{0x3AFF322E62439FCF, 0x9392EE8E921D5D07}, // 1e-18
	{0x09BEFEB9FAD487C2, 0xB877AA3236A4B449}, // 1e-17
	{0x4C2EBE687989A9B3, 0xE69594BEC44DE15B}, // 1e-16
	{0x0F9D37014BF60A10, 0x901D7CF73AB0ACD9}, // 1e-15
	{0x538484C19EF38C94, 0xB424DC35095CD80F}, // 1e-14
	{0x2865A5F206B06FB9, 0xE12E13424BB40E13}, // 1e-13
	{0xF93F87B7442E45D3, 0x8CBCCC096F5088CB}, // 1e-12
	{0xF78F69A51539D748, 0xAFEBFF0BCB24AAFE}, // 1e-11
	{0xB573440E5A884D1B, 0xDBE6FECEBDEDD5BE}, // 1e-10
	{0x31680A88F8953030, 0x89705F4136B4A597}, // 1e-9
	{0xFDC20D2B36BA7C3D, 0xABCC77118461CEFC}, // 1e-8
	{0x3D32907604691B4C, 0xD6BF94D5E57A42BC}, // 1e-7
	{0xA63F9A49C2C1B10F, 0x8637BD05AF6C69B5}, // 1e-6
	{0x0FCF80DC33721D53, 0xA7C5AC471B478423}, // 1e-5
	{0xD3C36113404EA4A8, 0xD1B71758E219652B}, // 1e-4
	{0x645A1CAC083126E9, 0x83126E978D4FDF3B}, // 1e-3
	{0x3D70A3D70A3D70A3, 0xA3D70A3D70A3D70A}, // 1e-2
	{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC}, // 1e-1
	{0x0000000000000000, 0x8000000000000000}, // 1e0
}

// eiselLemire is Go's strconv eiselLemire64 for man != 0 and exp10 in
// [-19, 0]: man * 10^exp10 correctly rounded, or ok false in the rare case
// that the 128-bit product cannot decide the rounding, which strconv then
// settles. The steps follow https://nigeltao.github.io/blog/2020/eisel-lemire.html.
func eiselLemire(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	pow := pow10Wide[exp10+19]
	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const bias = 1023
	retExp2 := uint64(217706*exp10>>16+64+bias) - uint64(clz)
	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow[1])
	// Wider approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}
	// Shifting to 54 bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb
	// Half-way ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}
	// From 54 to 53 bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&(1<<52-1)
	if neg {
		retBits |= 1 << 63
	}
	return math.Float64frombits(retBits), true
}

// cellEnd finds the end of the cell that starts at b[start]: the index of the
// first ',' or '\n' after it, or len(b), is term; end is where the cell's
// bytes stop, which is term less the one '\r' a line's last cell drops.
func cellEnd(b []byte, start int) (end, term int) {
	term = len(b)
	i := start
	for ; i+8 <= len(b); i += 8 {
		if m := stops(binary.LittleEndian.Uint64(b[i:])); m != 0 {
			term = i + bits.TrailingZeros64(m)/8
			break
		}
	}
	if term == len(b) {
		for ; i < len(b); i++ {
			if b[i] == ',' || b[i] == '\n' {
				term = i
				break
			}
		}
	}
	end = term
	if (term == len(b) || b[term] == '\n') && end > start && b[end-1] == '\r' {
		end--
	}
	return end, term
}

// numberEnd reports whether a number scanned from a cell's start stopped at
// the cell's end, and the index of the cell's terminator if so: ',', '\n' or
// the end of b, or a '\r' that ends the line.
func numberEnd(b []byte, i int) (term int, ok bool) {
	switch {
	case i == len(b) || b[i] == ',' || b[i] == '\n':
		return i, true
	case b[i] == '\r' && (i+1 == len(b) || b[i+1] == '\n'):
		return i + 1, true
	}
	return 0, false
}

// shortStrings is a small open-addressed table in front of a chunk's
// dictionary map for one string column, keyed by the cell itself packed into
// two words and a length, so a cell of at most 16 bytes finds its code with
// one hash and compare and no string. A decode worker keeps it across the
// chunks it decodes: starting a chunk bumps gen, which empties the table
// without touching it. It doubles when half full, up to maxShortSlots, and
// then takes no more entries.
type shortStrings struct {
	slots []shortSlot
	shift uint // 64 - log2(len(slots)): a hash's top bits pick its slot
	gen   uint64
	used  int
	// prev is the dictionary of the worker's previous chunk, whose codes the
	// slots of gen-1 hold: a value new to this chunk whose slot still holds
	// that chunk's entry for it takes that chunk's string rather than
	// allocate it again.
	prev []string
}

type shortSlot struct {
	w0, w1 uint64
	meta   uint64 // gen<<37 | length<<32 | code; stale when gen is not the table's
}

// maxShortSlots caps a table at 96 KiB: a column with more short values than
// half of it has them in its map too.
const maxShortSlots = 1 << 12

// reset empties the table for a new chunk.
func (s *shortStrings) reset() {
	if s.slots == nil {
		s.slots, s.shift, s.gen = make([]shortSlot, 64), 64-6, 1
	}
	// gen has 27 bits, and gen 0 marks a slot never used, so gen-1 never is.
	if s.gen++; s.gen == 1<<27 {
		clear(s.slots)
		s.gen, s.prev = 2, nil
	}
	s.used = 0
}

// grow doubles the table, taking the current chunk's entries along.
func (s *shortStrings) grow() {
	old := s.slots
	s.slots, s.shift = make([]shortSlot, 2*len(old)), s.shift-1
	for _, sl := range old {
		if sl.meta>>37 == s.gen {
			*s.slot(sl.w0, sl.w1, int(sl.meta>>32&31)) = sl
		}
	}
}

// stops has the top bit of the bytes of w that end a cell: ',' and '\n'.
func stops(w uint64) uint64 { return zeroBytes(w^','*every) | zeroBytes(w^'\n'*every) }

// shortKey packs the cell b[start:end], at most 16 bytes, into two
// zero-padded little-endian words.
func shortKey(b []byte, start, end int) (w0, w1 uint64) {
	if start+16 > len(b) {
		var pad [16]byte
		copy(pad[:], b[start:end])
		return binary.LittleEndian.Uint64(pad[:]), binary.LittleEndian.Uint64(pad[8:])
	}
	return maskKey(binary.LittleEndian.Uint64(b[start:]), binary.LittleEndian.Uint64(b[start+8:]), end-start)
}

// maskKey keeps the first n <= 16 bytes of the two words.
func maskKey(w0, w1 uint64, n int) (uint64, uint64) {
	if n < 8 {
		return w0 & (1<<(8*n) - 1), 0
	}
	return w0, w1 & (1<<(8*(n-8)) - 1)
}

// slot returns the slot of the key, or the empty one where it belongs.
func (s *shortStrings) slot(w0, w1 uint64, n int) *shortSlot {
	tag := s.gen<<5 | uint64(n)
	mask := uint64(len(s.slots) - 1)
	h := (w0 ^ bits.RotateLeft64(w1, 29) ^ uint64(n)) * 0x9E3779B97F4A7C15
	for i := h >> s.shift; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.meta>>37 != s.gen || sl.meta>>32 == tag && sl.w0 == w0 && sl.w1 == w1 {
			return sl
		}
	}
}

// appendString appends the string cell that starts at b[pos] to c, a column
// of a chunk whose short cells s caches, and returns the index of the cell's
// terminator, as cellEnd does. The two words the cell's end is looked for in
// are, masked, its key.
func (s *shortStrings) appendString(c *Column, b []byte, pos int) (term int) {
	var end int
	var w0, w1 uint64
	if pos+16 <= len(b) {
		w0, w1 = binary.LittleEndian.Uint64(b[pos:]), binary.LittleEndian.Uint64(b[pos+8:])
		if m := stops(w0); m != 0 {
			term = pos + bits.TrailingZeros64(m)/8
		} else if m := stops(w1); m != 0 {
			term = pos + 8 + bits.TrailingZeros64(m)/8
		} else {
			_, term = cellEnd(b, pos+16)
		}
		if end = term; (term == len(b) || b[term] == '\n') && end > pos && b[end-1] == '\r' {
			end--
		}
		if end-pos <= 16 {
			w0, w1 = maskKey(w0, w1, end-pos)
		}
	} else {
		end, term = cellEnd(b, pos)
		if end-pos <= 16 {
			w0, w1 = shortKey(b, pos, end)
		}
	}
	n := end - pos
	if n > 16 {
		c.codes.append(c.codeOf(b[pos:end]))
		return term
	}
	sl := s.slot(w0, w1, n)
	if sl.meta>>37 == s.gen {
		c.codes.append(int32(uint32(sl.meta)))
		return term
	}
	// A short value the table lacks is new unless the table was full when it
	// came, in which case the map has it.
	if s.used < maxShortSlots/2 {
		var str string
		if sl.meta>>32 == (s.gen-1)<<5|uint64(n) && sl.w0 == w0 && sl.w1 == w1 {
			str = s.prev[uint32(sl.meta)]
		} else {
			str = string(b[pos:end])
		}
		code := c.addEntry(str)
		*sl = shortSlot{w0: w0, w1: w1, meta: s.gen<<37 | uint64(n)<<32 | uint64(code)}
		if s.used++; s.used == len(s.slots)/2 && len(s.slots) < maxShortSlots {
			s.grow()
		}
		c.codes.append(code)
		return term
	}
	c.codes.append(c.codeOf(b[pos:end]))
	return term
}

// codeOf returns the code of cell, adding it to the dictionary if it is new.
func (c *Column) codeOf(cell []byte) int32 {
	if code, ok := c.dictIx[string(cell)]; ok { // no allocation: a lookup key only
		return code
	}
	return c.codeFor(string(cell))
}
