// Package compact rewrites sealed zpack files re-clustered on hot group-by
// columns, the write-side complement to zone-map skipping: appends land in
// arrival order, so tail segments span the whole key space and zone maps
// prove nothing; compaction sorts the rows by a z-order key over the cluster
// columns and writes a fresh generation, restoring the skipping win the
// clustered benchmarks measure. Cluster keys come from live skip provenance
// (the columns whose metadata already proves segments empty) with dictionary
// statistics as the cold-start fallback, and the rewrite commits crash-safely:
// temp file, fsync, atomic rename — committed bytes are never touched in
// place, and a half-written generation is invisible to the `*.zpack` glob a
// warm restart loads from.
package compact

import "math"

// The z-order key encoder. Every column kind maps onto the unsigned 64-bit
// scale by a monotone rank function; the per-dimension ranks interleave
// bitwise (MSB first) into one key compared lexicographically. With a single
// dimension the interleave is the identity, so a one-column compaction is a
// plain sort by that column.

// IntRank maps an int64 onto the u64 scale preserving order: flipping the
// sign bit sends math.MinInt64 to 0 and math.MaxInt64 to the top.
func IntRank(v int64) uint64 { return uint64(v) ^ (1 << 63) }

// FloatRank maps a float64 onto the u64 scale preserving IEEE-754 order:
// non-negative values set the sign bit, negative values complement (so more
// negative sorts lower), -0 sorts immediately below +0, and NaN maps to the
// maximum rank — NaN matches no range predicate, so pushing NaN rows to the
// file's tail keeps the finite zones tight.
func FloatRank(f float64) uint64 {
	if math.IsNaN(f) {
		return math.MaxUint64
	}
	b := math.Float64bits(f)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | (1 << 63)
}

// Interleave packs per-dimension ranks into one z-order key of len(dims)
// words: output bit k (counting from the most significant bit of word 0)
// carries bit 63-i of dims[j], where k = i*len(dims)+j. Dimension j=0 owns
// the most significant bit of the key, so earlier columns win ties at equal
// bit depth.
func Interleave(dims []uint64) []uint64 {
	out := make([]uint64, len(dims))
	interleaveInto(dims, out, 64)
	return out
}

// interleaveInto interleaves the top depth bits of each dimension (the bits
// below are zero, or not wanted) into out, zeroing the rest of it.
func interleaveInto(dims, out []uint64, depth int) {
	d := len(dims)
	for i := range out {
		out[i] = 0
	}
	for i := 0; i < depth; i++ {
		for j, v := range dims {
			if v&(1<<(63-uint(i))) != 0 {
				k := i*d + j
				out[k>>6] |= 1 << (63 - uint(k&63))
			}
		}
	}
}

// Deinterleave inverts Interleave for a d-dimension key.
func Deinterleave(key []uint64, d int) []uint64 {
	dims := make([]uint64, d)
	for i := 0; i < 64; i++ {
		for j := 0; j < d; j++ {
			k := i*d + j
			if key[k>>6]&(1<<(63-uint(k&63))) != 0 {
				dims[j] |= 1 << (63 - uint(i))
			}
		}
	}
	return dims
}

// KeyLess compares two equal-length z-order keys lexicographically.
func KeyLess(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
