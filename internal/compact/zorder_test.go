package compact

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dataset"
)

// TestIntRankMonotone: the int64 -> u64 map preserves order over random pairs
// and the boundary values where the sign-bit flip could go wrong.
func TestIntRankMonotone(t *testing.T) {
	vals := []int64{math.MinInt64, math.MinInt64 + 1, -1 << 40, -2, -1, 0, 1, 2, 1 << 40, math.MaxInt64 - 1, math.MaxInt64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		vals = append(vals, rng.Int63()-rng.Int63())
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for i := 1; i < len(vals); i++ {
		a, b := vals[i-1], vals[i]
		ra, rb := IntRank(a), IntRank(b)
		if a < b && ra >= rb {
			t.Fatalf("IntRank not monotone: %d -> %d but %d -> %d", a, ra, b, rb)
		}
		if a == b && ra != rb {
			t.Fatalf("IntRank not a function: %d -> %d and %d", a, ra, rb)
		}
	}
}

// TestFloatRankMonotone: the float64 -> u64 map preserves IEEE-754 order,
// including the negative branch, signed zero, infinities, and NaN above all.
func TestFloatRankMonotone(t *testing.T) {
	ordered := []float64{
		math.Inf(-1), -math.MaxFloat64, -1e300, -2.5, -1, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1, 2.5, 1e300, math.MaxFloat64, math.Inf(1),
	}
	for i := 1; i < len(ordered); i++ {
		ra, rb := FloatRank(ordered[i-1]), FloatRank(ordered[i])
		if ra >= rb {
			t.Fatalf("FloatRank not monotone at %v < %v: %d >= %d", ordered[i-1], ordered[i], ra, rb)
		}
	}
	nan := FloatRank(math.NaN())
	if nan != math.MaxUint64 {
		t.Fatalf("FloatRank(NaN) = %d, want max", nan)
	}
	rng := rand.New(rand.NewSource(2))
	vals := make([]float64, 2000)
	for i := range vals {
		vals[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
	}
	sort.Float64s(vals)
	for i := 1; i < len(vals); i++ {
		if vals[i-1] < vals[i] && FloatRank(vals[i-1]) >= FloatRank(vals[i]) {
			t.Fatalf("FloatRank not monotone: %v vs %v", vals[i-1], vals[i])
		}
	}
	for _, v := range vals {
		if FloatRank(v) >= nan {
			t.Fatalf("finite %v ranks at or above NaN", v)
		}
	}
}

// TestDictRanks: ranks are the permutation induced by sorting the dictionary.
func TestDictRanks(t *testing.T) {
	dict := []string{"pear", "apple", "zebra", "mango", "apricot"}
	ranks := dataset.DictRanks(dict)
	// Every rank 0..n-1 exactly once.
	seen := make([]bool, len(dict))
	for _, r := range ranks {
		if r >= uint64(len(dict)) || seen[r] {
			t.Fatalf("ranks %v are not a permutation", ranks)
		}
		seen[r] = true
	}
	// rank order == string order.
	for i := range dict {
		for j := range dict {
			if (dict[i] < dict[j]) != (ranks[i] < ranks[j]) {
				t.Fatalf("rank order disagrees with string order: %q->%d, %q->%d", dict[i], ranks[i], dict[j], ranks[j])
			}
		}
	}
}

func randomDims(rng *rand.Rand, d int) []uint64 {
	dims := make([]uint64, d)
	for j := range dims {
		// Mix full-range and small values so both high and low bit positions
		// get exercised.
		if rng.Intn(2) == 0 {
			dims[j] = rng.Uint64()
		} else {
			dims[j] = uint64(rng.Intn(1024))
		}
	}
	return dims
}

// TestInterleaveRoundTrip: Deinterleave inverts Interleave for 1..5 dims.
func TestInterleaveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for d := 1; d <= 5; d++ {
		for i := 0; i < 500; i++ {
			dims := randomDims(rng, d)
			key := Interleave(dims)
			if len(key) != d {
				t.Fatalf("d=%d: key has %d words", d, len(key))
			}
			back := Deinterleave(key, d)
			if !reflect.DeepEqual(dims, back) {
				t.Fatalf("d=%d: round trip %v -> %v -> %v", d, dims, key, back)
			}
		}
	}
}

// TestInterleaveIdentityForOneDim: a single dimension's key is the value
// itself, so one-column compaction is a plain sort.
func TestInterleaveIdentityForOneDim(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		v := rng.Uint64()
		key := Interleave([]uint64{v})
		if len(key) != 1 || key[0] != v {
			t.Fatalf("Interleave([%d]) = %v", v, key)
		}
	}
}

// TestInterleaveMonotonePerDimension: raising one dimension while holding the
// others fixed strictly raises the key — the property that makes zone-map
// bounding boxes meaningful in z-order space.
func TestInterleaveMonotonePerDimension(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for d := 1; d <= 4; d++ {
		for i := 0; i < 500; i++ {
			dims := randomDims(rng, d)
			j := rng.Intn(d)
			if dims[j] == math.MaxUint64 {
				dims[j]--
			}
			bumped := append([]uint64(nil), dims...)
			// A strictly larger value in dimension j, arbitrary distance.
			bumped[j] += 1 + uint64(rng.Int63n(int64(min64(math.MaxUint64-bumped[j], 1<<62))))
			lo, hi := Interleave(dims), Interleave(bumped)
			if !KeyLess(lo, hi) {
				t.Fatalf("d=%d: key not monotone in dim %d: %v (key %v) vs %v (key %v)", d, j, dims, lo, bumped, hi)
			}
			if KeyLess(hi, lo) {
				t.Fatalf("d=%d: KeyLess not antisymmetric", d)
			}
		}
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// TestInterleaveDeterministic: the encoder is a pure function — identical
// inputs produce identical keys, and KeyLess induces one total order.
func TestInterleaveDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		dims := randomDims(rng, 3)
		a, b := Interleave(dims), Interleave(append([]uint64(nil), dims...))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("same dims produced different keys: %v vs %v", a, b)
		}
		if KeyLess(a, b) || KeyLess(b, a) {
			t.Fatal("equal keys compare unequal")
		}
	}
}
