package roaring

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestAddContainsRemove(t *testing.T) {
	b := New()
	vals := []uint32{0, 1, 65535, 65536, 1 << 20, 1<<32 - 1}
	for _, v := range vals {
		b.Add(v)
	}
	for _, v := range vals {
		if !b.Contains(v) {
			t.Errorf("missing %d", v)
		}
	}
	if b.Contains(2) {
		t.Error("2 should be absent")
	}
	if b.Cardinality() != len(vals) {
		t.Errorf("cardinality = %d, want %d", b.Cardinality(), len(vals))
	}
	b.Remove(65536)
	if b.Contains(65536) {
		t.Error("65536 should be removed")
	}
	if b.Cardinality() != len(vals)-1 {
		t.Errorf("cardinality after remove = %d", b.Cardinality())
	}
	// Removing an absent value is a no-op.
	b.Remove(424242)
	if b.Cardinality() != len(vals)-1 {
		t.Error("removing absent value changed cardinality")
	}
}

func TestDuplicateAdds(t *testing.T) {
	b := New()
	for i := 0; i < 10; i++ {
		b.Add(7)
	}
	if b.Cardinality() != 1 {
		t.Errorf("cardinality = %d, want 1", b.Cardinality())
	}
}

func TestArrayPromotesToBitmap(t *testing.T) {
	b := New()
	for i := uint32(0); i < 5000; i++ {
		b.Add(i * 2) // even values, all in chunk 0
	}
	if b.Cardinality() != 5000 {
		t.Fatalf("cardinality = %d", b.Cardinality())
	}
	_, bitmaps, _ := b.ContainerKinds()
	if bitmaps != 1 {
		t.Errorf("expected a bitmap container after exceeding threshold, kinds=%v", bitmaps)
	}
	for i := uint32(0); i < 5000; i++ {
		if !b.Contains(i * 2) {
			t.Fatalf("missing %d after promotion", i*2)
		}
		if b.Contains(i*2 + 1) {
			t.Fatalf("unexpected %d", i*2+1)
		}
	}
}

func TestBitmapDemotesToArray(t *testing.T) {
	b := New()
	for i := uint32(0); i < 5000; i++ {
		b.Add(i)
	}
	for i := uint32(4000); i < 5000; i++ {
		b.Remove(i)
	}
	arrays, _, _ := b.ContainerKinds()
	if arrays != 1 {
		t.Error("expected demotion to array container")
	}
	if b.Cardinality() != 4000 {
		t.Errorf("cardinality = %d", b.Cardinality())
	}
}

func refSet(vals []uint32) map[uint32]bool {
	m := make(map[uint32]bool)
	for _, v := range vals {
		m[v] = true
	}
	return m
}

func randVals(rng *rand.Rand, n int, max uint32) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = rng.Uint32() % max
	}
	return out
}

func TestSetOperationsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		max := uint32(1 << (8 + trial%12))
		av := randVals(rng, 500, max)
		bv := randVals(rng, 500, max)
		a, b := FromSlice(av), FromSlice(bv)
		as, bs := refSet(av), refSet(bv)

		and := a.And(b)
		or := a.Or(b)
		diff := a.AndNot(b)

		for v := uint32(0); v < max; v++ {
			wantAnd := as[v] && bs[v]
			wantOr := as[v] || bs[v]
			wantDiff := as[v] && !bs[v]
			if and.Contains(v) != wantAnd {
				t.Fatalf("trial %d: And(%d) = %v, want %v", trial, v, and.Contains(v), wantAnd)
			}
			if or.Contains(v) != wantOr {
				t.Fatalf("trial %d: Or(%d) = %v, want %v", trial, v, or.Contains(v), wantOr)
			}
			if diff.Contains(v) != wantDiff {
				t.Fatalf("trial %d: AndNot(%d) = %v, want %v", trial, v, diff.Contains(v), wantDiff)
			}
		}
	}
}

func TestSetOperationsAcrossChunks(t *testing.T) {
	a := FromSlice([]uint32{1, 70000, 140000})
	b := FromSlice([]uint32{70000, 200000})
	if got := a.And(b).ToSlice(); len(got) != 1 || got[0] != 70000 {
		t.Errorf("And = %v", got)
	}
	if got := a.Or(b).Cardinality(); got != 4 {
		t.Errorf("Or cardinality = %d", got)
	}
	if got := a.AndNot(b).ToSlice(); len(got) != 2 || got[0] != 1 || got[1] != 140000 {
		t.Errorf("AndNot = %v", got)
	}
}

func TestIterateAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := randVals(rng, 2000, 1<<22)
	b := FromSlice(vals)
	got := b.ToSlice()
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Error("iteration must be ascending")
	}
	want := refSet(vals)
	if len(got) != len(want) {
		t.Errorf("len = %d, want %d", len(got), len(want))
	}
	for _, v := range got {
		if !want[v] {
			t.Errorf("unexpected value %d", v)
		}
	}
}

// TestIterateRange pins IterateRange(lo, hi) to Iterate filtered to
// [lo, hi), over an array, a bitmap and a run container (with an empty chunk
// between the run and a last array): ranges inside each container, across
// container boundaries, empty, and covering the whole set.
func TestIterateRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := FromSlice(randVals(rng, 1000, 1<<16))
	for _, v := range randVals(rng, 20000, 1<<16) {
		b.Add(1<<16 | v)
	}
	b = b.Or(FromRange(2<<16+100, 2<<16+30000)).Or(FromRange(2<<16+40000, 2<<16+40100))
	for _, v := range randVals(rng, 50, 1<<16) {
		b.Add(4<<16 | v)
	}
	b.RunOptimize()
	if a, bm, r := b.ContainerKinds(); a != 2 || bm != 1 || r != 1 {
		t.Fatalf("containers: %d array, %d bitmap, %d run; want 2, 1, 1", a, bm, r)
	}
	all := b.ToSlice()
	for _, c := range []struct{ lo, hi uint32 }{
		{100, 20000}, {1<<16 + 7, 1<<16 + 9000}, {2<<16 + 50, 2<<16 + 40050}, {2<<16 + 200, 2<<16 + 300},
		{60000, 70000}, {1<<16 + 60000, 2<<16 + 500}, {30000, 4<<16 + 30000}, {2<<16 + 29999, 4<<16 + 1},
		{0, 0}, {500, 500}, {900, 10}, {3 << 16, 4 << 16}, {5 << 16, 1 << 31},
		{0, all[len(all)-1] + 1}, {0, 1<<32 - 1}, {all[0], all[len(all)-1]},
	} {
		var want, got []uint32
		for _, v := range all {
			if v >= c.lo && v < c.hi {
				want = append(want, v)
			}
		}
		b.IterateRange(c.lo, c.hi, func(v uint32) { got = append(got, v) })
		if len(got) != len(want) {
			t.Errorf("IterateRange(%d, %d): %d values, want %d", c.lo, c.hi, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("IterateRange(%d, %d)[%d] = %d, want %d", c.lo, c.hi, i, got[i], want[i])
				break
			}
		}
	}
}

func TestFromRangeAndRunOptimize(t *testing.T) {
	b := FromRange(10, 100010)
	if b.Cardinality() != 100000 {
		t.Fatalf("cardinality = %d", b.Cardinality())
	}
	// FromRange already builds run containers; RunOptimize must keep them
	// (idempotent) and a value-by-value build must shrink under it.
	slow := New()
	for v := uint32(10); v < 100010; v++ {
		slow.Add(v)
	}
	before := slow.SizeBytes()
	slow.RunOptimize()
	if after := slow.SizeBytes(); after >= before {
		t.Errorf("run optimize should shrink a dense range: %d -> %d", before, after)
	}
	sz := b.SizeBytes()
	b.RunOptimize()
	if b.SizeBytes() > sz {
		t.Errorf("run optimize grew a run-built bitmap: %d -> %d", sz, b.SizeBytes())
	}
	_, _, runs := b.ContainerKinds()
	if runs == 0 {
		t.Error("expected run containers")
	}
	if !b.Contains(10) || !b.Contains(100009) || b.Contains(9) || b.Contains(100010) {
		t.Error("membership broken after run optimize")
	}
	if b.Cardinality() != 100000 {
		t.Errorf("cardinality after optimize = %d", b.Cardinality())
	}
}

func TestRunContainerIntersection(t *testing.T) {
	a := FromRange(0, 50000)
	b := FromRange(25000, 75000)
	a.RunOptimize()
	b.RunOptimize()
	got := a.And(b)
	if got.Cardinality() != 25000 {
		t.Errorf("run∩run cardinality = %d, want 25000", got.Cardinality())
	}
	if !got.Contains(25000) || !got.Contains(49999) || got.Contains(50000) {
		t.Error("run intersection bounds wrong")
	}
}

func TestRunBitmapIntersection(t *testing.T) {
	// Regression: a run container intersected with a bitmap container used to
	// bounce delegation between the two and() methods forever (each deferred
	// the mixed case to the other). Dense operands keep both sides above the
	// array threshold so neither collapses before the intersection.
	run := FromRange(0, 70000)
	run.RunOptimize()
	var dense []uint32
	for v := uint32(0); v < 131072; v += 2 {
		dense = append(dense, v)
	}
	bm := FromSlice(dense)
	for name, got := range map[string]*Bitmap{"bitmap∩run": bm.And(run), "run∩bitmap": run.And(bm)} {
		if got.Cardinality() != 35000 {
			t.Errorf("%s cardinality = %d, want 35000", name, got.Cardinality())
		}
		if !got.Contains(0) || !got.Contains(69998) || got.Contains(70000) || got.Contains(1) {
			t.Errorf("%s membership wrong", name)
		}
	}
}

func TestRunContainerMutationThaws(t *testing.T) {
	b := FromRange(0, 10000)
	b.RunOptimize()
	b.Add(20000)
	b.Remove(5)
	if !b.Contains(20000) || b.Contains(5) || !b.Contains(6) {
		t.Error("mutation after run optimize broken")
	}
	if b.Cardinality() != 10000 {
		t.Errorf("cardinality = %d", b.Cardinality())
	}
}

func TestAndAll(t *testing.T) {
	a := FromRange(0, 1000)
	b := FromRange(500, 1500)
	c := FromRange(700, 800)
	got := AndAll(a, b, c)
	if got.Cardinality() != 100 {
		t.Errorf("AndAll cardinality = %d, want 100", got.Cardinality())
	}
	if !AndAll().IsEmpty() {
		t.Error("AndAll() should be empty")
	}
	if AndAll(a).Cardinality() != 1000 {
		t.Error("AndAll(a) should be a")
	}
	if !AndAll(a, New()).IsEmpty() {
		t.Error("AndAll with empty operand should be empty")
	}
}

func TestClone(t *testing.T) {
	a := FromSlice([]uint32{1, 2, 3})
	b := a.Clone()
	b.Add(4)
	if a.Contains(4) {
		t.Error("clone must not alias")
	}
}

func TestGallopingIntersect(t *testing.T) {
	// Lopsided arrays to force the galloping path.
	small := []uint16{3, 100, 5000, 59980}
	large := make([]uint16, 0, 3000)
	for i := 0; i < 3000; i++ {
		large = append(large, uint16(i*20))
	}
	got := intersectArrays(small, large)
	want := []uint16{100, 5000, 59980}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Symmetric.
	got2 := intersectArrays(large, small)
	if len(got2) != len(want) {
		t.Fatalf("symmetric gallop: got %v", got2)
	}
}

func TestQuickMembership(t *testing.T) {
	f := func(vals []uint32) bool {
		b := FromSlice(vals)
		m := refSet(vals)
		if b.Cardinality() != len(m) {
			return false
		}
		for v := range m {
			if !b.Contains(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	// |A ∪ B| = |A| + |B| - |A ∩ B|
	f := func(av, bv []uint32) bool {
		a, b := FromSlice(av), FromSlice(bv)
		return a.Or(b).Cardinality() == a.Cardinality()+b.Cardinality()-a.And(b).Cardinality()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	if got := FromSlice([]uint32{1, 2}).String(); got != "{1, 2}" {
		t.Errorf("String = %q", got)
	}
	long := FromRange(0, 100)
	if got := long.String(); got == "" || got[len(got)-1] != '}' {
		t.Errorf("String = %q", got)
	}
}

func BenchmarkAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	vals := randVals(rng, 100000, 1<<24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm := New()
		for _, v := range vals {
			bm.Add(v)
		}
	}
}

func BenchmarkAndDense(b *testing.B) {
	x := FromRange(0, 1<<20)
	y := FromRange(1<<19, 1<<20+1<<19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.And(y)
	}
}

func BenchmarkAndSparseVsDense(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	sparse := FromSlice(randVals(rng, 1000, 1<<24))
	dense := FromRange(0, 1<<22)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.And(dense)
	}
}

func BenchmarkContainerKindsAblation(b *testing.B) {
	// Ablation: run-optimized vs raw containers on a dense range intersect.
	x := FromRange(0, 1<<20)
	y := FromRange(1<<19, 1<<20+1<<19)
	b.Run("raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x.And(y)
		}
	})
	xo, yo := x.Clone(), y.Clone()
	xo.RunOptimize()
	yo.RunOptimize()
	b.Run("runoptimized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			xo.And(yo)
		}
	})
}
