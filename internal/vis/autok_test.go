package vis

import (
	"testing"

	"repro/internal/dataset"
)

// TestResample pins resampleInto into fresh storage.
func TestResample(t *testing.T) {
	Resample := func(ys []float64, n int) []float64 { return resampleInto(nil, ys, n) }
	got := Resample([]float64{0, 10}, 5)
	want := []float64{0, 2.5, 5, 7.5, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resample = %v, want %v", got, want)
		}
	}
	if got := Resample([]float64{3}, 4); got[0] != 3 || got[3] != 3 {
		t.Errorf("single point resample = %v", got)
	}
	if got := Resample([]float64{1, 2, 3}, 1); len(got) != 1 || got[0] != 1 {
		t.Errorf("n=1 resample = %v", got)
	}
	if Resample(nil, 3) != nil || Resample([]float64{1}, 0) != nil {
		t.Error("degenerate resample")
	}
	// Identity when n == len.
	id := Resample([]float64{1, 5, 2}, 3)
	if id[0] != 1 || id[1] != 5 || id[2] != 2 {
		t.Errorf("identity resample = %v", id)
	}
}

func TestDistanceAlignsDisjointDomainsPositionally(t *testing.T) {
	// A drawn rising line at x=0..3 vs the same shape over years must be
	// near-zero distance, not the clamp-union artifact.
	drawn := FromFloats([]float64{0, 1, 2, 3})
	years := FromSeries("year", "price",
		[]dataset.Value{dataset.IV(2004), dataset.IV(2005), dataset.IV(2006), dataset.IV(2007)},
		[]float64{100, 200, 300, 400})
	falling := FromSeries("year", "price",
		[]dataset.Value{dataset.IV(2004), dataset.IV(2005), dataset.IV(2006), dataset.IV(2007)},
		[]float64{400, 300, 200, 100})
	if d := Distance(drawn, years, DefaultMetric); !almostEq(d, 0) {
		t.Errorf("disjoint-domain same shape distance = %v, want 0", d)
	}
	if Distance(drawn, falling, DefaultMetric) <= Distance(drawn, years, DefaultMetric) {
		t.Error("opposite shape must be farther")
	}
	// Different lengths resample.
	short := FromFloats([]float64{0, 3})
	if d := Distance(short, years, DefaultMetric); !almostEq(d, 0) {
		t.Errorf("resampled distance = %v, want 0", d)
	}
}
