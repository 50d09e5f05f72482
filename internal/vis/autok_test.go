package vis

import (
	"testing"

	"repro/internal/dataset"
)

func TestAutoKFindsPlantedClusterCount(t *testing.T) {
	vs := clusterData() // three well-separated shape clusters
	got := AutoK(vs, 8, DefaultMetric, 42)
	if got != 3 {
		t.Errorf("AutoK = %d, want 3", got)
	}
}

func TestAutoKTwoClusters(t *testing.T) {
	var vs []*Visualization
	for i := 0; i < 6; i++ {
		o := float64(i) * 0.02
		vs = append(vs, FromFloats([]float64{0, 1, 2, 3, 4 + o}))
	}
	for i := 0; i < 6; i++ {
		o := float64(i) * 0.02
		vs = append(vs, FromFloats([]float64{4, 3, 2, 1, 0 - o}))
	}
	if got := AutoK(vs, 6, DefaultMetric, 42); got != 2 {
		t.Errorf("AutoK = %d, want 2", got)
	}
}

func TestAutoKDegenerate(t *testing.T) {
	if AutoK(nil, 5, DefaultMetric, 1) != 0 {
		t.Error("empty input should give 0")
	}
	// Identical shapes: one trend.
	var vs []*Visualization
	for i := 0; i < 8; i++ {
		vs = append(vs, FromFloats([]float64{1, 2, 3}))
	}
	if got := AutoK(vs, 5, DefaultMetric, 1); got != 1 {
		t.Errorf("identical shapes AutoK = %d, want 1", got)
	}
	// Fewer items than kMax.
	if got := AutoK(vs[:2], 10, DefaultMetric, 1); got < 1 || got > 2 {
		t.Errorf("tiny input AutoK = %d", got)
	}
}

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
