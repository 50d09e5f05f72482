package recommend

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/vis"
	"repro/internal/workload"
)

func TestDiverseFindsDistinctShapes(t *testing.T) {
	tb := workload.Sales(workload.SalesConfig{Rows: 20000, Products: 12, Years: 8, Cities: 4, Seed: 5})
	db := engine.NewRowStore(tb)
	recs, err := Diverse(context.Background(), db, Request{
		Table: "sales", X: "year", Y: "revenue", Z: "product", K: 4, Seed: 11,
	}, vis.DefaultMetric)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("%d recommendations, want 4", len(recs))
	}
	total := 0
	for _, r := range recs {
		if r.Vis == nil || len(r.Vis.Points) == 0 {
			t.Error("empty recommendation")
		}
		if r.ClusterSize <= 0 {
			t.Error("cluster size must be positive")
		}
		total += r.ClusterSize
	}
	if total != 12 {
		t.Errorf("cluster sizes sum to %d, want 12 products", total)
	}
	// The four planted shapes (rising, falling, flat, spiked) should appear
	// among the recommended trends: the first two recommendations must have
	// opposite trend signs somewhere in the set.
	hasUp, hasDown := false, false
	for _, r := range recs {
		tr := vis.Trend(r.Vis)
		if tr > 0.2 {
			hasUp = true
		}
		if tr < -0.2 {
			hasDown = true
		}
	}
	if !hasUp || !hasDown {
		t.Error("diverse set should include both rising and falling trends")
	}
}

func TestDiverseDefaults(t *testing.T) {
	tb := workload.Sales(workload.SalesConfig{Rows: 5000, Products: 8, Years: 6, Cities: 3, Seed: 5})
	db := engine.NewBitmapStore(tb)
	recs, err := Diverse(context.Background(), db, Request{Table: "sales", X: "year", Y: "revenue", Z: "product"}, vis.DefaultMetric)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Errorf("default K should be 5, got %d", len(recs))
	}
}

func TestDiverseErrors(t *testing.T) {
	tb := workload.Sales(workload.SalesConfig{Rows: 100, Products: 4, Years: 3, Cities: 2, Seed: 1})
	db := engine.NewRowStore(tb)
	if _, err := Diverse(context.Background(), db, Request{Table: "nope", X: "year", Y: "revenue", Z: "product"}, vis.DefaultMetric); err == nil {
		t.Error("missing table should error")
	}
	if _, err := Diverse(context.Background(), db, Request{Table: "sales", X: "bogus", Y: "revenue", Z: "product"}, vis.DefaultMetric); err == nil {
		t.Error("missing column should error")
	}
}
