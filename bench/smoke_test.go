package main

import (
	"context"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
)

// mayBeNegative are differences of two measurements, which noise can push
// below zero on a 20 000-row dataset.
var mayBeNegative = map[string]bool{"server.http_overhead_ms": true, "bench.unattributed_pct": true}

// TestSmoke runs all four workloads end to end on a small dataset with 1 s
// windows, traced, and checks that every named metric comes out, that
// ratios are ratios, and that no operation fails.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts zserved")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as main does
	ctx := context.Background()
	env, err := newEnv(ctx, runtime.NumCPU(), 20000)
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(env.runDir)
	if err := env.generate(1); err != nil {
		t.Fatal(err)
	}
	opts := runOpts{seconds: 1, setups: 1, trace: true}
	for _, name := range workloadNames {
		res, err := runOnce(ctx, env, name, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 || res.attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d: %v", name, res.attempted, res.failed, res.problems)
		}
		for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
			v, ok := res.metrics[d.Name]
			switch {
			case !ok || math.IsNaN(v) || math.IsInf(v, 0):
				t.Errorf("%s: metric %s missing or not finite (%v)", name, d.Name, v)
			case v < 0 && !mayBeNegative[d.Name]:
				t.Errorf("%s: metric %s = %v is negative", name, d.Name, v)
			case d.Unit == "ratio" && v > 1 && d.Name != "zpack.bytes_per_csv_byte":
				t.Errorf("%s: ratio %s = %v is above 1", name, d.Name, v)
			case v == 0 && !strings.Contains(d.Name, "."):
				t.Errorf("%s: end-to-end or speed metric %s is 0", name, d.Name)
			}
		}
		hit := res.metrics["server.cache_hit_ratio"]
		if hot := name == "explore_hot"; (hot && hit < 0.95) || (!hot && hit > 0.05) {
			t.Errorf("%s: server.cache_hit_ratio = %v", name, hit)
		}
		if err := res.print(opts); err != nil {
			t.Error(err)
		}
	}
}
