package server

import (
	"bytes"
	"net/http"
	"strings"
	"testing"

	"repro/internal/engine"
)

// plannerQuery carries a deliberately mis-ordered conjunction: the
// stringify-every-float LIKE is written first, the cheap categorical equality
// and the selective range last. The planner must still produce the same bytes
// as the written order, and the reorder must show up on the counters.
const plannerQuery = `
NAME | X      | Y         | Z                 | CONSTRAINTS
*f1  | 'year' | 'revenue' | v1 <- 'product'.* | revenue LIKE '%1%' AND country = 'US' AND year >= 2`

// TestAutoBackendThroughServer registers a dataset on the auto backend and
// pins the whole serving surface: results byte-identical to the row-store
// reference session, planner counters on /stats, and the two planner series
// on /metrics.
func TestAutoBackendThroughServer(t *testing.T) {
	// One fragment, as the row store walks it: workload.Sales has fractional
	// measures, and byte-identity across fragment merges holds only for
	// exact (integer/dyadic) sums — see exactSalesTable. The engine-level
	// differential fuzzer covers fragmented column stores on exact data.
	ts, reg := newTestServer(t, Config{Backend: "auto"})
	ref := referenceSession(t)

	if got := reg.Get("sales").Backend(); got != "auto" {
		t.Fatalf("backend = %q, want auto", got)
	}
	env := postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: plannerQuery})
	want, err := ref.Query(plannerQuery)
	if err != nil {
		t.Fatal(err)
	}
	if wantB := encodePayload(t, EncodeResult(want)); !bytes.Equal(env.Result, wantB) {
		t.Errorf("auto-backend result differs:\nserver: %.200s\nlocal:  %.200s", env.Result, wantB)
	}

	st := reg.Get("sales").Stats()
	if st.Planner == nil {
		t.Fatal("/stats carries no planner block on the auto backend")
	}
	if st.Planner.PlansPlanned == 0 {
		t.Error("three-conjunct constraint planned no plans")
	}
	if st.Planner.PlansReordered == 0 {
		t.Error("LIKE-first conjunction was not reordered")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	scrape := buf.String()
	for _, series := range []string{
		`zen_plans_planned_total{dataset="sales"}`,
		`zen_plans_reordered_total{dataset="sales"}`,
	} {
		if !strings.Contains(scrape, series) {
			t.Errorf("/metrics scrape is missing %s", series)
		}
	}
}

// TestNoPlannerConfigPinsWrittenOrder pins the planning-off A/B baseline
// through the serving stack: a store whose planner is switched off
// (engine.Planner.SetPlanning) serves the same bytes, and the planner
// counters stay at zero because Prepare never scores the conjunction.
func TestNoPlannerConfigPinsWrittenOrder(t *testing.T) {
	ts, reg := newTestServer(t, Config{Backend: "column"})
	reg.Get("sales").store.(engine.Planner).SetPlanning(false)
	ref := referenceSession(t)

	env := postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: plannerQuery})
	want, err := ref.Query(plannerQuery)
	if err != nil {
		t.Fatal(err)
	}
	if wantB := encodePayload(t, EncodeResult(want)); !bytes.Equal(env.Result, wantB) {
		t.Errorf("no-planner result differs:\nserver: %.200s\nlocal:  %.200s", env.Result, wantB)
	}
	st := reg.Get("sales").Stats()
	if st.Planner == nil {
		t.Fatal("/stats planner block should be present even with planning off")
	}
	if st.Planner.PlansPlanned != 0 || st.Planner.PlansReordered != 0 {
		t.Errorf("planner counters moved with planning off: %+v", st.Planner)
	}
}
