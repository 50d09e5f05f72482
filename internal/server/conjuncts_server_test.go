package server

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
)

// conjunctsQuery carries a conjunction whose costly leg is written first:
// the stringify-every-float LIKE, then the cheap categorical equality and the
// selective range. Every store evaluates it in written order, and the bytes
// must be the reference session's.
const conjunctsQuery = `
NAME | X      | Y         | Z                 | CONSTRAINTS
*f1  | 'year' | 'revenue' | v1 <- 'product'.* | revenue LIKE '%1%' AND country = 'US' AND year >= 2`

// TestAutoBackendThroughServer registers a dataset on the auto backend and
// pins the serving surface: results byte-identical to the row-store
// reference session, and no conjunct-planner series on /metrics.
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
	env := postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: conjunctsQuery})
	want, err := ref.Query(conjunctsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if wantB := encodePayload(t, EncodeResult(want)); !bytes.Equal(env.Result, wantB) {
		t.Errorf("auto-backend result differs:\nserver: %.200s\nlocal:  %.200s", env.Result, wantB)
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
	if strings.Contains(buf.String(), "zen_plans_") {
		t.Error("/metrics still carries a zen_plans_ series")
	}
}
