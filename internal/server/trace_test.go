package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
)

// traceEnvelope decodes a /query response that asked for explain output.
type traceEnvelope struct {
	Dataset string          `json:"dataset"`
	Result  json.RawMessage `json:"result"`
	Trace   *trace.Tree     `json:"trace"`
}

func postTraced(t *testing.T, url string, body any) traceEnvelope {
	t.Helper()
	resp, raw := post(t, url, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var env traceEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	return env
}

// collectNodes returns every node in the tree with the given span name.
func collectNodes(tree *trace.Tree, name string) []*trace.Node {
	var out []*trace.Node
	trace.Walk(tree.Root, func(n *trace.Node) {
		if n.Name == name {
			out = append(out, n)
		}
	})
	return out
}

// TestExplainAnalyze runs a process-bearing query on an auto dataset cut
// into three fragments and asserts the span tree carries what EXPLAIN
// ANALYZE promises: planner attrs (conjunct order), per-fragment scan spans,
// the gather, and process kernel counts — alongside the normal result
// payload.
func TestExplainAnalyze(t *testing.T) {
	smallFragments(t, 1) // testTable's 3 segments: 3 fragments
	reg := NewRegistry()
	if _, err := reg.AddTable(testTable(), Config{Backend: "auto", Seed: 7}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg))
	defer ts.Close()

	const q = `
NAME | X      | Y         | Z                 | CONSTRAINTS | PROCESS
f1   | 'year' | 'revenue' | v1 <- 'product'.* | city='C1'   | v2 <- argmax(v1)[k=2] T(f1)
*f2  | 'year' | 'revenue' | v2                |             |`
	env := postTraced(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: q, Explain: "analyze"})
	if env.Trace == nil {
		t.Fatal("explain=analyze returned no trace")
	}
	if len(env.Result) == 0 || string(env.Result) == "null" {
		t.Fatal("explain=analyze dropped the result payload")
	}
	tree := env.Trace
	if tree.Root == nil || tree.Root.Name != "request" {
		t.Fatalf("root = %+v, want a request span", tree.Root)
	}
	if tree.TraceID == "" || tree.RequestID == "" {
		t.Fatalf("missing identity: traceID=%q requestID=%q", tree.TraceID, tree.RequestID)
	}

	plans := collectNodes(tree, "plan")
	if len(plans) == 0 {
		t.Fatal("no plan spans")
	}
	sawConjuncts := false
	for _, p := range plans {
		if _, ok := p.Attrs["sql"].(string); !ok {
			t.Errorf("plan span without sql attr: %v", p.Attrs)
		}
		if c, ok := p.Attrs["conjuncts"].(string); ok && strings.Contains(c, "city = 'C1'") {
			sawConjuncts = true
		}
	}
	if !sawConjuncts {
		t.Error("no plan span lists the conjunct evaluation order")
	}

	scans := collectNodes(tree, "scan")
	if len(scans) < 3 {
		t.Fatalf("got %d scan spans, want >= 3 (one per fragment)", len(scans))
	}
	fragSeen := map[string]bool{}
	for _, s := range scans {
		if b, _ := s.Attrs["backend"].(string); b == "column" {
			if f, ok := s.Attrs["fragment"]; ok {
				fragSeen[jsonNum(f)] = true
			}
		}
	}
	if len(fragSeen) < 3 {
		t.Errorf("per-fragment scan spans cover %d fragments, want 3 (%v)", len(fragSeen), fragSeen)
	}
	if len(collectNodes(tree, "gather")) == 0 {
		t.Error("no gather span")
	}

	procs := collectNodes(tree, "process")
	if len(procs) == 0 {
		t.Fatal("no process span")
	}
	foundTuples := false
	for _, p := range procs {
		if n, ok := p.Attrs["tuples"]; ok && jsonNum(n) != "0" {
			foundTuples = true
		}
	}
	if !foundTuples {
		t.Error("process spans carry no nonzero tuple counts")
	}

	// Stage durations must roughly account for the request: the execute +
	// prepare + process phases happen inside the root's window.
	trace.Walk(tree.Root, func(n *trace.Node) {
		if end := n.StartUs + n.DurUs; end > tree.Root.DurUs+tree.Root.StartUs+1000 {
			t.Errorf("span %s ends at +%dµs, after the root's %dµs", n.Name, end, tree.Root.DurUs)
		}
	})
}

// jsonNum renders an attr that may arrive as int64 (in-process tree) or
// float64 (round-tripped through JSON).
func jsonNum(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestExplainPlanSkipsExecution asserts explain=plan returns planner spans
// but no scan work, with empty visualizations standing in for results.
func TestExplainPlanSkipsExecution(t *testing.T) {
	ts, reg := newTestServer(t, Config{Backend: "column"})
	env := postTraced(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: risingQuery, Explain: "plan"})
	if env.Trace == nil {
		t.Fatal("explain=plan returned no trace")
	}
	if got := collectNodes(env.Trace, "plan"); len(got) == 0 {
		t.Fatal("no plan spans in plan-only trace")
	}
	if got := collectNodes(env.Trace, "scan"); len(got) != 0 {
		t.Fatalf("plan-only trace has %d scan spans, want 0", len(got))
	}
	if rows := reg.Get("sales").Stats().RowsScanned; rows != 0 {
		t.Errorf("plan-only query scanned %d rows", rows)
	}
}

// TestExplainValidation pins the 400 on a bad explain value.
func TestExplainValidation(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	resp, raw := post(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: risingQuery, Explain: "verbose"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d (%s), want 400", resp.StatusCode, raw)
	}
}

// TestNoExplainNoTrace asserts the default response shape is unchanged: no
// trace key at all when explain wasn't requested.
func TestNoExplainNoTrace(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	_, raw := post(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: risingQuery})
	if bytes.Contains(raw, []byte(`"trace"`)) {
		t.Fatalf("untraced response contains a trace key: %.200s", raw)
	}
}

// TestSlowQueryLog sets the threshold to zero so every query is "slow" and
// asserts the captured entry joins back to the request by ID and carries the
// canonical SQL and span tree.
func TestSlowQueryLog(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.AddTable(testTable(), Config{Backend: "auto", Seed: 7}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, WithSlowQueryLog(0, 8)))
	defer ts.Close()

	req, err := http.NewRequest("POST", ts.URL+"/query",
		bytes.NewReader(encodePayload(t, QueryRequest{Dataset: "sales", ZQL: risingQuery})))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "slow-req-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}

	r2, err := http.Get(ts.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var out struct {
		ThresholdMs int64       `json:"thresholdMs"`
		Entries     []SlowEntry `json:"entries"`
	}
	if err := json.NewDecoder(r2.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Entries) == 0 {
		t.Fatal("slow log is empty at threshold 0")
	}
	e := out.Entries[0]
	if e.RequestID != "slow-req-1" {
		t.Errorf("entry requestId = %q, want slow-req-1", e.RequestID)
	}
	if e.TraceID == "" || e.Path != "/query" || e.Status != http.StatusOK {
		t.Errorf("entry identity wrong: %+v", e)
	}
	if len(e.SQL) == 0 || !strings.Contains(e.SQL[0], "SELECT") {
		t.Errorf("entry sql = %v, want canonical SELECTs", e.SQL)
	}
	if e.Trace == nil || e.Trace.Root == nil {
		t.Error("entry has no span tree")
	}
}

// TestSlowLogRingBound asserts the ring keeps only the newest entries.
func TestSlowLogRingBound(t *testing.T) {
	l := newSlowLog(2)
	for i := 0; i < 5; i++ {
		l.add(SlowEntry{RequestID: string(rune('a' + i))})
	}
	got := l.snapshot()
	if len(got) != 2 || got[0].RequestID != "e" || got[1].RequestID != "d" {
		t.Fatalf("snapshot = %+v, want newest-first [e d]", got)
	}
}

// TestSlowLogDisabled asserts a negative threshold disables capture but keeps
// the endpoint and tracing alive.
func TestSlowLogDisabled(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.AddTable(testTable(), Config{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, WithSlowQueryLog(-1, 8)))
	defer ts.Close()

	env := postTraced(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: risingQuery, Explain: "analyze"})
	if env.Trace == nil {
		t.Fatal("tracing must stay on when slowlog capture is disabled")
	}
	r, err := http.Get(ts.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var out struct {
		Entries []SlowEntry `json:"entries"`
	}
	if err := json.NewDecoder(r.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Entries) != 0 {
		t.Fatalf("capture disabled but %d entries recorded", len(out.Entries))
	}
}

// TestAccessLogTraceFields asserts traced requests log the queue-wait /
// execution split plus the trace ID, and that the fields join against the
// response's X-Request-ID.
func TestAccessLogTraceFields(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.AddTable(testTable(), Config{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	var buf syncBuffer
	ts := httptest.NewServer(New(reg, WithAccessLog(&buf)))
	defer ts.Close()

	postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: risingQuery})

	var entry accessEntry
	dec := json.NewDecoder(strings.NewReader(buf.String()))
	found := false
	for dec.More() {
		if err := dec.Decode(&entry); err != nil {
			t.Fatal(err)
		}
		if entry.Path == "/query" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no /query access-log line in %q", buf.String())
	}
	if entry.TraceID == "" {
		t.Error("traced request logged no traceId")
	}
	if entry.ExecMs <= 0 {
		t.Errorf("execMs = %v, want > 0", entry.ExecMs)
	}
	if entry.QueueWaitMs < 0 || entry.QueueWaitMs > entry.LatencyMs {
		t.Errorf("queueWaitMs = %v outside [0, %v]", entry.QueueWaitMs, entry.LatencyMs)
	}
	if entry.ExecMs+entry.QueueWaitMs > entry.LatencyMs+0.001 {
		t.Errorf("exec %v + queue %v exceeds total %v", entry.ExecMs, entry.QueueWaitMs, entry.LatencyMs)
	}
}

// TestTraceparentPropagation asserts an inbound W3C traceparent's trace ID is
// adopted, and a malformed one is ignored in favor of a fresh ID.
func TestTraceparentPropagation(t *testing.T) {
	ts, _ := newTestServer(t, Config{})

	send := func(header string) *trace.Tree {
		t.Helper()
		req, err := http.NewRequest("POST", ts.URL+"/query",
			bytes.NewReader(encodePayload(t, QueryRequest{Dataset: "sales", ZQL: risingQuery, Explain: "analyze"})))
		if err != nil {
			t.Fatal(err)
		}
		if header != "" {
			req.Header.Set("traceparent", header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env traceEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		if env.Trace == nil {
			t.Fatal("no trace in explain response")
		}
		return env.Trace
	}

	const upstream = "4bf92f3577b34da6a3ce929d0e0e4736"
	if got := send("00-" + upstream + "-00f067aa0ba902b7-01"); got.TraceID != upstream {
		t.Errorf("traceID = %q, want upstream %q", got.TraceID, upstream)
	}
	if got := send("not-a-traceparent"); got.TraceID == upstream || len(got.TraceID) != 32 {
		t.Errorf("malformed traceparent: traceID = %q, want a fresh 32-hex ID", got.TraceID)
	}
}

// TestStageMetrics asserts the span trees feed zen_stage_duration_seconds and
// that zen_build_info is exported.
func TestStageMetrics(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: risingQuery})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`zen_stage_duration_seconds_count{stage="request"} 1`,
		`zen_stage_duration_seconds_count{stage="prepare"}`,
		`zen_stage_duration_seconds_count{stage="scan"}`,
		`zen_stage_duration_seconds_count{stage="process"}`,
		`zen_stage_duration_seconds_count{stage="queue.wait"}`,
		`zen_build_info{`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(text, `go_version="`+goVersionLabel()+`"`) {
		t.Errorf("zen_build_info go_version label missing %q", goVersionLabel())
	}
}

func goVersionLabel() string { return GoVersion() }

// TestHealthzVersion asserts /healthz reports the same version string as the
// build-info metric.
func TestHealthzVersion(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	want := "ok " + Version() + "\n"
	if buf.String() != want {
		t.Errorf("/healthz = %q, want %q", buf.String(), want)
	}
}

// TestTracingDoesNotChangeResults runs the same query with and without
// explain=analyze and asserts the result payloads are byte-identical.
func TestTracingDoesNotChangeResults(t *testing.T) {
	ts, _ := newTestServer(t, Config{Backend: "auto"})
	plain := postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: risingQuery})
	traced := postTraced(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: risingQuery, Explain: "analyze"})
	if !bytes.Equal(plain.Result, traced.Result) {
		t.Errorf("tracing changed the result:\nplain:  %.200s\ntraced: %.200s", plain.Result, traced.Result)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for the access-log writer.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
