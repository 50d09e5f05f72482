package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/client"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/workload"
	"repro/internal/zexec"
)

// testTable builds the seed dataset; server and reference sessions each get
// their own instance so their engine counters stay independent.
func testTable() *dataset.Table {
	return workload.Sales(workload.SalesConfig{Rows: 10000, Products: 8, Years: 8, Cities: 4, Seed: 2})
}

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Registry) {
	t.Helper()
	reg := NewRegistry()
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	if _, err := reg.AddTable(testTable(), cfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg))
	t.Cleanup(ts.Close)
	return ts, reg
}

// referenceSession is the in-process ground truth the server must match byte
// for byte: the paper's row store, an executor independent of the served one.
func referenceSession(t *testing.T) *client.Session {
	t.Helper()
	tb := testTable()
	s, err := client.OpenDB(engine.NewRowStore(tb), tb.Name, client.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// encodePayload renders a wire value exactly the way the server does
// (compact, no HTML escaping).
func encodePayload(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// queryEnvelope decodes a query/spec response keeping the result's raw bytes.
type queryEnvelope struct {
	Dataset string          `json:"dataset"`
	ZQL     string          `json:"zql"`
	Result  json.RawMessage `json:"result"`
	Stats   RunStatsJSON    `json:"stats"`
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func postQuery(t *testing.T, url string, body any) queryEnvelope {
	t.Helper()
	resp, raw := post(t, url, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var env queryEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	return env
}

const risingQuery = `
NAME | X      | Y         | Z                 | PROCESS
f1   | 'year' | 'revenue' | v1 <- 'product'.* | v2 <- argmax(v1)[k=2] T(f1)
*f2  | 'year' | 'revenue' | v2                |`

func TestQueryMatchesSessionByteForByte(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	ref := referenceSession(t)

	env := postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: risingQuery})
	want, err := ref.Query(risingQuery)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := encodePayload(t, EncodeResult(want))
	if !bytes.Equal(env.Result, wantBytes) {
		t.Errorf("server result differs from session result:\nserver: %.200s\nlocal:  %.200s", env.Result, wantBytes)
	}
	if env.Stats.SQLQueries != want.Stats.SQLQueries {
		t.Errorf("sql queries = %d, want %d", env.Stats.SQLQueries, want.Stats.SQLQueries)
	}
}

// TestColumnBackendMatchesSession pins the column backend into the serving
// stack: responses must be byte-identical to an in-process row-store session
// (results are back-end independent), and /stats must carry the zone-map
// counter.
func TestColumnBackendMatchesSession(t *testing.T) {
	ts, reg := newTestServer(t, Config{Backend: "column"})
	ref := referenceSession(t)

	env := postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: risingQuery})
	want, err := ref.Query(risingQuery)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := encodePayload(t, EncodeResult(want))
	if !bytes.Equal(env.Result, wantBytes) {
		t.Errorf("column-backend result differs from row-store session:\nserver: %.200s\nlocal:  %.200s", env.Result, wantBytes)
	}
	st := reg.Get("sales").Stats()
	if st.Backend != "column" {
		t.Errorf("backend = %q, want column", st.Backend)
	}
	if st.RowsScanned == 0 {
		t.Error("column backend reported zero rows scanned after a cold query")
	}

	// A constraint on a value absent from the table lets the zone maps
	// prove every segment empty, which must surface on /stats.
	skipQuery := `
NAME | X      | Y         | Z                 | CONSTRAINTS
*f1  | 'year' | 'revenue' | v1 <- 'product'.* | country='nowhere'`
	postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: skipQuery})
	if st = reg.Get("sales").Stats(); st.SegmentsSkipped == 0 {
		t.Error("impossible constraint skipped no segments on /stats")
	}
}

func TestQueryWithInputsMatchesSession(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	ref := referenceSession(t)
	src := `
NAME | X      | Y         | Z                 | PROCESS
-f1  |        |           |                   |
f2   | 'year' | 'revenue' | v1 <- 'product'.* | v2 <- argmin(v1)[k=1] D(f1, f2)
*f3  | 'year' | 'revenue' | v2                |`
	drawn := []float64{1, 2, 3, 4, 5, 6, 7, 8}

	env := postQuery(t, ts.URL+"/query", QueryRequest{
		Dataset: "sales", ZQL: src, Inputs: map[string][]float64{"f1": drawn},
	})
	want, err := ref.QueryWithInputs(src, map[string][]float64{"f1": drawn})
	if err != nil {
		t.Fatal(err)
	}
	if got, wantB := env.Result, encodePayload(t, EncodeResult(want)); !bytes.Equal(got, wantB) {
		t.Errorf("input-query result differs:\nserver: %.200s\nlocal:  %.200s", got, wantB)
	}
}

func TestSpecMatchesSessionByteForByte(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	ref := referenceSession(t)
	spec := SpecJSON{
		X: "year", Y: "revenue", Z: "product",
		Task: "similar", K: 2,
		Drawn: []float64{10, 20, 30, 40, 50, 60, 70, 80},
	}
	env := postQuery(t, ts.URL+"/spec", SpecRequest{Dataset: "sales", Spec: spec})
	if env.ZQL == "" {
		t.Error("/spec should echo the generated ZQL")
	}

	fspec, err := spec.toSpec()
	if err != nil {
		t.Fatal(err)
	}
	zqlText, inputs, err := fspec.ToZQL()
	if err != nil {
		t.Fatal(err)
	}
	if zqlText != env.ZQL {
		t.Errorf("echoed ZQL differs:\n%s\nvs\n%s", env.ZQL, zqlText)
	}
	want, err := ref.QueryWithInputs(zqlText, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if got, wantB := env.Result, encodePayload(t, EncodeResult(want)); !bytes.Equal(got, wantB) {
		t.Errorf("spec result differs:\nserver: %.200s\nlocal:  %.200s", got, wantB)
	}
}

func TestRecommendMatchesSession(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	ref := referenceSession(t)

	resp, raw := post(t, ts.URL+"/recommend", RecommendRequest{Dataset: "sales", X: "year", Y: "revenue", Z: "product", K: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var env struct {
		Recommendations json.RawMessage `json:"recommendations"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	recs, err := ref.Recommend(context.Background(), "year", "revenue", "product", 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := env.Recommendations, encodePayload(t, EncodeRecommendations(recs)); !bytes.Equal(got, want) {
		t.Errorf("recommendations differ:\nserver: %.200s\nlocal:  %.200s", got, want)
	}
}

// TestRepeatedRecommendIsOneCacheHit pins /recommend to the result cache: its
// candidate query is one plan, so a repeat is exactly one hit, no miss, and
// no scanned row, with the same bytes.
func TestRepeatedRecommendIsOneCacheHit(t *testing.T) {
	ts, reg := newTestServer(t, Config{})
	req := RecommendRequest{Dataset: "sales", X: "year", Y: "revenue", Z: "product", K: 3}
	resp, cold := post(t, ts.URL+"/recommend", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, cold)
	}
	before := reg.Get("sales").Stats()
	if before.RowsScanned == 0 {
		t.Fatal("the cold request should scan rows")
	}
	resp, warm := post(t, ts.URL+"/recommend", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, warm)
	}
	after := reg.Get("sales").Stats()
	if !bytes.Equal(cold, warm) {
		t.Error("the repeat must answer the same bytes")
	}
	if hits, misses := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses; hits != 1 || misses != 0 {
		t.Errorf("repeat: %d hits, %d misses, want 1 and 0", hits, misses)
	}
	if scanned := after.RowsScanned - before.RowsScanned; scanned != 0 {
		t.Errorf("repeat scanned %d rows, want 0", scanned)
	}
}

func TestWarmCacheServesIdenticalBytesWithoutScanning(t *testing.T) {
	ts, reg := newTestServer(t, Config{})
	req := QueryRequest{Dataset: "sales", ZQL: risingQuery}

	cold := postQuery(t, ts.URL+"/query", req)
	if cold.Stats.RowsScanned == 0 {
		t.Fatal("cold run should scan rows")
	}
	warm := postQuery(t, ts.URL+"/query", req)
	if !bytes.Equal(cold.Result, warm.Result) {
		t.Error("warm result must be byte-identical to cold")
	}
	if warm.Stats.RowsScanned != 0 {
		t.Errorf("warm run scanned %d rows, want 0 (all plans cached)", warm.Stats.RowsScanned)
	}
	ds := reg.Get("sales").Stats()
	if ds.Cache.Hits == 0 || ds.Cache.Misses == 0 {
		t.Errorf("cache stats = %+v", ds.Cache)
	}
	if ds.HTTP.Queries != 2 {
		t.Errorf("http query count = %d", ds.HTTP.Queries)
	}
}

func TestConcurrentQueriesStayByteIdentical(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	ref := referenceSession(t)
	queries := []string{
		risingQuery,
		`
NAME | X      | Y        | Z                 | PROCESS
f1   | 'year' | 'profit' | v1 <- 'product'.* | v2 <- argany(v1)[t>0] T(f1)
*f2  | 'year' | 'profit' | v2                |`,
		`
NAME | X      | Y         | Z               | CONSTRAINTS | VIZ
*f1  | 'year' | 'revenue' | v1 <- 'city'.*  |             | bar.(y=agg('sum'))`,
	}
	want := make([][]byte, len(queries))
	for i, src := range queries {
		res, err := ref.Query(src)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		want[i] = encodePayload(t, EncodeResult(res))
	}
	const goroutines = 12
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				qi := (g + r) % len(queries)
				b, err := json.Marshal(QueryRequest{Dataset: "sales", ZQL: queries[qi]})
				if err != nil {
					errs <- err.Error()
					return
				}
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(b))
				if err != nil {
					errs <- err.Error()
					return
				}
				var env queryEnvelope
				err = json.NewDecoder(resp.Body).Decode(&env)
				resp.Body.Close()
				if err != nil {
					errs <- err.Error()
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- resp.Status
					return
				}
				if !bytes.Equal(env.Result, want[qi]) {
					errs <- "query " + queries[qi] + " diverged under concurrency"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestDatasetsEndpoint(t *testing.T) {
	ts, reg := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Datasets) != 1 {
		t.Fatalf("datasets = %+v", out.Datasets)
	}
	d := out.Datasets[0]
	if d.Name != "sales" || d.Backend != "column" || d.Rows != 10000 || len(d.Columns) == 0 {
		t.Errorf("dataset info = %+v", d)
	}
	// One source for "how big is the table": what the table itself says.
	if ds := reg.Get("sales"); d.TableBytes <= 0 || d.TableBytes != ds.TableBytes() {
		t.Errorf("tableBytes = %d, want the table's %d", d.TableBytes, ds.TableBytes())
	}
	// An in-memory table takes no appends.
	if d.Appendable {
		t.Errorf("in-memory dataset info = %+v, want appendable=false", d)
	}
}

// TestDatasetsEndpointColumnSegments pins the operator-facing segment count:
// a 10000-row column dataset partitions into ceil(10000/4096) = 3 segments.
func TestDatasetsEndpointColumnSegments(t *testing.T) {
	ts, _ := newTestServer(t, Config{Backend: "column"})
	resp, err := http.Get(ts.URL + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	d := out.Datasets[0]
	if d.Backend != "column" || d.Rows != 10000 || d.Segments != 3 {
		t.Errorf("dataset info = %+v, want column/10000 rows/3 segments", d)
	}
	if d.Appendable {
		t.Error("in-memory column dataset must not report appendable")
	}
}

func TestErrorPaths(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	cases := []struct {
		name   string
		path   string
		body   any
		status int
		substr string
	}{
		{"unknown dataset", "/query", QueryRequest{Dataset: "nope", ZQL: risingQuery}, http.StatusNotFound, "no dataset"},
		{"missing dataset", "/query", QueryRequest{ZQL: risingQuery}, http.StatusBadRequest, "missing"},
		{"bad zql", "/query", QueryRequest{Dataset: "sales", ZQL: "garbage ~~~"}, http.StatusUnprocessableEntity, ""},
		{"bad opt", "/query", QueryRequest{Dataset: "sales", ZQL: risingQuery, Opt: "warp9"}, http.StatusBadRequest, "optimization level"},
		{"bad task", "/spec", SpecRequest{Dataset: "sales", Spec: SpecJSON{X: "year", Y: "revenue", Task: "teleport"}}, http.StatusBadRequest, "unknown task"},
		{"spec missing axes", "/spec", SpecRequest{Dataset: "sales", Spec: SpecJSON{Task: "similar"}}, http.StatusBadRequest, ""},
		{"bad recommend column", "/recommend", RecommendRequest{Dataset: "sales", X: "no_such", Y: "revenue", Z: "product"}, http.StatusUnprocessableEntity, "no column"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := post(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.status, raw)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
				t.Fatalf("error envelope missing: %s", raw)
			}
			if tc.substr != "" && !strings.Contains(e.Error, tc.substr) {
				t.Errorf("error %q missing %q", e.Error, tc.substr)
			}
		})
	}
	// Unknown-field typos in the body fail loudly.
	resp, raw := post(t, ts.URL+"/query", map[string]any{"dataset": "sales", "zqll": "typo"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status = %d (%s)", resp.StatusCode, raw)
	}
	// Method mismatches are rejected by the mux.
	getResp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query status = %d", getResp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}
}

func TestRegistryRejectsDuplicatesAndUnknownBackends(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.AddTable(testTable(), Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.AddTable(testTable(), Config{}); err == nil {
		t.Error("duplicate registration should error")
	}
	if _, err := reg.AddTable(workload.Sales(workload.SalesConfig{Rows: 100, Products: 2, Years: 2, Cities: 2, Seed: 1}), Config{Backend: "quantum"}); err == nil {
		t.Error("unknown backend should error")
	}
	if reg.Get("missing") != nil {
		t.Error("Get on unknown name should be nil")
	}
	if got := len(reg.List()); got != 1 {
		t.Errorf("List = %d datasets", got)
	}
}

func TestRegistryOptConfig(t *testing.T) {
	small := func(name string) *dataset.Table {
		tb := workload.Sales(workload.SalesConfig{Rows: 100, Products: 2, Years: 2, Cities: 2, Seed: 1})
		tb.Name = name
		return tb
	}
	reg := NewRegistry()
	// An explicit "noopt" must survive — NoOpt being the zero OptLevel made
	// this easy to swallow silently.
	d, err := reg.AddTable(small("a"), Config{Opt: "noopt"})
	if err != nil {
		t.Fatal(err)
	}
	if d.Opt() != zexec.NoOpt {
		t.Errorf("opt = %v, want NoOpt", d.Opt())
	}
	// Empty defaults to the strongest level.
	if d, err = reg.AddTable(small("b"), Config{}); err != nil {
		t.Fatal(err)
	}
	if d.Opt() != zexec.InterTask {
		t.Errorf("default opt = %v, want InterTask", d.Opt())
	}
	if _, err := reg.AddTable(small("c"), Config{Opt: "warp9"}); err == nil {
		t.Error("bad opt name should error")
	}
}

// TestProcessStatsFlowThroughServer pins the process-phase counters on both
// surfaces: the per-request stats of a query response and the accumulated
// per-dataset totals on /stats. The similarity query below runs a pruned
// top-k search at the dataset's default (Inter-Task) level, so the response
// must show tuples scored and distance calls made, and the totals must grow
// with every request served.
func TestProcessStatsFlowThroughServer(t *testing.T) {
	// One process worker keeps the abandoned count deterministic (with a
	// pool, how many calls abandon depends on how fast the bound tightens
	// across workers); pruning itself is orthogonal to parallelism.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ts, reg := newTestServer(t, Config{})
	req := QueryRequest{
		Dataset: "sales",
		ZQL: `
NAME | X      | Y         | Z                 | PROCESS
-f1  |        |           |                   |
f2   | 'year' | 'revenue' | v1 <- 'product'.* | v2 <- argmin(v1)[k=2] D(f1, f2)
*f3  | 'year' | 'revenue' | v2                |`,
		Inputs: map[string][]float64{"f1": {1, 2, 3, 4, 5, 6, 7, 8}},
	}
	env := postQuery(t, ts.URL+"/query", req)
	if env.Stats.TuplesEvaluated == 0 || env.Stats.DistCalls == 0 {
		t.Fatalf("response stats carry no process work: %+v", env.Stats)
	}
	if env.Stats.DistAbandoned == 0 {
		t.Errorf("top-k search at Inter-Task pruned nothing: %+v", env.Stats)
	}
	first := reg.Get("sales").Stats().Process
	if first.Tuples != env.Stats.TuplesEvaluated || first.DistCalls != env.Stats.DistCalls {
		t.Errorf("/stats totals %+v do not match the served request %+v", first, env.Stats)
	}
	postQuery(t, ts.URL+"/query", req)
	second := reg.Get("sales").Stats().Process
	if second.Tuples != 2*first.Tuples || second.DistCalls != 2*first.DistCalls {
		t.Errorf("totals after two requests = %+v, want double %+v", second, first)
	}
	// The O0 override must keep the oracle unpruned.
	req.Opt = "o0"
	oracle := postQuery(t, ts.URL+"/query", req)
	if oracle.Stats.DistAbandoned != 0 {
		t.Errorf("NoOpt run abandoned %d distance calls, want 0", oracle.Stats.DistAbandoned)
	}
}
