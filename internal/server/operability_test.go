package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"context"

	"repro/internal/engine"
	"repro/internal/minisql"
	"repro/internal/workload"
	"repro/internal/zpack"
)

// pointQuery is the cheapest useful ZQL: one fixed trend, exactly one SQL
// query, so each request maps to exactly one coalescer submission.
const pointQuery = `
NAME | X      | Y         | Z
*f1  | 'year' | 'revenue' | 'product'.'product0000'`

// blockingDB wraps a real store, holding every ExecuteBatch open until
// release is closed. entered signals (capacity permitting) that a batch has
// reached the store, so tests can flood the queue while the drain is
// provably busy.
type blockingDB struct {
	engine.DB
	entered chan struct{}
	release chan struct{}
}

func newBlockingDB(inner engine.DB) *blockingDB {
	return &blockingDB{DB: inner, entered: make(chan struct{}, 1), release: make(chan struct{})}
}

func (d *blockingDB) ExecuteBatch(ctx context.Context, plans []*engine.Plan) ([]*engine.Result, error) {
	select {
	case d.entered <- struct{}{}:
	default:
	}
	select {
	case <-d.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return d.DB.ExecuteBatch(ctx, plans)
}

// stallDB wraps a real store, delaying every ExecuteBatch but honoring the
// context, so a short request deadline reliably expires mid-execution.
type stallDB struct {
	engine.DB
	delay time.Duration
}

// stall wraps s in a stallDB of 300 ms.
func stall(s engine.DB) engine.DB { return &stallDB{DB: s, delay: 300 * time.Millisecond} }

func (d *stallDB) ExecuteBatch(ctx context.Context, plans []*engine.Plan) ([]*engine.Result, error) {
	select {
	case <-time.After(d.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return d.DB.ExecuteBatch(ctx, plans)
}

// newWrappedServer builds a registry+server whose single "sales" dataset
// (testTable, through AddTable) runs its coalesced batches on wrap of its own
// store, so the test controls ExecuteBatch. The cache is disabled so every
// request reaches the coalescer.
func newWrappedServer(t *testing.T, cfg Config, wrap func(engine.DB) engine.DB, opts ...Option) (*httptest.Server, *Registry, *Dataset) {
	t.Helper()
	cfg.Seed = 7
	cfg.CacheEntries = -1
	reg := NewRegistry()
	d, err := reg.AddTable(testTable(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.bat.store = wrap(d.bat.store)
	reg.SetReady(true)
	ts := httptest.NewServer(New(reg, opts...))
	t.Cleanup(ts.Close)
	return ts, reg, d
}

// TestAdmissionControlShedsWithBoundedQueue pins the overload contract: with
// the drain blocked and the admission queue full, further requests
// are shed immediately with 429 + Retry-After while every admitted request
// still completes once the store frees up.
func TestAdmissionControlShedsWithBoundedQueue(t *testing.T) {
	var db *blockingDB
	ts, _, d := newWrappedServer(t, Config{MaxQueue: 2}, func(s engine.DB) engine.DB { db = newBlockingDB(s); return db })

	type outcome struct {
		status     int
		retryAfter string
		body       []byte
	}
	results := make(chan outcome, 7)
	do := func() {
		b, _ := json.Marshal(QueryRequest{Dataset: "sales", ZQL: pointQuery})
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(b))
		if err != nil {
			results <- outcome{status: -1}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		results <- outcome{resp.StatusCode, resp.Header.Get("Retry-After"), buf.Bytes()}
	}

	// One request occupies the drain inside the store...
	go do()
	select {
	case <-db.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("blocker never reached the store")
	}
	// ...then a flood arrives: with MaxQueue=2, exactly 2 park and 4 shed.
	for i := 0; i < 6; i++ {
		go do()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := d.bat.stats()
		if s.Shed == 4 && s.QueueDepth == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never saturated: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
	close(db.release)

	counts := map[int]int{}
	for i := 0; i < 7; i++ {
		o := <-results
		counts[o.status]++
		if o.status == http.StatusTooManyRequests {
			if o.retryAfter != "1" {
				t.Errorf("429 Retry-After = %q, want \"1\"", o.retryAfter)
			}
			if !bytes.Contains(o.body, []byte("overloaded")) {
				t.Errorf("429 body = %s, want mention of overload", o.body)
			}
		}
	}
	if counts[http.StatusOK] != 3 || counts[http.StatusTooManyRequests] != 4 {
		t.Fatalf("status counts = %v, want 3x200 and 4x429", counts)
	}

	// The shed count is visible on /stats (and therefore /metrics).
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(sresp.Body); err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Datasets map[string]DatasetStats `json:"datasets"`
	}
	if err := json.Unmarshal(raw.Bytes(), &stats); err != nil {
		t.Fatalf("bad /stats body %s: %v", raw.Bytes(), err)
	}
	ds := stats.Datasets["sales"]
	if ds.Coalesce.Shed != 4 {
		t.Errorf("/stats shed = %d, want 4", ds.Coalesce.Shed)
	}
	if ds.Coalesce.QueueDepth != 0 {
		t.Errorf("/stats queueDepth = %d, want 0 after drain", ds.Coalesce.QueueDepth)
	}
}

// TestRequestDeadlineReturns504WithPartialStats pins the deadline contract:
// X-Timeout bounds the execution, the 504 response carries the partial
// execution statistics, the timeout counter moves, and — measured across the
// whole request path, including the coalescer's merged-context machinery —
// no goroutines are left behind.
func TestRequestDeadlineReturns504WithPartialStats(t *testing.T) {
	ts, _, d := newWrappedServer(t, Config{}, stall, WithTimeout(2*time.Second))

	// Warm up: establish the keep-alive connection (whose read/write loop
	// goroutines persist by design) and let the first drain retire, so
	// the baseline below counts only steady-state goroutines.
	postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: pointQuery})
	baseline := runtime.NumGoroutine()
	for settle := time.Now().Add(time.Second); time.Now().Before(settle); {
		if n := runtime.NumGoroutine(); n < baseline {
			baseline = n
		}
		time.Sleep(5 * time.Millisecond)
	}
	b, _ := json.Marshal(QueryRequest{Dataset: "sales", ZQL: pointQuery})
	req, err := http.NewRequest("POST", ts.URL+"/query", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Timeout", "30ms")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", resp.StatusCode, buf.Bytes())
	}
	var ej struct {
		Error        string          `json:"error"`
		PartialStats json.RawMessage `json:"partialStats"`
	}
	if err := json.Unmarshal(buf.Bytes(), &ej); err != nil {
		t.Fatalf("bad 504 body %s: %v", buf.Bytes(), err)
	}
	if ej.Error == "" || len(ej.PartialStats) == 0 {
		t.Errorf("504 body missing error/partialStats: %s", buf.Bytes())
	}
	if got := d.Stats().HTTP.Timeouts; got != 1 {
		t.Errorf("timeout counter = %d, want 1", got)
	}

	// The store is still stalled for up to delay; wait for every goroutine the
	// request spawned (handler, drain goroutine, AfterFunc watchers) to exit.
	leakDeadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The same dataset still serves once the deadline pressure is gone.
	env := postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: pointQuery})
	if len(env.Result) == 0 {
		t.Error("query after a timeout returned no result")
	}
}

// TestRecommendHonoursTheRequestContext pins /recommend to the deadline
// contract of /query: a malformed X-Timeout is a 400, a deadline that expires
// on a cold request is a 504, a client that has gone is a 499, and both cuts
// count as timeouts.
func TestRecommendHonoursTheRequestContext(t *testing.T) {
	_, reg, d := newWrappedServer(t, Config{}, stall)
	srv := New(reg)
	body, err := json.Marshal(RecommendRequest{Dataset: "sales", X: "year", Y: "revenue", Z: "product", K: 3})
	if err != nil {
		t.Fatal(err)
	}
	recommend := func(ctx context.Context, timeout string) (int, string) {
		req := httptest.NewRequest("POST", "/recommend", bytes.NewReader(body)).WithContext(ctx)
		req.Header.Set("Content-Type", "application/json")
		if timeout != "" {
			req.Header.Set("X-Timeout", timeout)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}
	if code, body := recommend(context.Background(), "garbage"); code != http.StatusBadRequest {
		t.Errorf("bad X-Timeout: status = %d, want 400; body %s", code, body)
	}
	if code, body := recommend(context.Background(), "30ms"); code != http.StatusGatewayTimeout {
		t.Errorf("deadline: status = %d, want 504; body %s", code, body)
	}
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	if code, body := recommend(gone, ""); code != StatusClientClosedRequest {
		t.Errorf("client gone: status = %d, want 499; body %s", code, body)
	}
	if got := d.Stats().HTTP.Timeouts; got != 2 {
		t.Errorf("timeout counter = %d, want 2 (one deadline, one disconnect)", got)
	}
	if code, body := recommend(context.Background(), ""); code != http.StatusOK {
		t.Errorf("plain request: status = %d, want 200; body %s", code, body)
	}
}

// TestBadTimeoutHeaderIsRejected pins that a malformed X-Timeout is a client
// error, not a silently ignored header.
func TestBadTimeoutHeaderIsRejected(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	b, _ := json.Marshal(QueryRequest{Dataset: "sales", ZQL: pointQuery})
	req, err := http.NewRequest("POST", ts.URL+"/query", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Timeout", "banana")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// TestRequestIDPropagation pins the correlation-ID contract: inbound IDs are
// echoed, absent IDs are minted as 16 hex digits.
func TestRequestIDPropagation(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "proxy-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "proxy-abc-123" {
		t.Errorf("inbound ID not honored: got %q", got)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-ID")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Errorf("generated ID = %q, want 16 hex digits", id)
	}
}

// TestAccessLogEmitsOneJSONLinePerRequest pins the access-log format: flat
// JSON with the request ID that was echoed to the client.
func TestAccessLogEmitsOneJSONLinePerRequest(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	reg := NewRegistry()
	if _, err := reg.AddTable(testTable(), Config{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, WithAccessLog(w)))
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "log-me")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mu.Lock()
	line := strings.TrimSpace(buf.String())
	mu.Unlock()
	var e accessEntry
	if err := json.Unmarshal([]byte(line), &e); err != nil {
		t.Fatalf("access log line %q: %v", line, err)
	}
	if e.RequestID != "log-me" || e.Method != "GET" || e.Path != "/healthz" || e.Status != 200 {
		t.Errorf("access entry = %+v", e)
	}
	if e.LatencyMs < 0 || e.Time == "" {
		t.Errorf("access entry missing timing: %+v", e)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestReadyzTracksRegistryState pins the liveness/readiness split: /healthz
// is always 200, /readyz follows SetReady and goes unready while a snapshot
// swap is in flight.
func TestReadyzTracksRegistryState(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.AddTable(testTable(), Config{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg))
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != 200 {
		t.Errorf("/healthz before ready = %d, want 200 (liveness never gates on load)", got)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz before SetReady = %d, want 503", got)
	}
	reg.SetReady(true)
	if got := get("/readyz"); got != 200 {
		t.Errorf("/readyz after SetReady = %d, want 200", got)
	}
	// A snapshot swap in flight flips readiness off, and back on when done.
	reg.swaps.Add(1)
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz during swap = %d, want 503", got)
	}
	reg.swaps.Add(-1)
	if got := get("/readyz"); got != 200 {
		t.Errorf("/readyz after swap = %d, want 200", got)
	}
}

// sampleLine matches one Prometheus text-format sample: name, optional
// labels, and a float value.
var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (NaN|[-+]?Inf|[-+]?[0-9.eE+-]+)$`)

// TestMetricsScrapeFormat pins the /metrics contract with a minimal
// exposition-format parser: correct content type, every sample preceded by
// its family's TYPE header, and the key series present with sane values
// after one query, one result the cache refused as oversize, and a
// two-column query on a zpack dataset, whose resident bytes are then those
// two columns' alone.
func TestMetricsScrapeFormat(t *testing.T) {
	ts, reg := newTestServer(t, Config{CacheEntries: 4})
	path := filepath.Join(t.TempDir(), "packed.zpack")
	if err := zpack.Build(path, testTable()); err != nil {
		t.Fatal(err)
	}
	packed, err := reg.AddZpack("packed", path, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	reg.SetReady(true)
	postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: pointQuery})
	postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "packed", ZQL: "NAME | X | Y\n*f1 | 'year' | 'revenue'"})
	reg.Get("sales").cache.Put("oversize", sizedResult("oversize", 5*cacheBytesPerEntry))
	runtime.GC()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 text exposition format", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}

	typed := map[string]bool{}
	values := map[string]float64{} // "name{labels}" -> value
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 3 && fields[1] == "TYPE" {
				typed[fields[2]] = true
			}
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		family := m[1]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(family, suffix); base != family && typed[base] {
				family = base
				break
			}
		}
		if !typed[family] {
			t.Errorf("sample %q has no preceding # TYPE for %q", line, family)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		values[m[1]+m[2]] = v
	}

	assertAtLeast := func(series string, min float64) {
		t.Helper()
		v, ok := values[series]
		if !ok {
			t.Errorf("series %s missing from scrape", series)
			return
		}
		if v < min {
			t.Errorf("%s = %v, want >= %v", series, v, min)
		}
	}
	assertAtLeast(`zen_http_requests_total{endpoint="/query",code="200"}`, 1)
	assertAtLeast(`zen_query_duration_seconds_count{endpoint="/query",opt="Inter-Task"}`, 1)
	assertAtLeast(`zen_rows_scanned_total{dataset="sales"}`, 1)
	assertAtLeast(`zen_dataset_table_bytes{dataset="sales"}`, 1)
	assertAtLeast(`zen_ready`, 1)
	assertAtLeast(`zen_queue_depth{dataset="sales"}`, 0)
	assertAtLeast(`zen_requests_shed_total{dataset="sales"}`, 0)
	assertAtLeast(`zen_coalesce_submissions_total{dataset="sales"}`, 1)
	assertAtLeast(`zen_cache_misses_total{dataset="sales"}`, 1)
	assertAtLeast(`zen_cache_oversize_total{dataset="sales"}`, 1)
	// The runtime's figures: the test collected before scraping, and
	// nothing sets the percent, so it is the process's own GOGC. Every live
	// byte was allocated once, and every object takes a byte at least.
	assertAtLeast(`zen_go_heap_live_bytes`, 1)
	assertAtLeast(`zen_go_gc_cycles_total`, 1)
	assertAtLeast(`zen_go_gc_cpu_seconds_total`, 0)
	assertAtLeast(`zen_go_heap_allocs_objects_total`, 1)
	assertAtLeast(`zen_go_heap_allocs_bytes_total`, values[`zen_go_heap_live_bytes`])
	assertAtLeast(`zen_go_heap_allocs_bytes_total`, values[`zen_go_heap_allocs_objects_total`])
	if got, want := values[`zen_go_gc_percent`], float64(runtimeInt("/gc/gogc:percent")); got != want {
		t.Errorf("zen_go_gc_percent = %v, want %v", got, want)
	}
	// No dataset holds a block: the table bytes are the table at memory
	// width, which the server reads a segment at a time.
	if got, want := values[`zen_dataset_table_bytes{dataset="packed"}`], float64(packed.TableBytes()); got != want {
		t.Errorf("zpack table bytes %v, want %v", got, want)
	}
}

// runtimeInt reads one integer runtime metric, signed so that the GC percent
// reads -1 when the collector is off.
func runtimeInt(name string) int64 {
	s := []rtmetrics.Sample{{Name: name}}
	rtmetrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// opPlan prepares the single SQL used by the direct batcher tests.
func opPlan(t *testing.T, db engine.DB) *engine.Plan {
	t.Helper()
	q, err := minisql.Parse("SELECT year, SUM(revenue) FROM sales GROUP BY year ORDER BY year")
	if err != nil {
		t.Fatal(err)
	}
	p, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBatcherShedsAtQueueBound pins the queue-bound unit behavior, below the
// HTTP layer: with the drain busy and one submission parked, the next
// arrival is shed synchronously.
func TestBatcherShedsAtQueueBound(t *testing.T) {
	tbl := workload.Sales(workload.SalesConfig{Rows: 1000, Products: 4, Years: 5, Cities: 2, Seed: 2})
	db := newBlockingDB(engine.NewRowStore(tbl))
	bat := newBatcher(db, 1)
	plan := opPlan(t, db)

	blocker := make(chan error, 1)
	go func() {
		_, err := bat.submit(context.Background(), []*engine.Plan{plan})
		blocker <- err
	}()
	<-db.entered
	parked := make(chan error, 1)
	go func() {
		_, err := bat.submit(context.Background(), []*engine.Plan{plan})
		parked <- err
	}()
	for bat.queueDepth() != 1 {
		time.Sleep(time.Millisecond)
	}
	if _, err := bat.submit(context.Background(), []*engine.Plan{plan}); err != ErrOverloaded {
		t.Fatalf("submit over bound: err = %v, want ErrOverloaded", err)
	}
	close(db.release)
	if err := <-blocker; err != nil {
		t.Fatalf("blocker: %v", err)
	}
	if err := <-parked; err != nil {
		t.Fatalf("parked: %v", err)
	}
	if s := bat.stats(); s.Shed != 1 || s.Submissions != 2 {
		t.Errorf("stats = %+v, want 2 admitted and 1 shed", s)
	}
}

// TestBatcherUnparksAbandonedSubmission pins that a caller whose context dies
// while parked is removed from the queue — its slot frees immediately for
// admission control, and no future batch executes its plans.
func TestBatcherUnparksAbandonedSubmission(t *testing.T) {
	tbl := workload.Sales(workload.SalesConfig{Rows: 1000, Products: 4, Years: 5, Cities: 2, Seed: 2})
	db := newBlockingDB(engine.NewRowStore(tbl))
	bat := newBatcher(db, 0)
	plan := opPlan(t, db)

	blocker := make(chan error, 1)
	go func() {
		_, err := bat.submit(context.Background(), []*engine.Plan{plan})
		blocker <- err
	}()
	<-db.entered
	ctx, cancel := context.WithCancel(context.Background())
	abandoned := make(chan error, 1)
	go func() {
		_, err := bat.submit(ctx, []*engine.Plan{plan})
		abandoned <- err
	}()
	for bat.queueDepth() != 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-abandoned; err != context.Canceled {
		t.Fatalf("abandoned submit: err = %v, want context.Canceled", err)
	}
	if d := bat.queueDepth(); d != 0 {
		t.Fatalf("queue depth after abandonment = %d, want 0", d)
	}
	close(db.release)
	if err := <-blocker; err != nil {
		t.Fatalf("blocker: %v", err)
	}
}

// TestMergedContextCancelsOnlyWhenAllRidersGone pins the shared-batch
// cancellation rule: one rider giving up must not cancel its neighbors'
// batch; the batch dies only when every rider is gone.
func TestMergedContextCancelsOnlyWhenAllRidersGone(t *testing.T) {
	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	merged, release := mergedContext([]*submission{{ctx: ctx1}, {ctx: ctx2}})
	defer release()

	cancel1()
	select {
	case <-merged.Done():
		t.Fatal("merged context canceled while a rider was still live")
	case <-time.After(20 * time.Millisecond):
	}
	cancel2()
	select {
	case <-merged.Done():
	case <-time.After(time.Second):
		t.Fatal("merged context not canceled after every rider gave up")
	}

	// A single-rider batch runs directly under that rider's context.
	ctx3, cancel3 := context.WithCancel(context.Background())
	defer cancel3()
	single, release3 := mergedContext([]*submission{{ctx: ctx3}})
	defer release3()
	if single != ctx3 {
		t.Error("single-rider batch should reuse the rider's context")
	}
}
