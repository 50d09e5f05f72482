package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/workload"
	"repro/internal/zpack"
)

// newZpackServer serves the standard 10000-row sales fixture from a zpack
// file in a temp dir — the persistent, appendable serving path.
func newZpackServer(t *testing.T, cfg Config) (*httptest.Server, *Registry, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sales.zpack")
	if err := zpack.Build(path, testTable()); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if cfg.Seed == 0 {
		cfg.Seed = 7
	}
	if _, err := reg.AddZpack("sales", path, cfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg))
	t.Cleanup(ts.Close)
	return ts, reg, path
}

// TestZpackBackendMatchesSession pins the full warm-restart serving path:
// responses over a zpack file must be byte-identical to an in-process
// session over the in-memory table the file was built from.
func TestZpackBackendMatchesSession(t *testing.T) {
	ts, reg, _ := newZpackServer(t, Config{})
	ref := referenceSession(t)

	env := postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: risingQuery})
	want, err := ref.Query(risingQuery)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := encodePayload(t, EncodeResult(want))
	if !bytes.Equal(env.Result, wantBytes) {
		t.Errorf("zpack-backed result differs from session result:\nserver: %.200s\nlocal:  %.200s", env.Result, wantBytes)
	}
	d := reg.Get("sales")
	if d.Backend() != "column" || !d.Appendable() || d.Segments() != 3 {
		t.Errorf("dataset = backend %q appendable %v segments %d", d.Backend(), d.Appendable(), d.Segments())
	}
}

// TestAddZpackBackendNames: a zpack dataset runs on the column executor, so
// "" and "column" register it as "column" and "auto" as "auto", each
// appendable, and "row"/"bitmap" are refused before the file is opened.
func TestAddZpackBackendNames(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sales.zpack")
	if err := zpack.Build(path, testTable()); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	for backend, want := range map[string]string{"": "column", "column": "column", "auto": "auto"} {
		d, err := reg.AddZpack("sales_"+backend, path, Config{Backend: backend})
		if err != nil {
			t.Fatalf("AddZpack(%q): %v", backend, err)
		}
		if d.Backend() != want || !d.Appendable() {
			t.Errorf("AddZpack(%q) = backend %q appendable %v, want %q appendable", backend, d.Backend(), d.Appendable(), want)
		}
	}
	missing := filepath.Join(dir, "missing.zpack")
	for _, backend := range []string{"row", "bitmap"} {
		_, err := reg.AddZpack("sales_"+backend, missing, Config{Backend: backend})
		if want := fmt.Sprintf("server: backend %q is not served (want column or auto); the paper's row and bitmap baselines run in zenvisage -backend", backend); err == nil || err.Error() != want {
			t.Errorf("AddZpack(%q) = %v, want %q", backend, err, want)
		}
	}
}

// TestRegistryBackendNames pins the name table: "" (reported as "column"),
// "column" and "auto" name the one served executor on every way in — AddTable,
// LoadCSV and AddZpack — and the row and bitmap baselines and unknown names
// are refused with an error pointing at zenvisage.
func TestRegistryBackendNames(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sales.zpack")
	if err := zpack.Build(path, testTable()); err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(dir, "sales.csv")
	writeCSV(t, csvPath, testTable())
	loads := map[string]func(*Registry, string, Config) (*Dataset, error){
		"AddTable": func(r *Registry, name string, cfg Config) (*Dataset, error) {
			tb := testTable()
			tb.Name = name
			return r.AddTable(tb, cfg)
		},
		"LoadCSV":  func(r *Registry, name string, cfg Config) (*Dataset, error) { return r.LoadCSV(name, csvPath, cfg) },
		"AddZpack": func(r *Registry, name string, cfg Config) (*Dataset, error) { return r.AddZpack(name, path, cfg) },
	}
	for how, load := range loads {
		reg := NewRegistry()
		for backend, want := range map[string]string{"": "column", "column": "column", "auto": "auto"} {
			d, err := load(reg, "sales_"+backend, Config{Backend: backend})
			if err != nil {
				t.Fatalf("%s(%q): %v", how, backend, err)
			}
			if d.Backend() != want || d.Segments() != 3 {
				t.Errorf("%s(%q) = backend %q, %d segments; want %q, 3", how, backend, d.Backend(), d.Segments(), want)
			}
		}
		ts := httptest.NewServer(New(reg))
		_, raw := get(t, ts.URL+"/datasets")
		ts.Close()
		for _, want := range []string{`"name":"sales_","backend":"column"`, `"name":"sales_auto","backend":"auto"`, `"name":"sales_column","backend":"column"`} {
			if !bytes.Contains(raw, []byte(want)) {
				t.Errorf("%s: /datasets %s lacks %s", how, raw, want)
			}
		}
		for _, backend := range []string{"row", "bitmap", "quantum"} {
			_, err := load(reg, "sales_"+backend, Config{Backend: backend})
			if want := fmt.Sprintf("server: backend %q is not served (want column or auto); the paper's row and bitmap baselines run in zenvisage -backend", backend); err == nil || err.Error() != want {
				t.Errorf("%s(%q) = %v, want %q", how, backend, err, want)
			}
		}
		if got := len(reg.List()); got != 3 {
			t.Errorf("%s: %d datasets registered, want 3", how, got)
		}
	}
}

// salesRow builds one wire-format row for the 10-column sales schema
// (product, category, city, country, year, month, size, weight, profit,
// revenue).
func salesRow(product string, year int, revenue float64) []any {
	return []any{product, "cat_x", "city_1", "country_1", float64(year), float64(6), 1.5, 2.5, revenue / 2, revenue}
}

func appendRows(t *testing.T, url, name string, rows [][]any) (AppendResponse, *http.Response, []byte) {
	t.Helper()
	resp, raw := post(t, url+"/datasets/"+name+"/append", AppendRequest{Rows: rows})
	var out AppendResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp, raw
}

func TestAppendEndpointExtendsAndInvalidates(t *testing.T) {
	ts, reg, path := newZpackServer(t, Config{})

	countQuery := `
NAME | X      | Y         | Z
*f1  | 'year' | 'revenue' | 'product'.'product_appended'`
	// Baseline: no rows for the yet-unseen product; result caches warm.
	before := postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: countQuery})
	st := reg.Get("sales").Stats()
	if st.Cache.Entries == 0 {
		t.Fatal("expected warm cache entries before append")
	}
	if st.Cache.Evictions != 0 {
		t.Fatalf("evictions = %d before any append", st.Cache.Evictions)
	}
	preEntries := st.Cache.Entries

	rows := [][]any{
		salesRow("product_appended", 2015, 111.5),
		salesRow("product_appended", 2016, 222.5),
	}
	if cols := reg.Get("sales").Table().ColumnNames(); len(cols) != 10 {
		t.Fatalf("fixture schema changed: %v", cols)
	}
	out, resp, raw := appendRows(t, ts.URL, "sales", rows)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status %d: %s", resp.StatusCode, raw)
	}
	if out.Appended != 2 || out.Rows != 10002 || out.Segments != 3 {
		t.Errorf("append response = %+v, want 2 appended, 10002 rows, 3 segments", out)
	}

	// The swapped-in dataset serves the new rows...
	after := postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: countQuery})
	if bytes.Equal(before.Result, after.Result) {
		t.Error("append did not change the query result (stale cache?)")
	}
	// ...and matches a fresh in-process session over the extended file.
	freshReader, err := zpack.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer freshReader.Close()
	sess, err := client.OpenZpack(path, client.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess.Query(countQuery)
	if err != nil {
		t.Fatal(err)
	}
	if wantBytes := encodePayload(t, EncodeResult(want)); !bytes.Equal(after.Result, wantBytes) {
		t.Errorf("post-append result differs from fresh session:\nserver: %.200s\nlocal:  %.200s", after.Result, wantBytes)
	}

	// Cache invalidation is visible on /stats: the pre-append entries were
	// evicted wholesale, and hit/miss counters carried over.
	st = reg.Get("sales").Stats()
	if st.Cache.Evictions < int64(preEntries) {
		t.Errorf("evictions = %d after replacement, want >= %d", st.Cache.Evictions, preEntries)
	}
	if st.HTTP.Queries != 2 {
		t.Errorf("http query counter = %d after swap, want 2 (carried)", st.HTTP.Queries)
	}
	if st.Rows != 10002 {
		t.Errorf("/stats rows = %d, want 10002", st.Rows)
	}
}

func TestAppendSealsSegmentsAndSurvivesRestart(t *testing.T) {
	ts, reg, path := newZpackServer(t, Config{})
	// 10000 committed rows: appending 2300 crosses the 3rd segment's 4096
	// boundary (10000+2300 = 12300 -> 4 segments, tail of 12 rows).
	batch := make([][]any, 2300)
	for i := range batch {
		batch[i] = salesRow("bulk", 2020, float64(i))
	}
	out, resp, raw := appendRows(t, ts.URL, "sales", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status %d: %s", resp.StatusCode, raw)
	}
	if out.Rows != 12300 || out.Segments != 4 {
		t.Errorf("append response = %+v, want 12300 rows in 4 segments", out)
	}
	if got := reg.Get("sales").Segments(); got != 4 {
		t.Errorf("registry segments = %d, want 4", got)
	}

	// Warm restart: a brand-new registry over the same file sees everything
	// without any CSV in sight, and zone maps still prune for a selective
	// predicate (the counting reader proves segments loaded < total).
	reg2 := NewRegistry()
	d2, err := reg2.AddZpack("sales", path, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Table().NumRows() != 12300 || d2.Segments() != 4 {
		t.Fatalf("restarted dataset = %d rows, %d segments", d2.Table().NumRows(), d2.Segments())
	}
	res, err := d2.Session().Query(`
NAME | X      | Y         | Z
*f1  | 'year' | 'revenue' | 'product'.'bulk'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) == 0 || res.Outputs[0].Len() == 0 {
		t.Fatal("restarted server cannot see appended rows")
	}
}

// TestAppendPreservesInt64Precision pins the json.Number decode path: int64
// values above 2^53 must survive the append byte-exactly (a float64 round
// trip would silently round them).
func TestAppendPreservesInt64Precision(t *testing.T) {
	ts, _, path := newZpackServer(t, Config{})
	big := int64(1)<<53 + 1 // 9007199254740993, not representable as float64
	row := salesRow("p_big", 2015, 1)
	row[4] = json.Number("9007199254740993")
	_, resp, raw := appendRows(t, ts.URL, "sales", [][]any{row})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status %d: %s", resp.StatusCode, raw)
	}
	// Read the committed file back fully materialized — the served table is
	// lazy, and what matters is the durable value.
	r, err := zpack.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.LoadAll(); err != nil {
		t.Fatal(err)
	}
	tb := r.Table()
	got := tb.Column("year").Value(tb.NumRows() - 1).Int()
	if got != big {
		t.Errorf("stored year = %d, want %d (precision lost)", got, big)
	}
}

func TestAppendErrorPaths(t *testing.T) {
	ts, _, _ := newZpackServer(t, Config{})
	t.Run("unknown dataset", func(t *testing.T) {
		_, resp, _ := appendRows(t, ts.URL, "nope", [][]any{{"a"}})
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("status = %d", resp.StatusCode)
		}
	})
	t.Run("wrong arity", func(t *testing.T) {
		_, resp, raw := appendRows(t, ts.URL, "sales", [][]any{{"only-one-cell"}})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d: %s", resp.StatusCode, raw)
		}
	})
	t.Run("kind mismatch", func(t *testing.T) {
		bad := salesRow("p", 2015, 1)
		bad[0] = float64(3) // product is a string column
		_, resp, raw := appendRows(t, ts.URL, "sales", [][]any{bad})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d: %s", resp.StatusCode, raw)
		}
	})
	t.Run("fractional int", func(t *testing.T) {
		bad := salesRow("p", 2015, 1)
		bad[4] = 2015.5 // year is an int column
		_, resp, raw := appendRows(t, ts.URL, "sales", [][]any{bad})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d: %s", resp.StatusCode, raw)
		}
	})
	t.Run("not appendable", func(t *testing.T) {
		reg := NewRegistry()
		if _, err := reg.AddTable(testTable(), Config{}); err != nil {
			t.Fatal(err)
		}
		ts2 := httptest.NewServer(New(reg))
		defer ts2.Close()
		_, resp, raw := appendRows(t, ts2.URL, "sales", [][]any{salesRow("p", 2015, 1)})
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("status = %d: %s", resp.StatusCode, raw)
		}
	})
}

// clusteredSales is the sales fixture at 40000 rows, ordered by year, so a
// year filter's zone maps prove most of its ten segments empty and leave them
// unread until some other filter visits them.
func clusteredSales() *dataset.Table {
	src := workload.Sales(workload.SalesConfig{Rows: 40000, Products: 8, Years: 8, Cities: 4, Seed: 2})
	order := make([]int, src.NumRows())
	for i := range order {
		order[i] = i
	}
	year := src.Column("year")
	sort.SliceStable(order, func(a, b int) bool { return year.Int(order[a]) < year.Int(order[b]) })
	out := dataset.NewTable(src.Name, fieldsOf(src))
	for _, i := range order {
		out.AppendRow(src.Row(i)...)
	}
	return out
}

func fieldsOf(t *dataset.Table) []dataset.Field {
	fields := make([]dataset.Field, t.NumCols())
	for j, c := range t.Columns() {
		fields[j] = c.Field
	}
	return fields
}

// TestAppendUnderConcurrentQueries races appends against queries whose
// filters reach the segments an append rewrites: the filter for year y is
// first sent while append y is in flight, so scans of the outgoing snapshot
// and of its successor read the same file at once, each through its own
// footer. Every response must be exactly the answer of one
// committed snapshot — one that was current at some point between the
// request leaving and the response arriving — and nothing may error.
func TestAppendUnderConcurrentQueries(t *testing.T) {
	const appends, perAppend, firstYear = 8, 700, 2006
	base := clusteredSales()
	path := filepath.Join(t.TempDir(), "sales.zpack")
	if err := zpack.Build(path, base); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if _, err := reg.AddZpack("sales", path, Config{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg))
	defer ts.Close()

	// Append i adds rows of year firstYear+i (and of one other year), under an
	// existing and a new product, so each filter's answer moves with its own
	// append and with one more.
	batches := make([][][]any, appends)
	for i := range batches {
		batches[i] = make([][]any, perAppend)
		for j := range batches[i] {
			product, year := "product0003", firstYear+i
			if j%3 == 0 {
				product = fmt.Sprintf("live_%d", i)
			}
			if j%5 == 0 {
				year = firstYear + (i+3)%appends
			}
			batches[i][j] = salesRow(product, year, float64(j))
		}
	}
	query := func(year int) string {
		return fmt.Sprintf(`
NAME | X       | Y         | Z                 | CONSTRAINTS
*f1  | 'month' | 'revenue' | v1 <- 'product'.* | year=%d`, firstYear+year)
	}
	// oracle[g][y]: the answer to filter y over the base table plus the first
	// g batches, from a row store that knows nothing of segments.
	oracle := make([][][]byte, appends+1)
	grown := dataset.NewTable(base.Name, fieldsOf(base))
	for i := 0; i < base.NumRows(); i++ {
		grown.AppendRow(base.Row(i)...)
	}
	for g := range oracle {
		if g > 0 {
			for _, cells := range batches[g-1] {
				row := make(dataset.Row, len(cells))
				for j, c := range grown.Columns() {
					switch c.Field.Kind {
					case dataset.KindString:
						row[j] = dataset.SV(cells[j].(string))
					case dataset.KindInt:
						row[j] = dataset.IV(int64(cells[j].(float64)))
					default:
						row[j] = dataset.FV(cells[j].(float64))
					}
				}
				grown.AppendRow(row...)
			}
		}
		sess, err := client.OpenDB(engine.NewRowStore(grown), grown.Name, client.WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		oracle[g] = make([][]byte, appends)
		for y := range oracle[g] {
			res, err := sess.Query(query(y))
			if err != nil {
				t.Fatal(err)
			}
			oracle[g][y] = encodePayload(t, EncodeResult(res))
		}
	}
	for y := 0; y < appends; y++ {
		if bytes.Equal(oracle[y][y], oracle[y+1][y]) {
			t.Fatalf("append %d does not move the answer of its own filter; the fixture proves nothing", y)
		}
	}

	var started, done, answered atomic.Int64 // appends begun, appends acknowledged, responses checked
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				// Mostly the filter of the append in flight (its segments are
				// the unread ones), sometimes an earlier one; never a later
				// one, which would read its segments ahead of time.
				cur := int(started.Load()) - 1
				y := max(cur, 0)
				if cur > 0 && (n+g)%4 == 0 {
					y = (n + g) % cur
				}
				lo := done.Load()
				b, _ := json.Marshal(QueryRequest{Dataset: "sales", ZQL: query(y)})
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(b))
				if err != nil {
					errs <- err.Error()
					return
				}
				var env queryEnvelope
				err = json.NewDecoder(resp.Body).Decode(&env)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil {
					errs <- fmt.Sprintf("query status %d (%v)", resp.StatusCode, err)
					return
				}
				hi := started.Load()
				ok := false
				for gen := lo; gen <= hi && !ok; gen++ {
					ok = bytes.Equal(env.Result, oracle[gen][y])
				}
				if !ok {
					errs <- fmt.Sprintf("filter %d answered with no snapshot's result between appends %d and %d: %.300s", y, lo, hi, env.Result)
					return
				}
				answered.Add(1)
			}
		}(g)
	}
	for i, batch := range batches {
		started.Add(1)
		_, resp, raw := appendRows(t, ts.URL, "sales", batch)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("append %d status %d: %s", i, resp.StatusCode, raw)
		}
		done.Add(1)
		// Let a few answers come back from the new snapshot before the next
		// append supersedes it.
		for want := answered.Load() + 4; answered.Load() < want && len(errs) == 0; {
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	// Final state: every batch visible.
	if got, want := reg.Get("sales").Table().NumRows(), base.NumRows()+appends*perAppend; got != want {
		t.Fatalf("final rows = %d, want %d", got, want)
	}
}

// TestAppendAllocatesItsRowsNotTheTable guards the O(appended rows) property
// of the write path: once the first append has bought headroom, swapping in
// the successor of a 200 000-row snapshot allocates well under a megabyte —
// its footer, its tail segment, a new serving stack — where rebuilding the
// table would allocate 14 MB.
func TestAppendAllocatesItsRowsNotTheTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sales.zpack")
	big := workload.Sales(workload.SalesConfig{Rows: 200000, Products: 8, Years: 8, Cities: 4, Seed: 2})
	if err := zpack.Build(path, big); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if _, err := reg.AddZpack("sales", path, Config{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	batch := make([]dataset.Row, 256)
	for i := range batch {
		batch[i] = big.Row(i)
	}
	if _, err := reg.Append("sales", batch); err != nil { // outgrows the exact-size arrays
		t.Fatal(err)
	}
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		if _, err := reg.Append("sales", batch); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 1<<20 {
		t.Fatalf("a 256-row append to a 200000-row dataset allocates %d bytes, want under 1 MB", least)
	}
	t.Logf("a 256-row append to a 200000-row dataset allocates %d bytes", least)
}
