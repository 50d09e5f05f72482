package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/zpack"
)

// exactSalesTable is the merge fixture: multi-segment (12788 rows = 4
// segments), product clustered so zone maps prune whole fragments, and every
// measure integer-valued so partial-sum merging is exact and the responses
// of every fragment layout must be byte-identical. (workload.Sales has
// fractional measures, whose partial sums are not associative at the ULP:
// their bits follow the fragment boundaries, which the data fixes.)
func exactSalesTable() *dataset.Table {
	t := dataset.NewTable("sales", []dataset.Field{
		{Name: "product", Kind: dataset.KindString},
		{Name: "year", Kind: dataset.KindInt},
		{Name: "revenue", Kind: dataset.KindFloat},
	})
	const rows, products = 12788, 16
	for i := 0; i < rows; i++ {
		p := i * products / rows
		year := 2006 + i%10
		rev := 100 + (i*37+p*13)%900
		t.AppendRow(
			dataset.SV("product"+string(rune('a'+p%26))),
			dataset.IV(int64(year)),
			dataset.FV(float64(rev)),
		)
	}
	return t
}

const shardedZQL = `
NAME | X      | Y         | Z                 | PROCESS
f1   | 'year' | 'revenue' | v1 <- 'product'.* | v2 <- argmax(v1)[k=3] T(f1)
*f2  | 'year' | 'revenue' | v2                |`

const shardedFilterZQL = `
NAME | X      | Y         | Z
*f1  | 'year' | 'revenue' | 'product'.'producta'`

// smallFragments makes the stores built until the test ends cut their tables
// into fragments of n segments, so that a fixture of a few segments spans
// several (engine.SetFragmentSegments, the one test-only hook).
func smallFragments(t *testing.T, n int) {
	prev := engine.SetFragmentSegments(n)
	t.Cleanup(func() { engine.SetFragmentSegments(prev) })
}

// TestAnswersIndependentOfWidth is the determinism contract: a served answer
// depends on the file alone. The ledger's fixture — non-dyadic revenues, so
// float sums keep the bits of their summation order — is loaded through
// LoadCSV in fragments of two segments (six segments, three fragments: the
// production size needs 786 432 rows to span three, too slow under -race),
// at every Config.Shards and every scan width, and every ledger request gets
// the same answer: the response bytes but for the work counters, the wall
// clock and the SQL log (answerHash).
func TestAnswersIndependentOfWidth(t *testing.T) {
	smallFragments(t, 2)
	csvPath := filepath.Join(t.TempDir(), "sales.csv")
	writeCSV(t, csvPath, ledgerTable())
	script := ledgerScript()
	var want [][32]byte
	for _, shards := range []int{1, 2, 4} {
		for _, width := range []int{1, 2, 4} {
			reg := NewRegistry()
			d, err := reg.LoadCSV("sales", csvPath, Config{Shards: shards, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if d.Segments() != 6 {
				t.Fatalf("fixture has %d segments, want 6", d.Segments())
			}
			pinScanWorkers(d, width)
			srv := New(reg)
			for i, r := range script {
				body, err := json.Marshal(r.body)
				if err != nil {
					t.Fatal(err)
				}
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Fatalf("shards %d, width %d, #%d %s: status %d: %s", shards, width, i, r.path, rec.Code, rec.Body)
				}
				got := answerHash(t, rec.Body.Bytes())
				if len(want) < len(script) {
					want = append(want, got)
				} else if got != want[i] {
					t.Errorf("shards %d, width %d, #%d %s: answer differs from shards 1, width 1's", shards, width, i, r.path)
				}
			}
		}
	}
}

// TestShardedServerMatchesUnsharded serves the same exact-valued table in
// one fragment and in four and requires byte-identical query responses; no
// dataset reports a shard count on /datasets or a per-shard breakdown on
// /stats, and every one reports its scan pool.
func TestShardedServerMatchesUnsharded(t *testing.T) {
	newSrv := func() (*httptest.Server, *Registry) {
		reg := NewRegistry()
		if _, err := reg.AddTable(exactSalesTable(), Config{Backend: "column", Seed: 7}); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(New(reg))
		t.Cleanup(ts.Close)
		return ts, reg
	}
	plain, _ := newSrv()
	smallFragments(t, 1)
	split, reg := newSrv()

	for _, zql := range []string{shardedZQL, shardedFilterZQL} {
		want := postQuery(t, plain.URL+"/query", QueryRequest{Dataset: "sales", ZQL: zql})
		got := postQuery(t, split.URL+"/query", QueryRequest{Dataset: "sales", ZQL: zql})
		if !bytes.Equal(got.Result, want.Result) {
			t.Errorf("four fragments' result differs from one's:\nfour: %.200s\none:  %.200s", got.Result, want.Result)
		}
	}

	d := reg.Get("sales")
	if st := d.Stats(); st.Pool == nil || st.Pool.Capacity < 1 || st.RowsScanned == 0 {
		t.Errorf("/stats pool %+v over %d rows scanned, want a pool and a scan", st.Pool, st.RowsScanned)
	}
	for _, url := range []string{split.URL + "/datasets", split.URL + "/stats"} {
		resp, raw := get(t, url)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", url, resp.StatusCode)
		}
		if bytes.Contains(raw, []byte(`"shards"`)) {
			t.Errorf("%s reports shards: %.300s", url, raw)
		}
	}
}

// TestShardedZpackAppend covers the fragment-aware snapshot swap: a zpack
// dataset cut into several fragments accepts appends, the successor is cut
// again (appended rows land in the tail fragment), and post-append responses
// match a one-fragment server over the same extended file byte for byte.
func TestShardedZpackAppend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sales.zpack")
	if err := zpack.Build(path, exactSalesTable()); err != nil {
		t.Fatal(err)
	}
	smallFragments(t, 1)
	reg := NewRegistry()
	d, err := reg.AddZpack("sales", path, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg))
	t.Cleanup(ts.Close)

	before := postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: shardedFilterZQL})

	// 600 exact-valued rows for the filtered product: 12788 + 600 rows are
	// still 4 segments (the tail segment just grows), and the append must
	// invalidate the cached result.
	rows := make([][]any, 600)
	for i := range rows {
		rows[i] = []any{"producta", float64(2006 + i%10), float64(500 + i%100)}
	}
	out, resp, raw := appendRows(t, ts.URL, "sales", rows)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status %d: %s", resp.StatusCode, raw)
	}
	if out.Rows != 12788+600 {
		t.Fatalf("append response rows = %d", out.Rows)
	}
	if nd := reg.Get("sales"); nd == d {
		t.Fatal("append did not swap the dataset")
	}

	after := postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: shardedFilterZQL})
	if bytes.Equal(before.Result, after.Result) {
		t.Error("append did not change the filtered query result")
	}

	// Ground truth: a one-fragment server over the same extended file.
	engine.SetFragmentSegments(engine.FragmentSegments)
	preg := NewRegistry()
	if _, err := preg.AddZpack("sales", path, Config{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(New(preg))
	t.Cleanup(pts.Close)
	want := postQuery(t, pts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: shardedFilterZQL})
	if !bytes.Equal(after.Result, want.Result) {
		t.Errorf("post-append result over four fragments differs from one fragment's:\nfour: %.200s\none:  %.200s", after.Result, want.Result)
	}
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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
