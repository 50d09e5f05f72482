package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/zpack"
)

// exactSalesTable is the sharding fixture: multi-segment (12788 rows = 4
// segments), product clustered so zone maps prune whole shards, and every
// measure integer-valued so partial-sum merging is exact and sharded
// responses must be byte-identical to unsharded ones. (workload.Sales has
// fractional measures, whose partial sums are not associative at the ULP —
// fine for serving, wrong for a byte-identity differential.)
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

// TestShardedServerMatchesUnsharded serves the same table sharded and
// unsharded and requires byte-identical query responses, plus the new
// observability: per-shard totals on /stats and the shard count on
// /datasets.
func TestShardedServerMatchesUnsharded(t *testing.T) {
	newSrv := func(shards int) (*httptest.Server, *Registry) {
		reg := NewRegistry()
		if _, err := reg.AddTable(exactSalesTable(), Config{Backend: "column", Shards: shards, Seed: 7}); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(New(reg))
		t.Cleanup(ts.Close)
		return ts, reg
	}
	plain, _ := newSrv(0)
	sharded, reg := newSrv(3)

	for _, zql := range []string{shardedZQL, shardedFilterZQL} {
		want := postQuery(t, plain.URL+"/query", QueryRequest{Dataset: "sales", ZQL: zql})
		got := postQuery(t, sharded.URL+"/query", QueryRequest{Dataset: "sales", ZQL: zql})
		if !bytes.Equal(got.Result, want.Result) {
			t.Errorf("sharded result differs from unsharded:\nsharded:   %.200s\nunsharded: %.200s", got.Result, want.Result)
		}
	}

	d := reg.Get("sales")
	if d.ShardCount() != 3 {
		t.Fatalf("ShardCount = %d, want 3", d.ShardCount())
	}
	st := d.Stats()
	if len(st.Shards) != 3 {
		t.Fatalf("/stats shards = %d entries, want 3", len(st.Shards))
	}
	var segs int
	var rows, skipped int64
	for _, sc := range st.Shards {
		segs += sc.Segments
		rows += sc.RowsScanned
		skipped += sc.SegmentsSkipped
	}
	if segs != d.Segments() {
		t.Errorf("shard segments sum to %d, dataset has %d", segs, d.Segments())
	}
	if rows != st.RowsScanned || skipped != st.SegmentsSkipped {
		t.Errorf("shard totals (%d rows, %d skipped) disagree with store counters (%d, %d)",
			rows, skipped, st.RowsScanned, st.SegmentsSkipped)
	}

	// Unsharded datasets must not grow a shards array or count.
	preg := NewRegistry()
	if _, err := preg.AddTable(exactSalesTable(), Config{Backend: "column", Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if pd := preg.Get("sales"); pd.ShardCount() != 0 || pd.Stats().Shards != nil {
		t.Errorf("unsharded dataset reports shards: count=%d stats=%v", pd.ShardCount(), pd.Stats().Shards)
	}

	// /datasets carries the shard count.
	resp, raw := get(t, sharded.URL+"/datasets")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("datasets status %d", resp.StatusCode)
	}
	var listing struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	if err := json.Unmarshal(raw, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Datasets) != 1 || listing.Datasets[0].Shards != 3 {
		t.Errorf("datasets listing = %+v, want shards 3", listing.Datasets)
	}
}

// TestShardedZpackAppend covers the shard-aware snapshot swap: a sharded
// zpack dataset accepts appends, the successor is re-split (appended
// segments land in the tail shard's range), and post-append responses match
// an unsharded server over the same extended file byte for byte.
func TestShardedZpackAppend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sales.zpack")
	if err := zpack.Build(path, exactSalesTable()); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	d, err := reg.AddZpack("sales", path, Config{Shards: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if d.ShardCount() != 3 {
		t.Fatalf("zpack ShardCount = %d, want 3", d.ShardCount())
	}
	ts := httptest.NewServer(New(reg))
	t.Cleanup(ts.Close)

	before := postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: shardedFilterZQL})

	// 600 exact-valued rows for the filtered product: crosses into a new
	// tail segment (12788 + 600 = 13388 -> still 4 segments? 4*4096 = 16384;
	// the tail segment just grows) and must invalidate the cached result.
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
	nd := reg.Get("sales")
	if nd == d {
		t.Fatal("append did not swap the dataset")
	}
	if nd.ShardCount() != 3 {
		t.Errorf("successor ShardCount = %d, want 3 (config survives the swap)", nd.ShardCount())
	}

	after := postQuery(t, ts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: shardedFilterZQL})
	if bytes.Equal(before.Result, after.Result) {
		t.Error("append did not change the filtered query result")
	}

	// Ground truth: an unsharded server over the same extended file.
	preg := NewRegistry()
	if _, err := preg.AddZpack("sales", path, Config{Shards: 1, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(New(preg))
	t.Cleanup(pts.Close)
	want := postQuery(t, pts.URL+"/query", QueryRequest{Dataset: "sales", ZQL: shardedFilterZQL})
	if !bytes.Equal(after.Result, want.Result) {
		t.Errorf("post-append sharded result differs from unsharded reader:\nsharded:   %.200s\nunsharded: %.200s", after.Result, want.Result)
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
