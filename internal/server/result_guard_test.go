package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/minisql"
	"repro/internal/workload"
)

// guardSales is the benchmark's shape at a fifth of its rows: 500 products by
// 20 years, so one (product, year, SUM) result has 10 000 groups.
func guardSales() workload.SalesConfig {
	return workload.SalesConfig{Rows: 200000, Products: 500, Years: 20, Cities: 50, Seed: 1}
}

// TestResultSizeGuard pins what a cached result costs: a 10 000-group
// (string, int, SUM) result is at most 32 bytes a row, and a 256-entry cache
// whose main queue is filled with them keeps at least as many as its row
// budget did, in at most 7 MB of live heap.
func TestResultSizeGuard(t *testing.T) {
	reg := NewRegistry()
	ds, err := reg.AddTable(workload.Sales(guardSales()), Config{Backend: "auto", CacheEntries: 256})
	if err != nil {
		t.Fatal(err)
	}
	q, err := minisql.Parse("SELECT product, year, SUM(revenue) AS s FROM sales GROUP BY product, year ORDER BY product, year")
	if err != nil {
		t.Fatal(err)
	}
	p, err := ds.store.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 10000 {
		t.Fatalf("%d groups, want 10000", res.Len())
	}
	if per := float64(res.SizeBytes()) / float64(res.Len()); per > 32 {
		t.Errorf("result costs %.1f B/row, want <= 32", per)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 256; i++ {
		r, err := p.Execute()
		if err != nil {
			t.Fatal(err)
		}
		putHit(t, ds.cache, fmt.Sprint("q", i), r) // a hit moves it to main
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	// The row budget this replaced held 256*1024 rows: 26 of these results.
	if st := ds.cache.Stats(); st.Entries < 26 || st.Bytes > 256*cacheBytesPerEntry {
		t.Errorf("a full cache holds %d results in %d bytes, want >= 26 within %d", st.Entries, st.Bytes, 256*cacheBytesPerEntry)
	}
	if grown := float64(after.HeapAlloc) - float64(before.HeapAlloc); grown > 7<<20 {
		t.Errorf("a full 256-entry cache holds %.1f MB of heap, want <= 7", grown/(1<<20))
	}
}

// TestSpecAllocGuard pins what a request that scans nothing costs: one
// 500-slice similarity /spec task whose two statements are cache hits
// allocated 5.4 MB in 43 200 objects while results were boxed rows and find a
// linear scan, and allocates 3.2 MB in 26 400 now. What remains is outside
// the result path: vis.Distance's per-call vectors and x-domain map (1.0 MB),
// one assignment map per unit and per loop tuple (1.0 MB), and the points
// slab itself (0.5 MB).
func TestSpecAllocGuard(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.AddTable(workload.Sales(guardSales()), Config{Backend: "auto", CacheEntries: 256}); err != nil {
		t.Fatal(err)
	}
	srv := New(reg)
	drawn := make([]float64, 20)
	for i := range drawn {
		drawn[i] = float64(i)
	}
	body, err := json.Marshal(SpecRequest{Dataset: "sales", Spec: SpecJSON{
		X: "year", Y: "revenue", Z: "product", Task: "similar", K: 10, Drawn: drawn}})
	if err != nil {
		t.Fatal(err)
	}
	post := func() {
		req := httptest.NewRequest(http.MethodPost, "/spec", bytes.NewReader(body)).WithContext(context.Background())
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	post() // fills the cache
	post()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		post()
	}
	runtime.ReadMemStats(&after)
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / runs
	objsPer := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("one warm similarity /spec: %.0f kB in %.0f objects", bytesPer/1000, objsPer)
	if bytesPer > 3.6e6 || objsPer > 30000 {
		t.Errorf("one warm similarity /spec allocates %.0f kB in %.0f objects, want < 3600 kB in < 30000", bytesPer/1000, objsPer)
	}
}

// TestTableSizeGuard pins what a loaded dataset costs: the benchmark's sales
// schema from CSV — four categorical columns, four integer ones with few
// distinct values, two floats — packs into at most 28 bytes a row (80 when
// every code was an int32 and every integer an int64 with an int32 copy
// beside it), and registering it leaves little more than that live: the zone
// maps, the dictionaries' indexes, the caches' empty shells.
func TestTableSizeGuard(t *testing.T) {
	cfg := guardSales()
	path := filepath.Join(t.TempDir(), "sales.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(workload.Sales(cfg), f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	reg := NewRegistry()
	ds, err := reg.LoadCSV("sales", path, Config{Backend: "auto", CacheEntries: 256})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	size := ds.Table().SizeBytes()
	if per := float64(size) / float64(cfg.Rows); per > 28 {
		t.Errorf("the table holds %.1f B/row, want <= 28", per)
	}
	grown := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	t.Logf("table %d bytes (%.1f B/row), heap grew %.0f", size, float64(size)/float64(cfg.Rows), grown)
	if grown > 1.15*float64(size) {
		t.Errorf("loading left %.0f bytes live, want <= 1.15x the table's %d", grown, size)
	}
	runtime.KeepAlive(reg)
}
