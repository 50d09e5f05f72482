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
	"slices"
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

// warmSpecAllocs registers the guard's sales table, posts spec twice — the
// second time its statements are all cache hits — and returns what one more
// post allocates, in bytes and objects: the mean over 20 posts, so an
// allocation that only some posts make still counts, and of 5 such means the
// median, since where one garbage collection falls moves a mean in ~20 kB
// steps between runs of the same code.
func warmSpecAllocs(t *testing.T, spec SpecJSON) (bytesPer, objsPer float64) {
	t.Helper()
	reg := NewRegistry()
	if _, err := reg.AddTable(workload.Sales(guardSales()), Config{Backend: "auto", CacheEntries: 256}); err != nil {
		t.Fatal(err)
	}
	srv := New(reg)
	body, err := json.Marshal(SpecRequest{Dataset: "sales", Spec: spec})
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
	const posts, means = 20, 5
	var bytesMeans, objsMeans []float64
	for range means {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range posts {
			post()
		}
		runtime.ReadMemStats(&after)
		bytesMeans = append(bytesMeans, float64(after.TotalAlloc-before.TotalAlloc)/posts)
		objsMeans = append(objsMeans, float64(after.Mallocs-before.Mallocs)/posts)
	}
	slices.Sort(bytesMeans)
	slices.Sort(objsMeans)
	return bytesMeans[means/2], objsMeans[means/2]
}

// raceEnabled is set in race builds (race_test.go).
var raceEnabled bool

// checkWarmAllocs fails t when one warm post allocates more than maxBytes or
// maxObjs. A race build is held to raceMaxBytes instead of maxBytes: its
// sync.Pool drops a share of what is put back at random, so encoding/json
// allocates its buffers again on some posts.
func checkWarmAllocs(t *testing.T, what string, bytesPer, objsPer, maxBytes, raceMaxBytes, maxObjs float64) {
	t.Helper()
	t.Logf("one warm %s: %.0f kB in %.0f objects", what, bytesPer/1000, objsPer)
	if raceEnabled {
		maxBytes = raceMaxBytes
	}
	if bytesPer > maxBytes || objsPer > maxObjs {
		t.Errorf("one warm %s allocates %.0f kB in %.0f objects, want < %.0f kB in < %.0f", what, bytesPer/1000, objsPer, maxBytes/1000, maxObjs)
	}
}

// TestSpecAllocGuard pins what a request that scans nothing costs: one
// 500-slice similarity /spec task whose two statements are cache hits. It
// allocated 5.4 MB in 43 200 objects while results were boxed rows and find a
// linear scan, and 3.2 MB in 26 400 while every loop tuple was a map and
// every distance call allocated its vectors. Now it is about 1.2 MB in 1 200,
// most of it the points slab and the response. A race build keeps the
// previous bound, 3.6 MB.
func TestSpecAllocGuard(t *testing.T) {
	drawn := make([]float64, 20)
	for i := range drawn {
		drawn[i] = float64(i)
	}
	bytesPer, objsPer := warmSpecAllocs(t, SpecJSON{X: "year", Y: "revenue", Z: "product", Task: "similar", K: 10, Drawn: drawn})
	checkWarmAllocs(t, "similarity /spec", bytesPer, objsPer, 1.5e6, 3.6e6, 12000)
}

// TestDrillAllocGuard pins what a drill-down answered from the cache costs:
// a category filter, a year range, one line per product. It allocated 1395 kB
// in 13 590 objects while every unit's assignment was a map; the bounds are
// 0.65x those, and 1.5x the bytes in a race build.
func TestDrillAllocGuard(t *testing.T) {
	bytesPer, objsPer := warmSpecAllocs(t, SpecJSON{X: "year", Y: "revenue", Z: "product", Filters: []FilterJSON{
		{Attr: "category", Op: "=", Value: "category3"},
		{Attr: "year", Op: ">=", Value: "2010"},
		{Attr: "year", Op: "<=", Value: "2019"},
	}})
	checkWarmAllocs(t, "drill-down /spec", bytesPer, objsPer, 0.65*1395e3, 1.5*1395e3, 0.65*13590)
}

// TestTableSizeGuard pins what a loaded dataset costs: the benchmark's sales
// schema from CSV — four categorical columns, four integer ones with few
// distinct values, two floats — packs into at most 28 bytes a row (80 when
// every code was an int32 and every integer an int64 with an int32 copy
// beside it), and registering it leaves little live on the Go heap, where the
// arrays are not: the zone maps, the dictionaries and their indexes, the
// caches' empty shells.
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
	if grown > 0.15*float64(size) {
		t.Errorf("loading left %.0f bytes live on the Go heap, want <= 0.15x the table's %d", grown, size)
	}
	runtime.KeepAlive(reg)
}
