package server

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"repro/internal/minisql"
	"repro/internal/workload"
	"repro/internal/zpack"
)

// residentBytes returns this process's resident set, from /proc/self/statm,
// after a collection that hands the freed heap back to the OS.
func residentBytes(t *testing.T) int64 {
	t.Helper()
	debug.FreeOSMemory()
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Fatal(err)
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		t.Fatalf("/proc/self/statm: %q", b)
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return pages * int64(os.Getpagesize())
}

// buildSales writes a 1 M-row sales table to a .zpack under dir and drops
// the table.
//
//go:noinline
func buildSales(t *testing.T, dir string) string {
	path := filepath.Join(dir, "sales.zpack")
	if err := zpack.Build(path, workload.Sales(workload.SalesConfig{Rows: 1_000_000, Products: 500, Years: 20, Cities: 50, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestServedScansKeepNoBlock: a served .zpack dataset whose queries scan
// every block of every segment — over 32 MB of them — holds none of them
// afterwards: the process's resident set grows by less than a quarter of
// the block bytes scanned. Each scan reads a segment into its own scratch
// and drops it; the file's pages are the kernel's page cache's, which the
// resident set does not count.
func TestServedScansKeepNoBlock(t *testing.T) {
	path := buildSales(t, t.TempDir())
	reg := NewRegistry()
	d, err := reg.AddZpack("sales", path, Config{CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	before := residentBytes(t)
	var scanned int64
	tb := d.Table()
	for _, q := range []struct {
		sql  string
		cols []string
	}{
		{"SELECT product, SUM(revenue) AS s FROM sales GROUP BY product", []string{"product", "revenue"}},
		{"SELECT city, SUM(size) AS s, MAX(weight) AS w FROM sales GROUP BY city", []string{"city", "size", "weight"}},
		{"SELECT year, month, AVG(profit) AS p FROM sales GROUP BY year, month", []string{"year", "month", "profit"}},
		{"SELECT category, country, COUNT(*) AS n FROM sales GROUP BY category, country", []string{"category", "country"}},
	} {
		parsed, err := minisql.Parse(q.sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := d.store.Prepare(parsed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Execute(); err != nil {
			t.Fatal(err)
		}
		for _, name := range q.cols {
			width := 8
			if c := tb.Column(name); c.Coded() {
				width = c.Codes().Width()
			}
			scanned += int64(tb.NumRows() * width)
		}
	}
	if st := d.Stats(); st.SegmentsScanned != 4*int64(d.Segments()) {
		t.Fatalf("%d segments scanned, want every one of %d by each of 4 queries", st.SegmentsScanned, d.Segments())
	}
	grown := residentBytes(t) - before
	t.Logf("scanned %d block bytes; the resident set grew %d bytes", scanned, grown)
	if scanned < 32<<20 {
		t.Fatalf("the queries scanned %d block bytes, want at least 32 MB", scanned)
	}
	if grown >= scanned/4 {
		t.Errorf("the resident set grew %d bytes over scans of %d block bytes, want less than a quarter", grown, scanned)
	}
	runtime.KeepAlive(reg)
}
