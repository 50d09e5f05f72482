package zpack

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// columnsOf returns the ordinals of the named columns of r's table.
func columnsOf(t *testing.T, r *Reader, names ...string) []int {
	t.Helper()
	var out []int
	for _, name := range names {
		found := false
		for j, c := range r.Table().Columns() {
			if c.Field.Name == name {
				out, found = append(out, j), true
			}
		}
		if !found {
			t.Fatalf("no column %q", name)
		}
	}
	return out
}

// TestScanReadsOnlyItsColumns: a scan reads the blocks of the columns its
// query reads and no others, and a later scan of other columns reads only
// the blocks still missing — the ones in place are not read again, which a
// block damaged on disk after the first scan proves.
func TestScanReadsOnlyItsColumns(t *testing.T) {
	tb := testTable(10000) // 3 segments, last partial
	path := buildFile(t, tb)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mem := engine.NewColumnStore(tb)
	packed := engine.NewColumnStoreFromSource(r)
	check := func(sql string) {
		t.Helper()
		want, err := execSQL(mem, sql)
		if err != nil {
			t.Fatal(err)
		}
		got, err := execSQL(packed, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if fmt.Sprint(got.Cols, got.Rows()) != fmt.Sprint(want.Cols, want.Rows()) {
			t.Fatalf("%s:\n got %v\nwant %v", sql, got.Rows(), want.Rows())
		}
	}
	inPlace := func(names ...string) {
		t.Helper()
		want := uint64(0)
		for _, j := range columnsOf(t, r, names...) {
			want |= 1 << j
		}
		for s, bits := range loadedCols(r) {
			if bits != want {
				t.Fatalf("segment %d has columns %010b in place, want %010b (%v)", s, bits, want, names)
			}
		}
	}

	check("SELECT year, SUM(revenue) AS s FROM sales GROUP BY year ORDER BY year")
	inPlace("year", "revenue")
	year := r.Table().Column("year")
	if got, want := r.ResidentBytes(), int64(tb.NumRows()*(year.Codes().Width()+8)); got != want {
		t.Fatalf("resident %d bytes after a year/revenue scan, want %d", got, want)
	}
	if r.ResidentBytes() >= r.Table().SizeBytes() {
		t.Fatalf("resident %d bytes, table %d", r.ResidentBytes(), r.Table().SizeBytes())
	}

	// Damage every year block: the next scan reads year again only if it
	// takes its blocks from disk.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	yj := columnsOf(t, r, "year")[0]
	for _, seg := range r.foot.segs {
		raw[seg.blocks[yj].off] ^= 0xff
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	check("SELECT year, product, COUNT(*) AS n, MAX(revenue) AS m FROM sales WHERE city = 'city001' GROUP BY year, product")
	inPlace("year", "revenue", "product", "city")
	if got := r.SegmentLoads(); got != int64(r.NumSegments()) {
		t.Fatalf("%d segment loads, want %d", got, r.NumSegments())
	}
	if r.Verify() == nil {
		t.Fatal("verify passed over damaged year blocks")
	}
	fresh, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := execSQL(engine.NewColumnStoreFromSource(fresh), "SELECT year, COUNT(*) AS n FROM sales GROUP BY year"); err == nil {
		t.Fatal("a cold reader scanned the damaged year blocks without error")
	}
}

// TestConcurrentColumnLoads: scans of one snapshot and of its aliased
// successor load different column subsets of the same segments at once, and
// the race detector sees one writer per block. Every block those scans put
// in place stays in place: with the file's copies of them damaged
// afterwards, both snapshots still load everything else.
func TestConcurrentColumnLoads(t *testing.T) {
	tb := testTable(3*engine.SegmentSize + 100)
	path := buildFile(t, tb)
	appendRow := func(i int) {
		t.Helper()
		w, err := OpenAppend(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append([]dataset.Row{tb.Row(i)}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	r0, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	appendRow(0)
	r1, err := r0.Reopen() // outgrows the exact-size arrays: reallocates
	if err != nil {
		t.Fatal(err)
	}
	appendRow(1)
	r2, err := r1.Reopen() // inside r1's headroom: the full segments' states are shared
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	ref, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.LoadAll(); err != nil {
		t.Fatal(err)
	}

	const full = 3
	ncols := tb.NumCols()
	rng := rand.New(rand.NewSource(5))
	var wg sync.WaitGroup
	for g := 0; g < 2*ncols+6; g++ {
		r := []*Reader{r1, r2}[g%2]
		cols := randomCols(rng, ncols)
		if g < 2*ncols {
			cols = engine.NewColumnSet(ncols, g/2) // each column from both snapshots
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < full; s++ {
				if err := r.Load(s, cols); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < full; s++ {
		if !allLoaded(r2, s) {
			t.Fatalf("segment %d not fully loaded", s)
		}
		for _, b := range r2.foot.segs[s].blocks {
			raw[b.off] ^= 0xff
		}
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r2.LoadAll(); err != nil {
		t.Fatalf("loading the tail read a block already in place: %v", err)
	}
	if err := r1.LoadAll(); err != nil {
		t.Fatal(err)
	}
	assertSameStorage(t, r2, ref)
	assertPrefixEqual(t, r1.Table(), ref.Table())
	if r2.Verify() == nil {
		t.Fatal("verify passed over damaged blocks")
	}
}
