package zpack

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
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

// TestScanReadsOnlyItsColumns: Load reads the blocks of the columns asked
// for and no others — the rest of the scratch is left as it was — and a scan
// asks for the columns its query reads: with every block of a column no query
// reads damaged on disk, the queries still answer, while one that reads it
// fails on each attempt.
func TestScanReadsOnlyItsColumns(t *testing.T) {
	tb := testTable(10000) // 3 segments, last partial
	path := buildFile(t, tb)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	yr := columnsOf(t, r, "year", "revenue")
	cols := engine.NewColumnSet(tb.NumCols(), yr...)
	var seg *dataset.Table
	for s := 0; s < r.NumSegments(); s++ {
		if seg, err = r.Load(s, engine.AllColumns(tb.NumCols()), seg); err != nil {
			t.Fatal(err)
		}
		for _, c := range seg.Columns() { // what no read may touch
			b, _ := arrayBytes(c)
			for i := range b {
				b[i] = 0xa5
			}
		}
		if seg, err = r.Load(s, cols, seg); err != nil {
			t.Fatal(err)
		}
		lo := s * engine.SegmentSize
		for j, c := range seg.Columns() {
			b, _ := arrayBytes(c)
			if !cols.Has(j) {
				if b[0] != 0xa5 || b[len(b)-1] != 0xa5 {
					t.Fatalf("segment %d: column %s was read, not asked for", s, c.Field.Name)
				}
				continue
			}
			for i := 0; i < r.SegmentRows(s); i++ {
				if got, want := c.Value(i), tb.Columns()[j].Value(lo+i); got != want {
					t.Fatalf("segment %d column %s row %d: %v, want %v", s, c.Field.Name, i, got, want)
				}
			}
		}
	}
	if got, want := r.SegmentLoads(), int64(2*r.NumSegments()); got != want {
		t.Fatalf("%d segment loads, want %d", got, want)
	}

	// Damage every city block: only a query that reads city meets it.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cj := columnsOf(t, r, "city")[0]
	for _, seg := range r.foot.segs {
		raw[seg.blocks[cj].off] ^= 0xff
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	mem, packed := engine.NewColumnStore(tb), engine.NewColumnStoreFromSource(r)
	sql := "SELECT year, product, COUNT(*) AS n, MAX(revenue) AS m FROM sales GROUP BY year, product"
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
	for attempt := 0; attempt < 2; attempt++ {
		if _, err := execSQL(packed, "SELECT city, COUNT(*) AS n FROM sales GROUP BY city"); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("attempt %d: a scan of the damaged city blocks: %v", attempt, err)
		}
	}
	if r.Verify() == nil {
		t.Fatal("verify passed over damaged city blocks")
	}
}

// TestConcurrentColumnLoads: scans of one snapshot and of its successor read
// different column subsets of the same segments at once, each into a scratch
// of its own, and every scratch holds the file's rows: the race detector sees
// no shared write, since a Reader keeps nothing a Load writes.
func TestConcurrentColumnLoads(t *testing.T) {
	tb := testTable(3*engine.SegmentSize + 100)
	path := buildFile(t, tb)
	r1, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]dataset.Row{tb.Row(0)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := r1.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()

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
			var seg *dataset.Table
			for s := 0; s < r.NumSegments(); s++ {
				var err error
				if seg, err = r.Load(s, cols, seg); err != nil {
					t.Error(err)
					return
				}
				lo := s * engine.SegmentSize
				for j, c := range seg.Columns() {
					for i := 0; cols.Has(j) && i < r.SegmentRows(s); i++ {
						want := dataset.Value{}
						if lo+i < tb.NumRows() {
							want = tb.Columns()[j].Value(lo + i)
						} else {
							want = tb.Columns()[j].Value(0) // the appended row
						}
						if got := c.Value(i); got != want {
							t.Errorf("segment %d column %s row %d: %v, want %v", s, c.Field.Name, i, got, want)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
