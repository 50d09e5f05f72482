package zpack

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/minisql"
	"repro/internal/workload"
)

// execSQL parses, prepares and runs one statement as a single plan: the
// test shorthand for Plan.Execute over SQL text.
func execSQL(db engine.DB, sql string) (*engine.Result, error) {
	q, err := minisql.Parse(sql)
	if err != nil {
		return nil, err
	}
	p, err := db.Prepare(q)
	if err != nil {
		return nil, err
	}
	return p.Execute()
}

func testTable(rows int) *dataset.Table {
	return workload.Sales(workload.SalesConfig{Rows: rows, Products: 8, Years: 8, Cities: 4, Seed: 2})
}

func buildFile(t *testing.T, tb *dataset.Table) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), tb.Name+".zpack")
	if err := Build(path, tb); err != nil {
		t.Fatal(err)
	}
	return path
}

// assertTablesEqual compares every cell of two fully materialized tables.
func assertTablesEqual(t *testing.T, got, want *dataset.Table) {
	t.Helper()
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		t.Fatalf("shape = %dx%d, want %dx%d", got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for j, wc := range want.Columns() {
		gc := got.Columns()[j]
		if gc.Field != wc.Field {
			t.Fatalf("column %d field = %+v, want %+v", j, gc.Field, wc.Field)
		}
		for i := 0; i < want.NumRows(); i++ {
			if gv, wv := gc.Value(i), wc.Value(i); gv != wv {
				t.Fatalf("cell (%d, %s) = %v, want %v", i, wc.Field.Name, gv, wv)
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	tb := testTable(10000) // 3 segments, last partial
	r, err := Open(buildFile(t, tb))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Rows() != tb.NumRows() || r.NumSegments() != 3 {
		t.Fatalf("rows/segments = %d/%d, want %d/3", r.Rows(), r.NumSegments(), tb.NumRows())
	}
	if r.SegmentLoads() != 0 {
		t.Fatalf("open should load no segments, loaded %d", r.SegmentLoads())
	}
	if err := r.LoadAll(); err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, r.Table(), tb)
}

// TestRoundTripQueryIdentical pins the acceptance criterion at the engine
// level: SQL over a zpack-backed column store is byte-identical to the
// in-memory column store (and the zexec golden corpus extends this to full
// ZQL — see internal/zexec's golden test).
func TestRoundTripQueryIdentical(t *testing.T) {
	tb := testTable(10000)
	r, err := Open(buildFile(t, tb))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mem := engine.NewColumnStore(tb)
	packed := engine.NewColumnStoreFromSource(r)
	queries := []string{
		"SELECT year, SUM(revenue) AS s FROM sales GROUP BY year ORDER BY year",
		"SELECT product, COUNT(*) AS n FROM sales WHERE city = 'city_1' GROUP BY product",
		"SELECT year, AVG(profit) AS a FROM sales WHERE product IN ('product_1', 'product_3') GROUP BY year",
		"SELECT year, MIN(revenue) AS lo, MAX(revenue) AS hi FROM sales WHERE revenue >= 100 GROUP BY year",
		"SELECT product FROM sales WHERE revenue < 0 GROUP BY product",
	}
	for _, sql := range queries {
		want, err := execSQL(mem, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		got, err := execSQL(packed, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if fmt.Sprint(got.Cols, got.Rows()) != fmt.Sprint(want.Cols, want.Rows()) {
			t.Errorf("%s:\n got %v\nwant %v", sql, got.Rows(), want.Rows())
		}
	}
}

// TestLazySkippedSegmentsNeverLoaded is the acceptance criterion's counting
// assertion: a query whose zone maps prune segments must not read them from
// disk. The fixture is value-clustered so a range predicate isolates one
// segment.
func TestLazySkippedSegmentsNeverLoaded(t *testing.T) {
	tb := dataset.NewTable("clustered", []dataset.Field{
		{Name: "k", Kind: dataset.KindInt},
		{Name: "v", Kind: dataset.KindFloat},
	})
	const n = 5 * engine.SegmentSize
	for i := 0; i < n; i++ {
		tb.AppendRow(dataset.IV(int64(i)), dataset.FV(float64(i%100)))
	}
	r, err := Open(buildFile(t, tb))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	db := engine.NewColumnStoreFromSource(r)
	// k is clustered by construction: segment s holds [s*4096, (s+1)*4096).
	target := 2*engine.SegmentSize + 17
	res, err := execSQL(db, fmt.Sprintf("SELECT k, v FROM clustered WHERE k = %d", target))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Value(0, 0).Int() != int64(target) {
		t.Fatalf("unexpected result %+v", res.Rows())
	}
	if got := r.SegmentLoads(); got != 1 {
		t.Errorf("query over one segment loaded %d segments, want 1", got)
	}
	c := db.Counters()
	if c.SegmentsSkipped != 4 {
		t.Errorf("segments skipped = %d, want 4", c.SegmentsSkipped)
	}
	// A second query over an already-loaded segment must not reload it.
	if _, err := execSQL(db, fmt.Sprintf("SELECT v FROM clustered WHERE k = %d", target+1)); err != nil {
		t.Fatal(err)
	}
	if got := r.SegmentLoads(); got != 1 {
		t.Errorf("warm re-query reloaded: %d segment loads, want 1", got)
	}
}

func TestAppendAcrossSealBoundary(t *testing.T) {
	tb := testTable(10000)
	path := filepath.Join(t.TempDir(), "sales.zpack")
	// Write the first 6000 rows, close, reopen for append, add the rest in
	// two batches that cross a 4096 boundary.
	fields := make([]dataset.Field, tb.NumCols())
	for j, c := range tb.Columns() {
		fields[j] = c.Field
	}
	w, err := Create(path, tb.Name, fields)
	if err != nil {
		t.Fatal(err)
	}
	appendRange := func(w *Writer, lo, hi int) {
		t.Helper()
		rows := make([]dataset.Row, 0, hi-lo)
		for i := lo; i < hi; i++ {
			rows = append(rows, tb.Row(i))
		}
		if err := w.Append(rows); err != nil {
			t.Fatal(err)
		}
	}
	appendRange(w, 0, 6000)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, err = OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if w.Rows() != 6000 {
		t.Fatalf("reopened rows = %d, want 6000", w.Rows())
	}
	appendRange(w, 6000, 9000)
	if err := w.Flush(); err != nil { // commit mid-way, then keep appending
		t.Fatal(err)
	}
	appendRange(w, 9000, 10000)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.LoadAll(); err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, r.Table(), tb)
}

// TestAppendSnapshotConsistency pins the append-only contract: a reader open
// before an append keeps serving its committed snapshot (every offset it
// knows stays valid), while a Reopen sees the extended data.
func TestAppendSnapshotConsistency(t *testing.T) {
	tb := testTable(5000)
	path := buildFile(t, tb)
	old, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()

	w, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	extra := testTable(8000)
	rows := make([]dataset.Row, 0, 3000)
	for i := 5000; i < 8000; i++ {
		rows = append(rows, extra.Row(i))
	}
	if err := w.Append(rows); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The old snapshot still reads clean — including its tail segment, whose
	// blocks must not have been overwritten by the append.
	if err := old.LoadAll(); err != nil {
		t.Fatalf("pre-append reader broken after append: %v", err)
	}
	assertTablesEqual(t, old.Table(), tb)

	fresh, err := old.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Rows() != 8000 {
		t.Fatalf("reopened rows = %d, want 8000", fresh.Rows())
	}
	if err := fresh.LoadAll(); err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, fresh.Table(), extra)
}

func TestVerifyAndCorruption(t *testing.T) {
	tb := testTable(9000)
	path := buildFile(t, tb)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(); err != nil {
		t.Fatalf("fresh file failed verify: %v", err)
	}
	r.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(t *testing.T, mutate func(b []byte) []byte, wantSubstr string) {
		t.Helper()
		p := filepath.Join(t.TempDir(), "corrupt.zpack")
		if err := os.WriteFile(p, mutate(append([]byte(nil), raw...)), 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(p)
		if err == nil {
			err = r.Verify()
			if le := r.LoadAll(); err == nil {
				err = le
			}
			r.Close()
		}
		if err == nil {
			t.Fatalf("corrupted file opened, verified, and loaded clean")
		}
		if !strings.Contains(err.Error(), wantSubstr) {
			t.Errorf("error %q does not mention %q", err, wantSubstr)
		}
	}
	t.Run("truncated footer", func(t *testing.T) {
		corrupt(t, func(b []byte) []byte { return b[:len(b)-100] }, "zpack")
	})
	t.Run("truncated to nothing", func(t *testing.T) {
		corrupt(t, func(b []byte) []byte { return b[:10] }, "too short")
	})
	t.Run("bad header magic", func(t *testing.T) {
		corrupt(t, func(b []byte) []byte { b[0] = 'X'; return b }, "not a zpack file")
	})
	t.Run("wrong version", func(t *testing.T) {
		corrupt(t, func(b []byte) []byte { b[4] = 99; return b }, "unsupported format version")
	})
	t.Run("bad trailer magic", func(t *testing.T) {
		corrupt(t, func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }, "trailer magic")
	})
	t.Run("footer checksum", func(t *testing.T) {
		// Flip a byte inside the footer (just before the trailer).
		corrupt(t, func(b []byte) []byte { b[len(b)-trailerSize-5] ^= 0xff; return b }, "checksum mismatch")
	})
	t.Run("block checksum", func(t *testing.T) {
		// Flip a data byte just after the header: the first block.
		corrupt(t, func(b []byte) []byte { b[headerSize+3] ^= 0xff; return b }, "checksum mismatch")
	})
}

// TestDeterministicBytes pins byte-for-byte reproducible output for the same
// input — the property the committed golden fixtures depend on — and that the
// committed v2 fixture is what Build writes from its CSV source.
func TestDeterministicBytes(t *testing.T) {
	tb := testTable(9000)
	a, err := os.ReadFile(buildFile(t, tb))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(buildFile(t, testTable(9000)))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("two builds of the same table produced different bytes")
	}
	src, err := dataset.ReadCSVFile("fixture", filepath.Join("testdata", "fixture.csv"))
	if err != nil {
		t.Fatal(err)
	}
	built, err := os.ReadFile(buildFile(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if string(built) != string(readFixture(t, "fixture_v2.zpack")) {
		t.Fatal("Build of testdata/fixture.csv no longer writes testdata/fixture_v2.zpack")
	}
}

func TestEmptyDataset(t *testing.T) {
	tb := dataset.NewTable("empty", []dataset.Field{
		{Name: "a", Kind: dataset.KindString},
		{Name: "b", Kind: dataset.KindFloat},
	})
	r, err := Open(buildFile(t, tb))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Rows() != 0 || r.NumSegments() != 0 {
		t.Fatalf("rows/segments = %d/%d, want 0/0", r.Rows(), r.NumSegments())
	}
	db := engine.NewColumnStoreFromSource(r)
	res, err := execSQL(db, "SELECT a, COUNT(*) AS n FROM empty GROUP BY a")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("rows = %+v", res.Rows())
	}
}

// TestGoldenFixtureBackwardReadable is the upgrade test: the committed v1
// fixture keeps opening, verifying and matching its committed CSV source in
// every future build of this package; it refuses appends, naming the upgrade;
// and its table, written again the way compaction writes it, is a v2 file
// that holds the same cells and answers the same queries.
func TestGoldenFixtureBackwardReadable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fixture_v1.zpack")
	if err := os.WriteFile(path, readFixture(t, "fixture_v1.zpack"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatalf("committed v1 fixture no longer opens: %v", err)
	}
	defer r.Close()
	if err := r.Verify(); err != nil {
		t.Fatalf("committed v1 fixture no longer verifies: %v", err)
	}
	want, err := dataset.ReadCSVFile("fixture", filepath.Join("testdata", "fixture.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.LoadAll(); err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, r.Table(), want)
	if _, err := OpenAppend(path); err == nil || !strings.Contains(err.Error(), "zpack compact "+path) {
		t.Fatalf("append to a v1 file: %v; want the upgrade named", err)
	}

	up := filepath.Join(t.TempDir(), "fixture.zpack")
	all := make([]int, r.Rows())
	for i := range all {
		all[i] = i
	}
	if err := Build(up, r.Table().Gather(all)); err != nil {
		t.Fatal(err)
	}
	u, err := Open(up)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if r.Version() != 1 || u.Version() != Version {
		t.Fatalf("versions %d -> %d, want 1 -> %d", r.Version(), u.Version(), Version)
	}
	if err := u.LoadAll(); err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, u.Table(), want)
	before, after := engine.NewColumnStoreFromSource(r), engine.NewColumnStoreFromSource(u)
	for _, sql := range []string{
		"SELECT region, SUM(revenue) AS s FROM fixture GROUP BY region ORDER BY region",
		"SELECT year, COUNT(*) AS n, MAX(units) AS m FROM fixture WHERE region = 'north' GROUP BY year ORDER BY year",
		"SELECT units FROM fixture WHERE year >= 2017 AND units < 30 GROUP BY units ORDER BY units",
	} {
		b, err := execSQL(before, sql)
		if err != nil {
			t.Fatal(err)
		}
		a, err := execSQL(after, sql)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(a.Cols, a.Rows()) != fmt.Sprint(b.Cols, b.Rows()) || b.Len() == 0 {
			t.Errorf("%s:\n v2 %v\n v1 %v", sql, a.Rows(), b.Rows())
		}
	}
}

// fragmentStore is the column store over r cut into n even fragments.
func fragmentStore(r *Reader, n int) *engine.ColumnStore {
	var cuts []int
	for i := 1; i < n; i++ {
		cuts = append(cuts, i*r.NumSegments()/n)
	}
	return engine.NewColumnStoreAt(r, cuts...)
}

// TestShardedReaderRangeViews pins the footer-index fragment contract: a
// zpack file is cut into contiguous fragments of the same reader without
// rewriting a byte, zone-map pruning composes with fragments (a pruned
// fragment's segments are never read from disk), and the gathered result
// equals the in-memory store's.
func TestShardedReaderRangeViews(t *testing.T) {
	tb := dataset.NewTable("clustered", []dataset.Field{
		{Name: "k", Kind: dataset.KindInt},
		{Name: "v", Kind: dataset.KindFloat},
	})
	const n = 5 * engine.SegmentSize
	for i := 0; i < n; i++ {
		tb.AppendRow(dataset.IV(int64(i)), dataset.FV(float64(i%100)))
	}
	r, err := Open(buildFile(t, tb))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// 5 segments in 3 fragments: [0,1), [1,3), [3,5).
	db := fragmentStore(r, 3)
	mem := engine.NewColumnStore(tb)
	target := 2*engine.SegmentSize + 17
	sql := fmt.Sprintf("SELECT k, v FROM clustered WHERE k = %d", target)
	want, err := execSQL(mem, sql)
	if err != nil {
		t.Fatal(err)
	}
	got, err := execSQL(db, sql)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Cols, got.Rows()) != fmt.Sprint(want.Cols, want.Rows()) {
		t.Errorf("fragmented zpack result:\n got %v\nwant %v", got.Rows(), want.Rows())
	}
	// The target row lives in segment 2, in fragment 1: exactly one segment
	// crosses the disk.
	if loads := r.SegmentLoads(); loads != 1 {
		t.Errorf("fragmented point query loaded %d segments, want 1", loads)
	}
	if loads := db.Stats("clustered").SegmentLoads; loads != 1 {
		t.Errorf("the store counts %d segment loads, want 1", loads)
	}
	// COUNT(*) reads no column: its full scan visits every segment and reads
	// no block.
	if _, err := execSQL(db, "SELECT COUNT(*) AS c FROM clustered"); err != nil {
		t.Fatal(err)
	}
	if loads := r.SegmentLoads(); loads != 1 {
		t.Errorf("COUNT(*) loaded %d segments, want still 1", loads)
	}
	// A full scan of a column loads the rest, each segment exactly once
	// despite the fragment fan-out.
	if _, err := execSQL(db, "SELECT SUM(v) AS c FROM clustered"); err != nil {
		t.Fatal(err)
	}
	if loads := r.SegmentLoads(); loads != 5 {
		t.Errorf("full scan loaded %d segments, want 5", loads)
	}
}
