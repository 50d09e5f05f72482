package engine

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
)

// clusteredTable builds a table whose rows arrive ordered by a "day" column
// (the natural load order of telemetry-style data), so day values cluster
// into segments and zone maps can prove most segments empty for selective
// predicates. The row count is deliberately not a multiple of segmentSize to
// exercise the partial last segment.
func clusteredTable(rows int) *dataset.Table {
	t := dataset.NewTable("events", []dataset.Field{
		{Name: "region", Kind: dataset.KindString},
		{Name: "day", Kind: dataset.KindInt},
		{Name: "value", Kind: dataset.KindFloat},
	})
	regions := []string{"us", "eu", "ap"}
	for i := 0; i < rows; i++ {
		t.AppendRow(
			dataset.SV(regions[i%len(regions)]),
			dataset.IV(int64(i/100)), // ascending: clusters into segments
			dataset.FV(float64(i%977)),
		)
	}
	return t
}

// TestColumnStoreMatchesRowStore is the differential oracle for the column
// store: Execute and ExecuteBatch over the generated engine workload must
// return exactly what the row store returns, query by query.
func TestColumnStoreMatchesRowStore(t *testing.T) {
	tb := salesTable()
	sqls := genWorkload(61, 96)
	row := NewRowStore(tb)
	col := NewColumnStore(tb)
	rowPlans := mustPrepareAll(t, row, sqls)
	colPlans := mustPrepareAll(t, col, sqls)

	rowBatch, err := row.ExecuteBatch(context.Background(), rowPlans)
	if err != nil {
		t.Fatal(err)
	}
	colBatch, err := col.ExecuteBatch(context.Background(), colPlans)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sqls {
		assertSameResult(t, "batch "+sqls[i], colBatch[i], rowBatch[i])
		single, err := colPlans[i].Execute()
		if err != nil {
			t.Fatalf("Execute %q: %v", sqls[i], err)
		}
		assertSameResult(t, "single "+sqls[i], single, rowBatch[i])
	}
}

// TestColumnStoreClusteredDifferential repeats the differential on data with
// a partial final segment and real zone-map clustering, where skipping (not
// just vectorization) is on the execution path.
func TestColumnStoreClusteredDifferential(t *testing.T) {
	tb := clusteredTable(3*segmentSize + 1234)
	row := NewRowStore(tb)
	col := NewColumnStore(tb)
	sqls := []string{
		"SELECT region, SUM(value) AS s FROM events WHERE day = 7 GROUP BY region ORDER BY region",
		"SELECT day, COUNT(*) AS n FROM events WHERE day >= 100 AND day < 103 GROUP BY day ORDER BY day",
		"SELECT region, AVG(value) AS a FROM events WHERE region = 'eu' GROUP BY region",
		"SELECT day, value FROM events WHERE value > 970 AND day BETWEEN 120 AND 125 ORDER BY day, value",
		"SELECT COUNT(*) AS n FROM events WHERE region != 'us' AND day IN (1, 50, 131)",
		"SELECT region, MIN(value) AS lo, MAX(value) AS hi FROM events GROUP BY region ORDER BY region",
		"SELECT COUNT(*) AS n FROM events WHERE day = 99999",
	}
	for _, sql := range sqls {
		want, err := execSQL(row, sql)
		if err != nil {
			t.Fatalf("rowstore %q: %v", sql, err)
		}
		got, err := execSQL(col, sql)
		if err != nil {
			t.Fatalf("columnstore %q: %v", sql, err)
		}
		assertSameResult(t, sql, got, want)
	}
	if skipped := col.Counters().SegmentsSkipped; skipped == 0 {
		t.Error("clustered workload skipped no segments; zone maps are not engaged")
	}
}

// TestColumnStoreZoneSkipping pins the zone-map accounting: a point
// predicate on a clustered column must visit exactly one segment and report
// every other one as skipped.
func TestColumnStoreZoneSkipping(t *testing.T) {
	const nseg = 4
	tb := clusteredTable(nseg * segmentSize)
	col := NewColumnStore(tb)

	// day = 7 lives entirely inside the first segment (100 rows per day).
	before := col.Counters()
	res, err := execSQL(col, "SELECT COUNT(*) AS n FROM events WHERE day = 7")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Value(0, 0).Int(); got != 100 {
		t.Fatalf("COUNT = %d, want 100", got)
	}
	after := col.Counters()
	if got := after.SegmentsSkipped - before.SegmentsSkipped; got != nseg-1 {
		t.Errorf("SegmentsSkipped advanced by %d, want %d", got, nseg-1)
	}
	if got := after.RowsScanned - before.RowsScanned; got != segmentSize {
		t.Errorf("RowsScanned advanced by %d, want one segment (%d)", got, segmentSize)
	}

	// An impossible predicate skips everything and scans nothing.
	before = after
	if _, err := execSQL(col, "SELECT COUNT(*) AS n FROM events WHERE day = -1"); err != nil {
		t.Fatal(err)
	}
	after = col.Counters()
	if got := after.SegmentsSkipped - before.SegmentsSkipped; got != nseg {
		t.Errorf("SegmentsSkipped advanced by %d, want %d", got, nseg)
	}
	if got := after.RowsScanned - before.RowsScanned; got != 0 {
		t.Errorf("RowsScanned advanced by %d, want 0", got)
	}

	// A categorical value absent from the whole table short-circuits at
	// compile time; every segment still counts as skipped.
	before = after
	if _, err := execSQL(col, "SELECT COUNT(*) AS n FROM events WHERE region = 'mars'"); err != nil {
		t.Fatal(err)
	}
	after = col.Counters()
	if got := after.SegmentsSkipped - before.SegmentsSkipped; got != nseg {
		t.Errorf("SegmentsSkipped advanced by %d, want %d", got, nseg)
	}
}

// TestColumnStoreBatchConjunctSharing checks that a single-worker batch of
// plans sharing a selective conjunct scans each needed segment once, not
// once per plan, and that zone skipping still applies per plan — also for a
// batch of single-equality plans, one fragment or several.
func TestColumnStoreBatchConjunctSharing(t *testing.T) {
	const nseg = 4
	tb := clusteredTable(nseg * segmentSize)
	col := NewColumnStore(tb)
	col.SetParallelism(1)
	var sqls []string
	for _, region := range []string{"us", "eu", "ap"} {
		sqls = append(sqls, fmt.Sprintf(
			"SELECT day, SUM(value) AS s FROM events WHERE day < 30 AND region = '%s' GROUP BY day ORDER BY day", region))
	}
	plans := mustPrepareAll(t, col, sqls)
	before := col.Counters()
	batch, err := col.ExecuteBatch(context.Background(), plans)
	if err != nil {
		t.Fatal(err)
	}
	after := col.Counters()
	// day < 30 confines all three plans to the first segment; the shared
	// scan visits it once for the whole batch.
	if got := after.RowsScanned - before.RowsScanned; got != segmentSize {
		t.Errorf("batch scanned %d rows, want one shared segment (%d)", got, segmentSize)
	}
	// Each of the 3 plans skipped the other nseg-1 segments.
	if got := after.SegmentsSkipped - before.SegmentsSkipped; got != 3*(nseg-1) {
		t.Errorf("SegmentsSkipped advanced by %d, want %d", got, 3*(nseg-1))
	}
	row := NewRowStore(tb)
	for i, sql := range sqls {
		want, err := execSQL(row, sql)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, sql, batch[i], want)
	}

	// Single-equality plans take the same conjunct slots. region is clustered
	// two segments per value (us, us, eu, eu, ap, ap): each plan skips the
	// segments its dictionary bitset rules out, an unseen value folds to a
	// constant, and no plan reads segments 4 and 5.
	const rseg = 6
	rt := dataset.NewTable("events", []dataset.Field{
		{Name: "region", Kind: dataset.KindString},
		{Name: "day", Kind: dataset.KindInt},
		{Name: "value", Kind: dataset.KindFloat},
	})
	for i := 0; i < rseg*segmentSize; i++ {
		rt.AppendRow(dataset.SV([]string{"us", "eu", "ap"}[i/(2*segmentSize)]),
			dataset.IV(int64(i/100)), dataset.FV(float64(i%977)))
	}
	eqSQLs := []string{
		"SELECT day, SUM(value) AS s FROM events WHERE region = 'us' GROUP BY day ORDER BY day",
		"SELECT COUNT(*) AS n FROM events WHERE region = 'eu'",
		"SELECT day, COUNT(*) AS n FROM events WHERE region = 'us' GROUP BY day ORDER BY day",
		"SELECT COUNT(*) AS n FROM events WHERE region = 'mars'",
		"SELECT region, COUNT(*) AS n FROM events WHERE region != 'ap' GROUP BY region ORDER BY region",
	}
	one := NewColumnStore(rt)
	one.SetParallelism(1)
	wantProv := map[SkipAttr]int64{
		{Column: "region", Via: "dict"}:  4 + 4 + 4 + 2,
		{Column: "region", Via: "const"}: rseg,
	}
	rowRT := NewRowStore(rt)
	three := evenStore(3, rt)
	three.SetParallelism(1)
	for name, db := range map[string]*ColumnStore{"one fragment": one, "fragmented": three} {
		batch, err := db.ExecuteBatch(context.Background(), mustPrepareAll(t, db, eqSQLs))
		if err != nil {
			t.Fatal(err)
		}
		for i, sql := range eqSQLs {
			want, err := execSQL(rowRT, sql)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, name+": "+sql, batch[i], want)
		}
		c := db.Counters()
		if c.RowsScanned != 4*segmentSize {
			t.Errorf("%s: scanned %d rows, want segments 0-3 once (%d)", name, c.RowsScanned, 4*segmentSize)
		}
		if want := int64(4 + 4 + 4 + rseg + 2); c.SegmentsSkipped != want {
			t.Errorf("%s: SegmentsSkipped = %d, want %d", name, c.SegmentsSkipped, want)
		}
		got := db.Stats().SkipProvenance
		if len(got) != len(wantProv) {
			t.Errorf("%s: provenance = %v, want %v", name, got, wantProv)
		}
		for a, n := range wantProv {
			if got[a] != n {
				t.Errorf("%s: provenance[%+v] = %d, want %d", name, a, got[a], n)
			}
		}
	}
}

// TestColumnStoreFlatSinkFallback drives group-by shapes on both sides of
// the sink's direct-lookup line (coded keys indexed by their combined code;
// binned and float keys, one word each, hashed; an empty group) against the
// row store.
func TestColumnStoreFlatSinkFallback(t *testing.T) {
	tb := salesTable()
	row := NewRowStore(tb)
	col := NewColumnStore(tb)
	for _, sql := range []string{
		// Direct lookup: categorical keys.
		"SELECT product, location, COUNT(*) AS n FROM sales GROUP BY product, location ORDER BY product, location",
		// Direct lookup: int key with a build-time dictionary encoding (year has
		// 6 distinct values, far under maxIntCodeCardinality).
		"SELECT year, SUM(sales) AS s FROM sales GROUP BY year ORDER BY year",
		// Hashed lookup: binned key.
		"SELECT BIN(sales, 250) AS b, COUNT(*) AS n FROM sales GROUP BY BIN(sales, 250) ORDER BY b",
		// Hashed lookup: float key.
		"SELECT sales, COUNT(*) AS n FROM sales GROUP BY sales ORDER BY sales LIMIT 9",
		// Aggregate with no GROUP BY over an empty match set.
		"SELECT SUM(profit) AS s, COUNT(*) AS n FROM sales WHERE product = 'absent'",
		// Projection (no aggregation at all).
		"SELECT product, sales FROM sales WHERE location = 'UK' ORDER BY sales DESC LIMIT 7",
	} {
		want, err := execSQL(row, sql)
		if err != nil {
			t.Fatal(err)
		}
		got, err := execSQL(col, sql)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, sql, got, want)
	}
}

// TestColumnStoreNaNDoesNotVoidNeSkipProof is the regression test for the
// zone-map != proof: NaN never lands in a segment's min/max, but a NaN row
// still matches a != predicate, so a segment whose non-NaN values all equal
// the constant must NOT be skipped when it also holds NaNs.
func TestColumnStoreNaNDoesNotVoidNeSkipProof(t *testing.T) {
	tb := dataset.NewTable("m", []dataset.Field{
		{Name: "v", Kind: dataset.KindFloat},
	})
	for i := 0; i < segmentSize; i++ {
		if i%3 == 1 {
			tb.AppendRow(dataset.FV(math.NaN()))
		} else {
			tb.AppendRow(dataset.FV(5))
		}
	}
	row, col := NewRowStore(tb), NewColumnStore(tb)
	for _, sql := range []string{
		"SELECT COUNT(*) AS n FROM m WHERE v != 5",
		"SELECT COUNT(*) AS n FROM m WHERE v = 5",
		"SELECT COUNT(*) AS n FROM m WHERE v > 4",
	} {
		want, err := execSQL(row, sql)
		if err != nil {
			t.Fatal(err)
		}
		got, err := execSQL(col, sql)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, sql, got, want)
	}
}

// TestColumnStoreHighCardinalityIntKey pins the hash-sink fallback for an
// integer group key with too many distinct values to dictionary-encode
// (> dataset.MaxIntDictCardinality), which no other fixture reaches.
func TestColumnStoreHighCardinalityIntKey(t *testing.T) {
	tb := dataset.NewTable("ids", []dataset.Field{
		{Name: "id", Kind: dataset.KindInt},
		{Name: "v", Kind: dataset.KindFloat},
	})
	n := dataset.MaxIntDictCardinality + 500
	for i := 0; i < n; i++ {
		tb.AppendRow(dataset.IV(int64(i*3)), dataset.FV(float64(i%7)))
	}
	row, col := NewRowStore(tb), NewColumnStore(tb)
	if tb.Column("id").Coded() {
		t.Fatalf("id column should exceed the int-code cardinality bound")
	}
	sql := "SELECT id, SUM(v) AS s FROM ids WHERE id >= 600 GROUP BY id ORDER BY id LIMIT 25"
	want, err := execSQL(row, sql)
	if err != nil {
		t.Fatal(err)
	}
	got, err := execSQL(col, sql)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, sql, got, want)
}
