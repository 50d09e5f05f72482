package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/minisql"
)

// shardMetrics builds a multi-segment table for sharding differentials:
// region is clustered (contiguous runs, so zone maps prove shards empty for
// equality predicates) and every measure is integer-valued, so SUM/AVG
// accumulate exactly and sharded results must be byte-identical to the
// unsharded scan. 50_000 rows = 13 segments.
func shardMetrics(rows int) *dataset.Table {
	t := dataset.NewTable("metrics", []dataset.Field{
		{Name: "region", Kind: dataset.KindString},
		{Name: "bucket", Kind: dataset.KindInt},
		{Name: "value", Kind: dataset.KindFloat},
		{Name: "weight", Kind: dataset.KindFloat},
	})
	regions := []string{"north", "south", "east", "west", "mid", "coast"}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < rows; i++ {
		t.AppendRow(
			dataset.SV(regions[i*len(regions)/rows]),
			dataset.IV(int64(rng.Intn(16))),
			dataset.FV(float64(rng.Intn(1000))),
			dataset.FV(float64(i%97)),
		)
	}
	return t
}

// shardQueries exercises every sink and merge path: the flat dictionary-code
// sink (string and dictionary-int keys), the hash sink (binned keys),
// projections with and without ordering, aggregates without GROUP BY, empty
// match sets, and non-grouped representative columns.
var shardQueries = []string{
	"SELECT region, SUM(value) AS s, COUNT(*) AS n FROM metrics GROUP BY region ORDER BY region",
	"SELECT region, SUM(value) AS s FROM metrics WHERE region = 'north' GROUP BY region",
	"SELECT bucket, AVG(value) AS a, MIN(value) AS lo, MAX(value) AS hi FROM metrics GROUP BY bucket ORDER BY bucket",
	"SELECT region, bucket, SUM(value) AS s FROM metrics WHERE bucket IN (1, 2, 3) GROUP BY region, bucket ORDER BY region, bucket",
	"SELECT BIN(weight, 10) AS w, COUNT(*) AS n FROM metrics GROUP BY BIN(weight, 10) ORDER BY w",
	"SELECT SUM(weight) AS s, COUNT(*) AS n FROM metrics",
	"SELECT COUNT(*) AS n FROM metrics WHERE value < 0",
	"SELECT region, SUM(value) AS s FROM metrics WHERE region = 'nowhere' GROUP BY region",
	"SELECT value, weight FROM metrics WHERE region = 'east' AND value > 900 ORDER BY value DESC, weight LIMIT 25",
	"SELECT region FROM metrics WHERE value = 999 LIMIT 40",
	"SELECT region, weight, SUM(value) AS s FROM metrics GROUP BY region ORDER BY region",
}

// TestShardedMatchesUnsharded is the core differential: for every shard
// count, every query's sharded result must be identical — group order, row
// order, every byte — to the unsharded column store's.
func TestShardedMatchesUnsharded(t *testing.T) {
	tb := shardMetrics(50_000)
	ref := NewColumnStore(tb)
	for _, n := range []int{1, 2, 3, 4, 8, 64} {
		db := NewShardedStore(n, tb)
		db.SetParallelism(4)
		for _, q := range shardQueries {
			want, err := execSQL(ref, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := execSQL(db, q)
			if err != nil {
				t.Fatalf("shards=%d %q: %v", n, q, err)
			}
			if err := sameResult(got, want); err != nil {
				t.Fatalf("shards=%d %q: %v", n, q, err)
			}
		}
	}
}

// TestShardedBatchMatchesUnsharded scatters the whole query set as one
// batch — the path the serving coalescer takes — and spans two tables so the
// scatter covers multiple table groups in one call.
func TestShardedBatchMatchesUnsharded(t *testing.T) {
	tb := shardMetrics(50_000)
	other := salesTable()
	ref := NewColumnStore(tb, other)
	db := NewShardedStore(3, tb, other)
	db.SetParallelism(4)
	queries := append([]string{}, shardQueries...)
	queries = append(queries,
		"SELECT year, SUM(sales) AS s FROM sales WHERE product = 'chair' GROUP BY year ORDER BY year",
		"SELECT COUNT(*) AS n FROM sales WHERE location = 'UK'",
	)
	var plans []*Plan
	var want []*Result
	for _, q := range queries {
		p, err := prepareSQL(db, q)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
		w, err := execSQL(ref, q)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, w)
	}
	got, err := db.ExecuteBatch(context.Background(), plans)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if err := sameResult(got[i], want[i]); err != nil {
			t.Fatalf("%q: %v", queries[i], err)
		}
	}
}

// TestShardedUnevenSplit pins the NewShardedStoreAt contract: deliberately
// lopsided cuts, including an empty middle range, still gather to the exact
// unsharded result (an empty range merges as the identity).
func TestShardedUnevenSplit(t *testing.T) {
	tb := shardMetrics(50_000)
	ref := NewColumnStore(tb)
	src := NewMemSource(tb)
	nseg := src.NumSegments()
	for _, cuts := range [][]int{
		{1, 1},                 // empty middle shard
		{0, nseg},              // empty first and last shards
		{1, nseg - 1},          // tiny edges, fat middle
		{nseg / 4, nseg/4 + 1}, // one-segment middle shard
	} {
		db := NewShardedStoreAt(NewMemSource(tb), cuts...)
		db.SetParallelism(4)
		for _, q := range shardQueries {
			want, err := execSQL(ref, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := execSQL(db, q)
			if err != nil {
				t.Fatalf("cuts=%v %q: %v", cuts, q, err)
			}
			if err := sameResult(got, want); err != nil {
				t.Fatalf("cuts=%v %q: %v", cuts, q, err)
			}
		}
	}
}

// TestShardedEmptyTable covers the degenerate split: zero segments yield one
// empty shard, and aggregate semantics (COUNT 0, NULL elsewhere) survive the
// gather.
func TestShardedEmptyTable(t *testing.T) {
	tb := dataset.NewTable("metrics", []dataset.Field{
		{Name: "region", Kind: dataset.KindString},
		{Name: "value", Kind: dataset.KindFloat},
	})
	ref := NewColumnStore(tb)
	db := NewShardedStore(4, tb)
	for _, q := range []string{
		"SELECT COUNT(*) AS n FROM metrics",
		"SELECT SUM(value) AS s FROM metrics",
		"SELECT region, SUM(value) AS s FROM metrics GROUP BY region",
		"SELECT region, value FROM metrics",
	} {
		want, err := execSQL(ref, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := execSQL(db, q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if err := sameResult(got, want); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
	}
}

// TestShardedRangeShapes pins how the sharded constructors cut a table:
// even splits capped at the segment count (an empty or non-positive count is
// one range), contiguous and covering, and explicit cuts that are out of
// order or out of bounds panic.
func TestShardedRangeShapes(t *testing.T) {
	tb := shardMetrics(50_000)
	nseg := NewMemSource(tb).NumSegments()
	if nseg != 13 {
		t.Fatalf("nseg = %d, want 13", nseg)
	}
	for _, c := range []struct{ n, want int }{
		{1, 1}, {3, 3}, {13, 13}, {64, 13}, {0, 1}, {-2, 1},
	} {
		ranges := NewShardedStore(c.n, tb).cols["metrics"].ranges
		if len(ranges) != c.want {
			t.Fatalf("NewShardedStore(%d): %d ranges, want %d", c.n, len(ranges), c.want)
		}
		prevHi := 0
		for _, r := range ranges {
			if r.lo != prevHi || r.hi < r.lo {
				t.Fatalf("NewShardedStore(%d): non-contiguous range [%d,%d) after %d", c.n, r.lo, r.hi, prevHi)
			}
			prevHi = r.hi
		}
		if prevHi != nseg {
			t.Fatalf("NewShardedStore(%d): ranges end at %d of %d segments", c.n, prevHi, nseg)
		}
	}
	for _, bad := range [][]int{{-1}, {5, 3}, {nseg + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewShardedStoreAt(%v) should panic", bad)
				}
			}()
			NewShardedStoreAt(NewMemSource(tb), bad...)
		}()
	}
}

// failSource fails Load for chosen segments; everything else delegates.
type failSource struct {
	SegmentSource
	failAt map[int]error
}

func (f *failSource) Load(seg int, cols ColumnSet) error {
	if err := f.failAt[seg]; err != nil {
		return err
	}
	return f.SegmentSource.Load(seg, cols)
}

// panicSource panics on Load for chosen segments.
type panicSource struct {
	SegmentSource
	panicAt int
}

func (p *panicSource) Load(seg int, cols ColumnSet) error {
	if seg == p.panicAt {
		panic(fmt.Sprintf("injected panic at segment %d", seg))
	}
	return p.SegmentSource.Load(seg, cols)
}

// TestShardedErrorSelectionDeterministic injects load failures into two
// different shards and asserts the gather always reports the lowest shard
// index's error — the scatter-pool mirror of the process pool's
// lowest-index convention — no matter how the workers race. The one-range
// store's single walk meets the lower segment first and must agree.
func TestShardedErrorSelectionDeterministic(t *testing.T) {
	tb := shardMetrics(50_000)
	errLow := errors.New("disk failure in segment 5")
	errHigh := errors.New("disk failure in segment 9")
	src := &failSource{
		SegmentSource: NewMemSource(tb),
		failAt:        map[int]error{5: errLow, 9: errHigh},
	}
	// Cuts [4, 8]: segment 5 lands in shard 1, segment 9 in shard 2.
	for _, db := range []*ColumnStore{NewShardedStoreAt(src, 4, 8), NewColumnStoreFromSource(src)} {
		db.SetParallelism(4)
		p, err := prepareSQL(db, "SELECT COUNT(*) AS n FROM metrics")
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 30; trial++ {
			_, err := db.ExecuteBatch(context.Background(), []*Plan{p})
			if err == nil {
				t.Fatalf("%s: want error", db.Name())
			}
			if !errors.Is(err, errLow) {
				t.Fatalf("%s trial %d: got %v, want the lowest shard's error", db.Name(), trial, err)
			}
			if errors.Is(err, errHigh) {
				t.Fatalf("%s trial %d: higher shard's error leaked: %v", db.Name(), trial, err)
			}
		}
	}
}

// TestShardedPanicContainment injects a panic into one shard's scan: it must
// surface as that shard's error, not kill the process — and a lower shard's
// plain error still outranks a higher shard's panic. The one-range store
// contains panics the same way: its scan jobs run on the same pool.
func TestShardedPanicContainment(t *testing.T) {
	tb := shardMetrics(50_000)
	src := &panicSource{SegmentSource: NewMemSource(tb), panicAt: 9}
	errLow := errors.New("disk failure in segment 5")
	both := &panicSource{
		SegmentSource: &failSource{SegmentSource: NewMemSource(tb), failAt: map[int]error{5: errLow}},
		panicAt:       9,
	}
	stores := func(src SegmentSource) []*ColumnStore {
		return []*ColumnStore{NewShardedStoreAt(src, 4, 8), NewColumnStoreFromSource(src)}
	}
	for _, db := range stores(src) {
		db.SetParallelism(4)
		_, err := execSQL(db, "SELECT COUNT(*) AS n FROM metrics")
		if err == nil || !strings.Contains(err.Error(), "shard panic") {
			t.Fatalf("%s: got %v, want contained shard panic", db.Name(), err)
		}
	}
	for _, db := range stores(both) {
		db.SetParallelism(4)
		_, err := execSQL(db, "SELECT COUNT(*) AS n FROM metrics")
		if err == nil || !errors.Is(err, errLow) {
			t.Fatalf("%s: got %v, want lower shard's error to outrank the panic", db.Name(), err)
		}
	}
}

// TestShardedPerShardCounters checks the per-shard observability: segment
// ownership, scan/skip/load totals per shard, and their consistency with the
// store-wide counters.
func TestShardedPerShardCounters(t *testing.T) {
	tb := shardMetrics(50_000)
	db := NewShardedStore(3, tb)
	db.SetParallelism(4)
	if st := db.Stats("metrics"); len(st.Ranges) != 3 || st.Segments != 13 {
		t.Fatalf("%d ranges over %d segments, want 3 over 13", len(st.Ranges), st.Segments)
	}
	if db.Stats("nope").Ranges != nil {
		t.Fatal("unknown table should report nil ranges")
	}
	if _, err := execSQL(db, "SELECT COUNT(*) AS n FROM metrics"); err != nil {
		t.Fatal(err)
	}
	st := db.Stats("metrics")
	stats := st.Ranges
	if len(stats) != 3 {
		t.Fatalf("%d shard stats", len(stats))
	}
	var segs, rows, loads int64
	for _, sc := range stats {
		segs += int64(sc.Segments)
		rows += sc.RowsScanned
		loads += sc.SegmentLoads
	}
	if segs != 13 {
		t.Fatalf("shard segments sum to %d, want 13", segs)
	}
	if rows != 50_000 {
		t.Fatalf("shard rows scanned sum to %d, want 50000", rows)
	}
	if loads != 13 {
		t.Fatalf("full scan loaded %d segments, want 13", loads)
	}
	if st.RowsScanned != rows || st.SegmentLoads != loads {
		t.Fatalf("store counters %d rows, %d loads vs shard sums %d, %d", st.RowsScanned, st.SegmentLoads, rows, loads)
	}
}

// TestShardedSkipKeepsSegmentsUnloaded proves pruning composes with
// sharding: a clustered equality touches only the early shards, the tail
// shard's zone maps prove every segment empty, and its loads stay at zero.
func TestShardedSkipKeepsSegmentsUnloaded(t *testing.T) {
	tb := shardMetrics(50_000)
	db := NewShardedStore(3, tb)
	db.SetParallelism(4)
	if _, err := execSQL(db, "SELECT COUNT(*) AS n FROM metrics WHERE region = 'north'"); err != nil {
		t.Fatal(err)
	}
	stats := db.Stats("metrics").Ranges
	var loads, skipped int64
	for _, sc := range stats {
		loads += sc.SegmentLoads
		skipped += sc.SegmentsSkipped
	}
	if loads >= 13 {
		t.Fatalf("clustered equality loaded all %d segments", loads)
	}
	if skipped == 0 {
		t.Fatal("no segments skipped")
	}
	if tail := stats[2]; tail.SegmentLoads != 0 || tail.RowsScanned != 0 {
		t.Fatalf("tail shard should be fully pruned, got %+v", tail)
	}
}

// prepareSQL is Prepare from SQL text, for tests.
func prepareSQL(db DB, sql string) (*Plan, error) {
	q, err := minisql.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.Prepare(q)
}
