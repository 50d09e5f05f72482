package engine

import (
	"context"
	"errors"
	"testing"

	"repro/internal/dataset"
)

// provTable builds a table where both numeric zones and categorical
// dictionary bitsets can prove segments empty: day ascends (clusters into
// segments) and region is "early" for the first half of the rows, "late" for
// the second half.
func provTable(nseg int) *dataset.Table {
	t := dataset.NewTable("events", []dataset.Field{
		{Name: "region", Kind: dataset.KindString},
		{Name: "day", Kind: dataset.KindInt},
		{Name: "value", Kind: dataset.KindFloat},
	})
	rows := nseg * segmentSize
	for i := 0; i < rows; i++ {
		region := "early"
		if i >= rows/2 {
			region = "late"
		}
		t.AppendRow(dataset.SV(region), dataset.IV(int64(i/100)), dataset.FV(float64(i%977)))
	}
	return t
}

// TestSkipProvenanceAttribution pins the per-column attribution of zone-map
// skips: each skipped segment is credited to the conjunct (column and
// metadata kind) that proved it empty.
func TestSkipProvenanceAttribution(t *testing.T) {
	const nseg = 4
	col := NewColumnStore(provTable(nseg))
	run := func(sql string) {
		t.Helper()
		if _, err := execSQL(col, sql); err != nil {
			t.Fatal(err)
		}
	}
	// day = 7 lives inside segment 0: 3 skips via the day zone map.
	run("SELECT COUNT(*) AS n FROM events WHERE day = 7")
	// region = 'late' covers segments 2..3: 2 skips via the region dictionary.
	run("SELECT COUNT(*) AS n FROM events WHERE region = 'late'")
	// A value the dictionary never saw folds to a constant-false filter:
	// 4 skips attributed to region via "const".
	run("SELECT COUNT(*) AS n FROM events WHERE region = 'nope'")
	// A disjunction needs every leg to prove a segment empty; the composite
	// proof is attributed to "(multi)" via "expr".
	run("SELECT COUNT(*) AS n FROM events WHERE day = -1 OR region = 'nope'")

	want := map[SkipAttr]int64{
		{Column: "day", Via: "zonemap"}:  nseg - 1,
		{Column: "region", Via: "dict"}:  nseg / 2,
		{Column: "region", Via: "const"}: nseg,
		{Column: "(multi)", Via: "expr"}: nseg,
	}
	got := col.Stats("events").SkipProvenance
	if len(got) != len(want) {
		t.Fatalf("provenance = %v, want %v", got, want)
	}
	for a, n := range want {
		if got[a] != n {
			t.Errorf("provenance[%+v] = %d, want %d", a, got[a], n)
		}
	}
	// Total attributed skips must equal the store's skip counter: every skip
	// is attributed, and nothing is attributed twice.
	var attributed int64
	for _, n := range got {
		attributed += n
	}
	if skipped := col.Counters().SegmentsSkipped; attributed != skipped {
		t.Errorf("attributed %d skips, counter says %d", attributed, skipped)
	}
	// SortedSkipAttrs orders by count descending with a deterministic tie
	// break, so /stats and /metrics emit stably.
	sorted := SortedSkipAttrs(got)
	for i := 1; i < len(sorted); i++ {
		if got[sorted[i-1]] < got[sorted[i]] {
			t.Errorf("sorted attrs out of order at %d: %v", i, sorted)
		}
	}
}

// TestSkipProvenanceMergesAcrossShards pins that a fragmented store
// attributes exactly the skips the one-fragment store does: fragment
// boundaries must not lose or double-count any.
func TestSkipProvenanceMergesAcrossShards(t *testing.T) {
	const nseg = 4
	tb := provTable(nseg)
	col := NewColumnStore(tb)
	sh := evenStore(2, tb)
	sqls := []string{
		"SELECT COUNT(*) AS n FROM events WHERE day = 7",
		"SELECT COUNT(*) AS n FROM events WHERE region = 'late'",
	}
	for _, sql := range sqls {
		if _, err := execSQL(col, sql); err != nil {
			t.Fatal(err)
		}
		if _, err := execSQL(sh, sql); err != nil {
			t.Fatal(err)
		}
	}
	want, got := col.Stats("events").SkipProvenance, sh.Stats("events").SkipProvenance
	if len(got) != len(want) {
		t.Fatalf("fragmented provenance = %v, want %v", got, want)
	}
	for a, n := range want {
		if got[a] != n {
			t.Errorf("fragmented provenance[%+v] = %d, want %d", a, got[a], n)
		}
	}
}

// TestExecuteBatchHonorsCanceledContext pins the cancellation boundary for
// every back-end: a canceled context fails the batch, and a single plan's
// ExecuteContext (a batch of one), with an error that still satisfies
// errors.Is(context.Canceled) after wrapping, and leaves RowsScanned alone.
func TestExecuteBatchHonorsCanceledContext(t *testing.T) {
	tb := provTable(2)
	stores := map[string]DB{
		"row":        NewRowStore(tb),
		"bitmap":     NewBitmapStore(tb),
		"column":     NewColumnStore(tb),
		"fragmented": evenStore(2, tb),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, db := range stores {
		plans := mustPrepareAll(t, db, []string{"SELECT COUNT(*) AS n FROM events WHERE day = 7"})
		before := db.Counters().RowsScanned
		if _, err := db.ExecuteBatch(ctx, plans); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want errors.Is(context.Canceled)", name, err)
		}
		if _, err := plans[0].ExecuteContext(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: ExecuteContext err = %v, want errors.Is(context.Canceled)", name, err)
		}
		// A canceled batch scans nothing, so it counts no rows.
		if got := db.Counters().RowsScanned; got != before {
			t.Errorf("%s: RowsScanned moved %d -> %d over canceled batches", name, before, got)
		}
		// The store must remain serviceable after a canceled batch.
		if _, err := db.ExecuteBatch(context.Background(), plans); err != nil {
			t.Errorf("%s: batch after cancellation failed: %v", name, err)
		}
	}
}
