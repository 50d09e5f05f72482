package engine

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/minisql"
)

func mustParse(t *testing.T, sql string) *minisql.Query {
	t.Helper()
	q, err := minisql.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// countingSource wraps the eager in-memory source with per-segment load
// counters, the oracle for "a zone-map-skipped segment is never touched".
type countingSource struct {
	SegmentSource
	loads  []atomic.Int64
	failAt int // segment whose load errors, -1 for none
}

func newCountingSource(t *dataset.Table) *countingSource {
	inner := NewMemSource(t)
	return &countingSource{
		SegmentSource: inner,
		loads:         make([]atomic.Int64, inner.NumSegments()),
		failAt:        -1,
	}
}

func (s *countingSource) Load(seg int) error {
	s.loads[seg].Add(1)
	if seg == s.failAt {
		return fmt.Errorf("synthetic load failure on segment %d", seg)
	}
	return s.SegmentSource.Load(seg)
}

// clusteredTable maps segment index to value range: segment s holds ids
// [s*SegmentSize, (s+1)*SegmentSize), so range predicates prune exactly.
func segClusteredTable(nseg int) *dataset.Table {
	t := dataset.NewTable("clustered", []dataset.Field{
		{Name: "id", Kind: dataset.KindInt},
		{Name: "tag", Kind: dataset.KindString},
		{Name: "v", Kind: dataset.KindFloat},
	})
	for i := 0; i < nseg*SegmentSize; i++ {
		t.AppendRow(dataset.IV(int64(i)), dataset.SV(fmt.Sprintf("seg%d", i/SegmentSize)), dataset.FV(float64(i%50)))
	}
	return t
}

func TestLazySourceSkippedSegmentsNotLoaded(t *testing.T) {
	src := newCountingSource(segClusteredTable(6))
	db := NewColumnStoreFromSource(src)

	// A numeric range hitting segment 3 only.
	lo, hi := 3*SegmentSize+10, 3*SegmentSize+20
	res, err := db.ExecuteSQL(fmt.Sprintf("SELECT id FROM clustered WHERE id >= %d AND id < %d", lo, hi))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 10 {
		t.Fatalf("rows = %d, want 10", res.Len())
	}
	for s := range src.loads {
		want := int64(0)
		if s == 3 {
			want = 1
		}
		if got := src.loads[s].Load(); got != want {
			t.Errorf("segment %d loaded %d times, want %d", s, got, want)
		}
	}

	// A categorical equality hitting segment 1 only — and rerunning it must
	// not reload (idempotent sources do the work once; the engine still calls
	// Load per visit, so the counting source sees the visits).
	if _, err := db.ExecuteSQL("SELECT COUNT(*) AS n FROM clustered WHERE tag = 'seg1'"); err != nil {
		t.Fatal(err)
	}
	if got := src.loads[0].Load() + src.loads[2].Load() + src.loads[4].Load() + src.loads[5].Load(); got != 0 {
		t.Errorf("categorical query touched skipped segments %d times", got)
	}
	if got := src.loads[1].Load(); got != 1 {
		t.Errorf("segment 1 loads = %d, want 1", got)
	}
}

func TestLazySourceLoadErrorPropagates(t *testing.T) {
	src := newCountingSource(segClusteredTable(3))
	src.failAt = 2
	db := NewColumnStoreFromSource(src)

	// Prunable query avoiding segment 2: runs clean.
	if _, err := db.ExecuteSQL(fmt.Sprintf("SELECT v FROM clustered WHERE id < %d", SegmentSize)); err != nil {
		t.Fatalf("query avoiding the bad segment failed: %v", err)
	}
	// Full scan visits segment 2: the load error must surface, not panic.
	_, err := db.ExecuteSQL("SELECT tag, SUM(v) AS s FROM clustered GROUP BY tag")
	if err == nil || !strings.Contains(err.Error(), "synthetic load failure") {
		t.Fatalf("err = %v, want the synthetic load failure", err)
	}
	// And batches over the poisoned table fail as a unit rather than
	// returning partial results.
	p1, err := db.Prepare(mustParse(t, "SELECT COUNT(*) AS n FROM clustered"))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := db.Prepare(mustParse(t, fmt.Sprintf("SELECT id FROM clustered WHERE id = %d", 2*SegmentSize+1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecuteBatch(context.Background(), []*Plan{p1, p2}); err == nil {
		t.Fatal("batch touching the bad segment should fail")
	}
}

func TestMemSourceMatchesEagerStore(t *testing.T) {
	tb := segClusteredTable(2)
	eager := NewColumnStore(tb)
	viaSource := NewColumnStoreFromSource(NewMemSource(tb))
	for _, sql := range []string{
		"SELECT tag, COUNT(*) AS n, AVG(v) AS a FROM clustered GROUP BY tag",
		"SELECT id FROM clustered WHERE v = 7 AND id < 100",
	} {
		want, err := eager.ExecuteSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		got, err := viaSource.ExecuteSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Cols, got.Rows()) != fmt.Sprint(want.Cols, want.Rows()) {
			t.Errorf("%s diverged:\n got %v\nwant %v", sql, got.Rows(), want.Rows())
		}
	}
	if n := eager.Stats("clustered").Segments; n != 2 {
		t.Errorf("Segments = %d, want 2", n)
	}
	if n := eager.Stats("nope").Segments; n != 0 {
		t.Errorf("Segments(unknown) = %d, want 0", n)
	}
}
