package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
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
// counters, the oracle for "a zone-map-skipped segment is never touched", and
// records the column set of every Load.
type countingSource struct {
	SegmentSource
	loads  []atomic.Int64
	failAt int // segment whose load errors, -1 for none
	mu     sync.Mutex
	sets   []ColumnSet
}

func newCountingSource(t *dataset.Table) *countingSource {
	inner := NewMemSource(t)
	return &countingSource{
		SegmentSource: inner,
		loads:         make([]atomic.Int64, inner.NumSegments()),
		failAt:        -1,
	}
}

func (s *countingSource) Load(seg int, cols ColumnSet, scratch *dataset.Table) (*dataset.Table, error) {
	s.loads[seg].Add(1)
	s.mu.Lock()
	s.sets = append(s.sets, slices.Clone(cols))
	s.mu.Unlock()
	if seg == s.failAt {
		return scratch, fmt.Errorf("synthetic load failure on segment %d", seg)
	}
	return s.SegmentSource.Load(seg, cols, scratch)
}

// loadedColumns returns the names of the columns the recorded Loads asked
// for, one list per distinct set, and forgets the record.
func (s *countingSource) loadedColumns() [][]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out [][]string
	for _, set := range s.sets {
		var names []string
		for j, c := range s.Table().Columns() {
			if set.Has(j) {
				names = append(names, c.Field.Name)
			}
		}
		if !slices.ContainsFunc(out, func(o []string) bool { return slices.Equal(o, names) }) {
			out = append(out, names)
		}
	}
	s.sets = nil
	return out
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
	res, err := execSQL(db, fmt.Sprintf("SELECT id FROM clustered WHERE id >= %d AND id < %d", lo, hi))
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

	// A categorical equality hitting segment 1 only: one read of it, none of
	// the segments it skips.
	if _, err := execSQL(db, "SELECT COUNT(*) AS n FROM clustered WHERE tag = 'seg1'"); err != nil {
		t.Fatal(err)
	}
	if got := src.loads[0].Load() + src.loads[2].Load() + src.loads[4].Load() + src.loads[5].Load(); got != 0 {
		t.Errorf("categorical query touched skipped segments %d times", got)
	}
	if got := src.loads[1].Load(); got != 1 {
		t.Errorf("segment 1 loads = %d, want 1", got)
	}
}

// TestLoadReceivesThePlanColumns: a scan asks its source for exactly the
// columns its plans read — select, group-by and WHERE — so a file-backed
// source never reads the others; a batch's scan job asks for the union of its
// plans'.
func TestLoadReceivesThePlanColumns(t *testing.T) {
	tb := dataset.NewTable("wide", []dataset.Field{
		{Name: "id", Kind: dataset.KindInt},
		{Name: "tag", Kind: dataset.KindString},
		{Name: "v", Kind: dataset.KindFloat},
		{Name: "unread", Kind: dataset.KindFloat},
	})
	for i := 0; i < 3*SegmentSize; i++ {
		tb.AppendRow(dataset.IV(int64(i)), dataset.SV(fmt.Sprintf("seg%d", i/SegmentSize)), dataset.FV(float64(i%50)), dataset.FV(1))
	}
	src := newCountingSource(tb)
	db := NewColumnStoreFromSource(src)
	db.SetParallelism(1) // one scan job per batch: its set is the union
	for _, tc := range []struct {
		sqls []string
		want []string
	}{
		{[]string{"SELECT COUNT(*) AS n FROM wide WHERE tag = 'seg1'"}, []string{"tag"}},
		{[]string{"SELECT COUNT(*) AS n FROM wide"}, nil},
		{[]string{"SELECT tag, SUM(v) AS s FROM wide GROUP BY tag"}, []string{"tag", "v"}},
		{[]string{"SELECT v, COUNT(*) AS n FROM wide WHERE id < 100 GROUP BY v"}, []string{"id", "v"}},
		{[]string{
			"SELECT id FROM wide WHERE id < 10",
			"SELECT COUNT(*) AS n FROM wide WHERE tag = 'seg2'",
			"SELECT tag, MAX(v) AS m FROM wide GROUP BY tag",
		}, []string{"id", "tag", "v"}},
	} {
		plans := make([]*Plan, len(tc.sqls))
		for i, sql := range tc.sqls {
			p, err := db.Prepare(mustParse(t, sql))
			if err != nil {
				t.Fatal(err)
			}
			plans[i] = p
		}
		if _, err := db.ExecuteBatch(context.Background(), plans); err != nil {
			t.Fatal(err)
		}
		if got := src.loadedColumns(); len(got) != 1 || !slices.Equal(got[0], tc.want) {
			t.Errorf("%q: Load asked for %q, want only %q", tc.sqls, got, tc.want)
		}
	}
}

func TestLazySourceLoadErrorPropagates(t *testing.T) {
	src := newCountingSource(segClusteredTable(3))
	src.failAt = 2
	db := NewColumnStoreFromSource(src)

	// Prunable query avoiding segment 2: runs clean.
	if _, err := execSQL(db, fmt.Sprintf("SELECT v FROM clustered WHERE id < %d", SegmentSize)); err != nil {
		t.Fatalf("query avoiding the bad segment failed: %v", err)
	}
	// Full scan visits segment 2: the load error must surface, not panic.
	_, err := execSQL(db, "SELECT tag, SUM(v) AS s FROM clustered GROUP BY tag")
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
		want, err := execSQL(eager, sql)
		if err != nil {
			t.Fatal(err)
		}
		got, err := execSQL(viaSource, sql)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Cols, got.Rows()) != fmt.Sprint(want.Cols, want.Rows()) {
			t.Errorf("%s diverged:\n got %v\nwant %v", sql, got.Rows(), want.Rows())
		}
	}
	if n := eager.Stats().Segments; n != 2 {
		t.Errorf("Segments = %d, want 2", n)
	}
}

// TestMarkPresentMatchesMarkEach pins markPresent's byte scratch against the
// row-at-a-time markEach it replaces: random codes at every code width, over
// dictionary sizes around each bitset word and the segment bound, in tables
// that end mid-segment, give the same presence bitsets bit for bit.
func TestMarkPresentMatchesMarkEach(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, card := range []int{1, 2, 63, 64, 65, 255, 256, 257, 4095, 4096, 4097, 70000} {
		for _, rows := range []int{0, 1, 3*SegmentSize + 17} {
			codes := make([]uint32, rows)
			for i := range codes {
				// Runs and gaps, so some codes are missing from a segment.
				codes[i] = uint32(rng.Intn(card))
				if i%5 != 0 && card > 8 {
					codes[i] %= uint32(card / 8)
				}
			}
			nseg := (rows + SegmentSize - 1) / SegmentSize
			check := func(width string, mark, ref func(*ZoneData)) {
				got := &ZoneData{Words: max((card+63)/64, 1)}
				want := &ZoneData{Words: got.Words}
				got.Present = make([]uint64, nseg*got.Words)
				want.Present = make([]uint64, nseg*want.Words)
				mark(got)
				ref(want)
				if !slices.Equal(got.Present, want.Present) {
					t.Errorf("card %d, %d rows, %s codes: presence bitsets differ", card, rows, width)
				}
			}
			if card <= 1<<8 {
				c8 := narrow[uint8](codes)
				check("U8", func(z *ZoneData) { markPresent(c8, z) }, func(z *ZoneData) { markEach(c8, z) })
			}
			if card <= 1<<16 {
				c16 := narrow[uint16](codes)
				check("U16", func(z *ZoneData) { markPresent(c16, z) }, func(z *ZoneData) { markEach(c16, z) })
			}
			check("U32", func(z *ZoneData) { markPresent(codes, z) }, func(z *ZoneData) { markEach(codes, z) })
		}
	}
}

func narrow[W uint8 | uint16](codes []uint32) []W {
	out := make([]W, len(codes))
	for i, c := range codes {
		out[i] = W(c)
	}
	return out
}
