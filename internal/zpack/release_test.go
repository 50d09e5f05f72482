package zpack

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// A scan releases every block it read when it moves on: the blocks of a
// segment live in the scan job's scratch only while the job scans it. These
// tests hold what a release must keep — answers, corruption checks, distinct
// enumeration — to every later read.

// lineageFile writes rows rows of the lineage schema to a new file and
// returns its path and the generator that continues them.
func lineageFile(t *testing.T, rows int, seed int64) (string, *lineageGen) {
	t.Helper()
	gen := &lineageGen{rng: rand.New(rand.NewSource(seed)), cats: 6, grps: []int64{10, 20, 30}, wides: 3000}
	path := filepath.Join(t.TempDir(), "lineage.zpack")
	w, err := Create(path, "lineage", lineageFields)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(gen.rows(rows)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path, gen
}

// appendLineage commits the generator's next n rows to path.
func appendLineage(t *testing.T, path string, gen *lineageGen, n int) {
	t.Helper()
	w, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(gen.rows(n)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// releaseQueries reads every column of the lineage schema between them.
func releaseQueries(rows int64) []string {
	qs := lineageQueries(rand.New(rand.NewSource(rows)), rows)
	return append(qs,
		"SELECT id, val, cat FROM lineage WHERE id % 997 = 3",
		"SELECT COUNT(*) AS n, SUM(val) AS s, MIN(wide) AS w FROM lineage",
	)
}

// answers runs every query on db and renders each answer exactly: every
// cell's kind and bits, or the error.
func answers(db engine.DB, queries []string) []string {
	out := make([]string, len(queries))
	for i, sql := range queries {
		res, err := execSQL(db, sql)
		if err != nil {
			out[i] = "error: " + err.Error()
			continue
		}
		var b strings.Builder
		fmt.Fprintln(&b, res.Cols)
		for r := 0; r < res.Len(); r++ {
			for c := range res.Cols {
				v := res.Value(r, c)
				fmt.Fprintf(&b, "%d:%q:%d:%x|", v.Kind, v.S, v.I, math.Float64bits(v.F))
			}
			b.WriteByte('\n')
		}
		out[i] = b.String()
	}
	return out
}

// coldAnswers is what a cold Open of path, loaded whole, answers.
func coldAnswers(t *testing.T, path string, queries []string) []string {
	t.Helper()
	ref, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.LoadAll(); err != nil {
		t.Fatal(err)
	}
	return answers(engine.NewColumnStoreFromSource(ref), queries)
}

func assertAnswers(t *testing.T, what string, got, want []string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: query %d answers\n%.300s\nwant\n%.300s", what, i, got[i], want[i])
		}
	}
}

// TestReleaseThenRescanIsBitIdentical: the unloaded twin of a loaded reader
// has nothing in place and answers bit for bit as the reader did, reading
// the blocks again; the reader itself answers on from the blocks it has.

// TestReleaseThenRescanIsBitIdentical: every scan reads its segments again,
// so a Reader scanned twice reads each block twice — nothing stays in place
// between scans — and answers bit for bit as before and as a cold Open of
// the file loaded whole.
func TestReleaseThenRescanIsBitIdentical(t *testing.T) {
	const rows = 3*engine.SegmentSize + 77
	path, _ := lineageFile(t, rows, 24)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	db := fragmentStore(r, 2)
	queries := releaseQueries(rows)
	first := answers(db, queries)
	reads := r.SegmentLoads()
	assertAnswers(t, "the second scan", answers(db, queries), first)
	if got := r.SegmentLoads(); got != 2*reads {
		t.Fatalf("the second scan read %d segments, the first %d: want the same again", got-reads, reads)
	}
	if n := r.Table().Column("val").Len(); n != 0 {
		t.Fatalf("the Reader's table holds %d cells after two scans, want none", n)
	}
	assertAnswers(t, "a cold Open", first, coldAnswers(t, path, queries))
}

// TestReleaseConcurrentScans: scans of one Reader and of its successors over
// appends run at once, each reading into a scratch of its own, and every
// answer is what a cold Open of its snapshot answers: the race detector sees
// no shared write.
func TestReleaseConcurrentScans(t *testing.T) {
	rows := 2*engine.SegmentSize + 500
	path, gen := lineageFile(t, rows, 27)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { r.Close() }()
	readers := []*Reader{r}
	wants := [][]string{coldAnswers(t, path, releaseQueries(int64(rows)))}
	for _, n := range []int{300, engine.SegmentSize} {
		appendLineage(t, path, gen, n)
		rows += n
		if r, err = r.Reopen(); err != nil {
			t.Fatal(err)
		}
		readers = append(readers, r)
		wants = append(wants, coldAnswers(t, path, releaseQueries(int64(rows))))
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := g % len(readers)
			got := answers(fragmentStore(readers[k], 2), releaseQueries(int64(readers[k].Rows())))
			for i := range got {
				if got[i] != wants[k][i] {
					t.Errorf("scanner %d, snapshot %d, query %d:\n%.300s\nwant\n%.300s", g, k, i, got[i], wants[k][i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestReleaseDropsEnsuredColumns: DistinctSorted over a raw column reads the
// column a segment at a time and keeps only its distinct values — the
// Reader's table holds no cell of it afterwards — and enumerates the same
// values every time, and as the column holds them.
func TestReleaseDropsEnsuredColumns(t *testing.T) {
	const rows = 2*engine.SegmentSize + 3
	path, _ := lineageFile(t, rows, 26)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, name := range []string{"id", "val"} {
		c := r.Table().Column(name)
		if c.Coded() {
			t.Fatalf("%s is dictionary-coded; the test wants a raw column", name)
		}
		got := c.DistinctSorted()
		if c.Len() != 0 {
			t.Fatalf("%s: the Reader's table holds %d cells after DistinctSorted, want none", name, c.Len())
		}
		if again := c.DistinctSorted(); len(again) != len(got) {
			t.Fatalf("%s: %d distinct values, then %d", name, len(got), len(again))
		}
		ref, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.LoadAll(); err != nil {
			t.Fatal(err)
		}
		want := ref.Table().Column(name).DistinctSorted() // the cells in memory
		ref.Close()
		if len(got) != len(want) {
			t.Fatalf("%s: %d distinct values, want %d", name, len(got), len(want))
		}
		for i := range want {
			if g, w := got[i], want[i]; g.Kind != w.Kind || g.I != w.I || math.Float64bits(g.F) != math.Float64bits(w.F) {
				t.Fatalf("%s: distinct value %d is %v, want %v", name, i, g, w)
			}
		}
	}
}

// TestReleaseReloadMeetsCorruption: the corruption contract holds for every
// read. A block scanned once and then corrupted on disk fails the next scan
// that reads it, on every attempt, naming its segment and column, and a
// query that does not read it answers as before.
func TestReleaseReloadMeetsCorruption(t *testing.T) {
	tb := testTable(2*engine.SegmentSize + 10)
	path := buildFile(t, tb)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	db := engine.NewColumnStoreFromSource(r)
	queries := []string{
		"SELECT year, SUM(profit) AS p FROM sales GROUP BY year ORDER BY year",
		"SELECT product, COUNT(*) AS n FROM sales GROUP BY product ORDER BY product",
	}
	want := answers(db, queries)
	for _, w := range want {
		if strings.HasPrefix(w, "error") {
			t.Fatal(w)
		}
	}
	flipProfit(t, path, r, tb)
	for attempt := 0; attempt < 2; attempt++ {
		got := answers(db, queries)
		if !strings.Contains(got[0], "segment 1") || !strings.Contains(got[0], `"profit"`) || !strings.Contains(got[0], "checksum mismatch") {
			t.Errorf("attempt %d: reading the corrupted block again: %.300s, want its checksum error", attempt, got[0])
		}
		if got[1] != want[1] {
			t.Errorf("attempt %d: a query that does not read the block: %.300s, want %.300s", attempt, got[1], want[1])
		}
	}
}

// flipProfit flips a byte of segment 1's profit block of the file at path,
// which r and tb describe.
func flipProfit(t *testing.T, path string, r *Reader, tb *dataset.Table) {
	t.Helper()
	j := slices.IndexFunc(tb.Fields(), func(f dataset.Field) bool { return f.Name == "profit" })
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	off := r.foot.segs[1].blocks[j].off + 5
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// TestAdoptDoesNotInheritLoadFailure: no Reader remembers a failed read, so
// nothing inherits one: a block corrupted on disk fails the Reader's scans
// and its successor's, and once it is repaired both read it again and
// answer as before.
func TestAdoptDoesNotInheritLoadFailure(t *testing.T) {
	tb := testTable(2*engine.SegmentSize + 10)
	path := buildFile(t, tb)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	queries := []string{"SELECT year, SUM(profit) AS p FROM sales GROUP BY year ORDER BY year"}
	want := answers(engine.NewColumnStoreFromSource(r), queries)
	flipProfit(t, path, r, tb)
	succ, err := r.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []*Reader{r, succ} {
		if got := answers(engine.NewColumnStoreFromSource(x), queries); !strings.Contains(got[0], "checksum mismatch") {
			t.Fatalf("a scan of the corrupted block: %.300s, want its checksum error", got[0])
		}
	}
	flipProfit(t, path, r, tb) // flipped back: repaired
	for _, x := range []*Reader{r, succ} {
		assertAnswers(t, "after the repair", answers(engine.NewColumnStoreFromSource(x), queries), want)
	}
}
