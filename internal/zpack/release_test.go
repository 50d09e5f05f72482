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
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
)

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

// coldAnswers is what a fully loaded cold Open of path answers.
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

func skipWithoutRelease(t *testing.T) {
	if !canRelease {
		t.Skip("releasePages gives no memory back on this platform: nothing is released")
	}
}

// TestReleaseThenRescanIsBitIdentical: a release leaves nothing resident, and
// the scans after it read the blocks again and answer bit for bit as before.
// Reading a block again does not count as another segment load.
func TestReleaseThenRescanIsBitIdentical(t *testing.T) {
	skipWithoutRelease(t)
	const rows = 3*engine.SegmentSize + 500
	path, _ := lineageFile(t, rows, 21)
	queries := releaseQueries(rows)
	want := coldAnswers(t, path, queries)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, shards := range []int{1, 3} {
		db := engine.NewShardedStoreFromSource(shards, r)
		assertAnswers(t, "before the release", answers(db, queries), want)
		if r.ResidentBytes() == 0 {
			t.Fatal("the scans loaded nothing")
		}
		n, ok := r.Release()
		if !ok || n == 0 {
			t.Fatalf("Release() = %d, %v on an idle reader with loaded blocks", n, ok)
		}
		if got := r.ResidentBytes(); got != 0 {
			t.Fatalf("%d bytes resident after a release", got)
		}
		if slices.ContainsFunc(loadedCols(r), func(w uint64) bool { return w != 0 }) {
			t.Fatalf("load bits %b after a release", loadedCols(r))
		}
		loads := r.SegmentLoads()
		assertAnswers(t, "after the release", answers(db, queries), want)
		if got := r.SegmentLoads(); got != loads {
			t.Errorf("segment loads went %d -> %d reading released blocks again", loads, got)
		}
	}
}

// stalledSource is a Reader whose first Load waits until proceed is closed,
// having closed entered: a scan that is in flight for as long as a test
// wants.
type stalledSource struct {
	*Reader
	once             sync.Once
	entered, proceed chan struct{}
}

func (s *stalledSource) Load(seg int, cols engine.ColumnSet) error {
	s.once.Do(func() {
		close(s.entered)
		<-s.proceed
	})
	return s.Reader.Load(seg, cols)
}

// TestReleaseFailsWhileAScanHoldsTheGate: neither Release nor an idle sweep
// gets the lineage while a scan of it is in flight, or while a caller holds
// BeginScan; both get it once the hold ends.
func TestReleaseFailsWhileAScanHoldsTheGate(t *testing.T) {
	skipWithoutRelease(t)
	const rows = 2*engine.SegmentSize + 9
	path, _ := lineageFile(t, rows, 22)
	queries := releaseQueries(rows)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	src := &stalledSource{Reader: r, entered: make(chan struct{}), proceed: make(chan struct{})}
	db := engine.NewColumnStoreFromSource(src)
	done := make(chan []string)
	go func() { done <- answers(db, queries) }()
	<-src.entered
	if n, ok := r.Release(); ok || n != 0 {
		t.Fatalf("Release() = %d, %v while a scan is in flight", n, ok)
	}
	for i := 0; i < 5; i++ {
		if n := r.Sweep(1); n != 0 {
			t.Fatalf("an idle sweep released %d blocks while a scan is in flight", n)
		}
	}
	close(src.proceed)
	assertAnswers(t, "the stalled scan", <-done, coldAnswers(t, path, queries))

	r.BeginScan()
	if _, ok := r.Release(); ok {
		t.Fatal("Release got the gate while BeginScan holds it")
	}
	r.EndScan()
	if n, ok := r.Release(); !ok || n == 0 {
		t.Fatalf("Release() = %d, %v once the hold ended", n, ok)
	}
}

// TestReleaseConcurrentScans races scanners of one reader, through a
// one-range and a sharded store, against a loop of releases: every answer is
// the one a store that never releases gives.
func TestReleaseConcurrentScans(t *testing.T) {
	skipWithoutRelease(t)
	const rows = 4*engine.SegmentSize + 77
	path, _ := lineageFile(t, rows, 23)
	queries := releaseQueries(rows)
	want := coldAnswers(t, path, queries)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	dbs := []engine.DB{engine.NewColumnStoreFromSource(r), engine.NewShardedStoreFromSource(3, r)}

	const scanners, rounds = 4, 12
	stop := make(chan struct{})
	var released, sweeps int
	var sweeper sync.WaitGroup
	sweeper.Add(1)
	go func() {
		defer sweeper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n, ok := r.Release(); ok {
				sweeps++
				released += n
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan string, scanners)
	for g := 0; g < scanners; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < rounds; i++ {
				k := rng.Intn(len(queries))
				got := answers(dbs[rng.Intn(len(dbs))], queries[k:k+1])[0]
				if got != want[k] {
					errs <- fmt.Sprintf("scanner %d round %d query %d:\n%.300s\nwant\n%.300s", g, i, k, got, want[k])
					return
				}
				time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	close(stop)
	sweeper.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if released == 0 {
		t.Errorf("the sweeper released nothing in %d releases", sweeps)
	}
	t.Logf("%d releases handed back %d blocks", sweeps, released)
}

// TestReleaseKeepsAdoptedTail: a successor's partial tail starts with rows a
// predecessor's block filled, which the successor cannot read again, so its
// blocks stay; the superseded predecessor releases nothing at all.
func TestReleaseKeepsAdoptedTail(t *testing.T) {
	skipWithoutRelease(t)
	const rows = 2*engine.SegmentSize + 100
	path, gen := lineageFile(t, rows, 24)
	r1, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	all := engine.AllColumns(len(lineageFields))
	for s := 0; s < r1.NumSegments(); s++ {
		if err := r1.Load(s, all); err != nil {
			t.Fatal(err)
		}
	}
	appendLineage(t, path, gen, 50)
	r2, err := r1.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	tail := r2.NumSegments() - 1
	if r2.loads[tail].from == tail*engine.SegmentSize {
		t.Fatalf("the tail was not adopted (from = %d)", r2.loads[tail].from)
	}
	if err := r2.Load(tail, all); err != nil {
		t.Fatal(err)
	}
	if n, ok := r1.Release(); !ok || n != 0 {
		t.Fatalf("the superseded reader: Release() = %d, %v, want 0, true", n, ok)
	}
	if n, ok := r2.Release(); !ok || n != len(lineageFields)*tail {
		t.Fatalf("Release() = %d, %v, want every block but the tail's %d", n, ok, len(lineageFields)*tail)
	}
	if !allLoaded(r2, tail) {
		t.Fatalf("the adopted tail's blocks were released: %b", loadedCols(r2)[tail])
	}
	var tailBytes int64
	for _, c := range r2.Table().Columns() {
		_, width := arrayBytes(c)
		tailBytes += int64(r2.SegmentRows(tail) * width)
	}
	if got := r2.ResidentBytes(); got != tailBytes {
		t.Errorf("resident %d bytes after the release, want the tail's %d", got, tailBytes)
	}
	queries := releaseQueries(rows + 50)
	assertAnswers(t, "the successor after a release", answers(engine.NewColumnStoreFromSource(r2), queries), coldAnswers(t, path, queries))
}

// TestReleaseThenAppendAdoptsUnloaded: appends after a release adopt the
// unloaded state — over fresh arrays (the first append outgrows Open's exact
// size) and over the same ones — and answer as a cold Open does.
func TestReleaseThenAppendAdoptsUnloaded(t *testing.T) {
	skipWithoutRelease(t)
	rows := 3*engine.SegmentSize + 100
	path, gen := lineageFile(t, rows, 25)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { r.Close() }()
	for step, n := range []int{300, 40, engine.SegmentSize} {
		queries := releaseQueries(int64(rows))
		assertAnswers(t, fmt.Sprintf("step %d before the release", step), answers(engine.NewColumnStoreFromSource(r), queries), coldAnswers(t, path, queries))
		if n, ok := r.Release(); !ok || n == 0 {
			t.Fatalf("step %d: Release() = %d, %v", step, n, ok)
		}
		appendLineage(t, path, gen, n)
		rows += n
		next, err := r.Reopen()
		if err != nil {
			t.Fatal(err)
		}
		if next.gate != r.gate {
			t.Fatalf("step %d: the successor did not adopt", step)
		}
		r = next
		queries = releaseQueries(int64(rows))
		assertAnswers(t, fmt.Sprintf("step %d after the append", step), answers(engine.NewColumnStoreFromSource(r), queries), coldAnswers(t, path, queries))
	}
}

// TestReleaseKeepsEnsuredColumns: a raw column the DistinctSorted hook loaded
// is read outside any scan, so it stays; a scan's blocks of the other columns
// go.
func TestReleaseKeepsEnsuredColumns(t *testing.T) {
	skipWithoutRelease(t)
	const rows = 2*engine.SegmentSize + 3
	path, _ := lineageFile(t, rows, 26)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	id := r.Table().Column("id")
	if id.Coded() {
		t.Fatal("id is dictionary-coded; the test wants a raw column")
	}
	if got := len(id.DistinctSorted()); got != rows {
		t.Fatalf("%d distinct ids, want %d", got, rows)
	}
	answers(engine.NewColumnStoreFromSource(r), releaseQueries(rows))
	if _, ok := r.Release(); !ok {
		t.Fatal("Release did not get an idle reader")
	}
	j := slices.IndexFunc(lineageFields, func(f dataset.Field) bool { return f.Name == "id" })
	for s, w := range loadedCols(r) {
		if w != 1<<j {
			t.Fatalf("segment %d: load bits %b after the release, want only id's %b", s, w, 1<<j)
		}
	}
}

// TestReleaseReloadMeetsCorruption: the corruption contract holds for blocks
// read again. A block loaded and then corrupted on disk still answers from
// memory; once released, the next query that reads it fails with the
// checksum error, and a query that does not read it answers correctly.
func TestReleaseReloadMeetsCorruption(t *testing.T) {
	skipWithoutRelease(t)
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

	j := slices.IndexFunc(tb.Fields(), func(f dataset.Field) bool { return f.Name == "profit" })
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	off := r.foot.segs[1].blocks[j].off + 5
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	assertAnswers(t, "corrupted on disk, before the release", answers(db, queries), want)
	if n, ok := r.Release(); !ok || n == 0 {
		t.Fatalf("Release() = %d, %v", n, ok)
	}
	got := answers(db, queries)
	if !strings.Contains(got[0], "segment 1") || !strings.Contains(got[0], `"profit"`) || !strings.Contains(got[0], "checksum mismatch") {
		t.Errorf("reading the corrupted block again: %.300s, want its checksum error", got[0])
	}
	if got[1] != want[1] {
		t.Errorf("a query that does not read the block: %.300s, want %.300s", got[1], want[1])
	}
}
