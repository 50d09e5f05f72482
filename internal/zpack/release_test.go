package zpack

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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

// TestReleaseThenRescanIsBitIdentical: the unloaded twin of a loaded reader
// has nothing in place and answers bit for bit as the reader did, reading
// the blocks again; the reader itself answers on from the blocks it has.
func TestReleaseThenRescanIsBitIdentical(t *testing.T) {
	const rows = 3*engine.SegmentSize + 500
	path, _ := lineageFile(t, rows, 21)
	queries := releaseQueries(rows)
	want := coldAnswers(t, path, queries)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { r.Close() }()
	for _, shards := range []int{1, 3} {
		db := engine.NewShardedStoreFromSource(shards, r)
		assertAnswers(t, "before the release", answers(db, queries), want)
		resident := r.ResidentBytes()
		if resident == 0 {
			t.Fatal("the scans loaded nothing")
		}
		u, n := r.Unloaded()
		if n == 0 {
			t.Fatal("Unloaded() counted no block in place on a loaded reader")
		}
		if got := u.ResidentBytes(); got != 0 {
			t.Fatalf("%d bytes resident in the twin", got)
		}
		if slices.ContainsFunc(loadedCols(u), func(w uint64) bool { return w != 0 }) {
			t.Fatalf("load bits %b in the twin", loadedCols(u))
		}
		if u.SegmentLoads() != 0 || u.Rows() != r.Rows() || u.NumSegments() != r.NumSegments() {
			t.Fatalf("twin: %d segment loads, %d rows in %d segments; want 0, %d in %d", u.SegmentLoads(), u.Rows(), u.NumSegments(), r.Rows(), r.NumSegments())
		}
		assertAnswers(t, "the twin", answers(engine.NewShardedStoreFromSource(shards, u), queries), want)
		assertAnswers(t, "the reader after the release", answers(db, queries), want)
		if got := r.ResidentBytes(); got != resident {
			t.Errorf("the reader has %d bytes in place after the release, want its %d", got, resident)
		}
		r = u
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

// stalledScan starts the queries on a store over a stalled r and returns once
// the scan is in flight, with the channel its answers arrive on and the one
// that lets it go on. Nothing it returns reaches r.
//
//go:noinline
func stalledScan(r *Reader, queries []string) (<-chan []string, chan<- struct{}) {
	src := &stalledSource{Reader: r, entered: make(chan struct{}), proceed: make(chan struct{})}
	db := engine.NewColumnStoreFromSource(src)
	done := make(chan []string)
	go func() { done <- answers(db, queries) }()
	<-src.entered
	return done, src.proceed
}

// TestReleaseLeavesAScanItsArrays: a release in the middle of a scan takes
// nothing from it. The scan in flight is all that still reaches the old
// reader, and collections meanwhile leave its arrays mapped: it answers as a
// cold Open does, and so does the twin.
func TestReleaseLeavesAScanItsArrays(t *testing.T) {
	const rows = 2*engine.SegmentSize + 9
	path, _ := lineageFile(t, rows, 22)
	queries := releaseQueries(rows)
	want := coldAnswers(t, path, queries)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	answers(engine.NewColumnStoreFromSource(r), queries) // blocks in place
	done, proceed := stalledScan(r, queries)
	u, _ := r.Unloaded()
	defer u.Close()
	r = nil
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	close(proceed)
	assertAnswers(t, "the scan in flight across the release", <-done, want)
	assertAnswers(t, "the twin", answers(engine.NewColumnStoreFromSource(u), queries), want)
}

// generation is one snapshot a releasing reader serves from: the reader and
// the stores over it.
type generation struct {
	r   *Reader
	dbs []engine.DB
}

func newGeneration(r *Reader) *generation {
	return &generation{r, []engine.DB{engine.NewColumnStoreFromSource(r), engine.NewShardedStoreFromSource(3, r)}}
}

// TestReleaseConcurrentScans races scanners, through a one-range and a
// sharded store, against a loop of releases that swap the stores over the
// current reader's unloaded twin and collect now and then: every answer is
// the one a reader that never releases gives.
func TestReleaseConcurrentScans(t *testing.T) {
	const rows = 4*engine.SegmentSize + 77
	path, _ := lineageFile(t, rows, 23)
	queries := releaseQueries(rows)
	want := coldAnswers(t, path, queries)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var cur atomic.Pointer[generation]
	cur.Store(newGeneration(r))
	defer func() { cur.Load().r.Close() }()

	const scanners, rounds = 4, 12
	stop := make(chan struct{})
	var released, swaps int
	var releaser sync.WaitGroup
	releaser.Add(1)
	go func() {
		defer releaser.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			u, n := cur.Load().r.Unloaded()
			cur.Store(newGeneration(u))
			if swaps++; swaps%8 == 0 {
				runtime.GC()
			}
			released += n
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
				dbs := cur.Load().dbs
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
	releaser.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if released == 0 {
		t.Errorf("%d releases dropped no block", swaps)
	}
	t.Logf("%d releases dropped %d blocks", swaps, released)
}

// TestReleaseDropsAdoptedTail: the twin holds no block of a partial tail
// adopted from a predecessor — not even the rows the predecessor's block
// filled — and reads the whole tail again from its own footer, as a cold
// Open does.
func TestReleaseDropsAdoptedTail(t *testing.T) {
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
	u, n := r2.Unloaded()
	defer u.Close()
	if want := len(lineageFields) * r2.NumSegments(); n != want || u.ResidentBytes() != 0 {
		t.Fatalf("Unloaded() counted %d blocks and left %d bytes resident, want every block, %d, and none", n, u.ResidentBytes(), want)
	}
	queries := releaseQueries(rows + 50)
	assertAnswers(t, "the twin of a reader with an adopted tail", answers(engine.NewColumnStoreFromSource(u), queries), coldAnswers(t, path, queries))
}

// TestReleaseDropsEnsuredColumns: a raw column the DistinctSorted hook loaded
// is dropped with a scan's blocks of the other columns; the hook on the twin
// loads it again and enumerates the same values.
func TestReleaseDropsEnsuredColumns(t *testing.T) {
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
	distinct := id.DistinctSorted()
	if len(distinct) != rows {
		t.Fatalf("%d distinct ids, want %d", len(distinct), rows)
	}
	queries := releaseQueries(rows)
	answers(engine.NewColumnStoreFromSource(r), queries)
	j := slices.IndexFunc(lineageFields, func(f dataset.Field) bool { return f.Name == "id" })
	loaded := 0
	for s, w := range loadedCols(r) {
		if w&(1<<j) == 0 {
			t.Fatalf("segment %d: load bits %b, want id's %b among them", s, w, 1<<j)
		}
		loaded += bits.OnesCount64(w)
	}
	u, n := r.Unloaded()
	defer u.Close()
	if n != loaded || u.ResidentBytes() != 0 {
		t.Fatalf("Unloaded() counted %d blocks and left %d bytes resident, want every loaded block, %d, and none", n, u.ResidentBytes(), loaded)
	}
	if got := u.Table().Column("id").DistinctSorted(); !slices.Equal(got, distinct) {
		t.Errorf("the hook on the twin enumerates %d ids, want the %d it did before", len(got), len(distinct))
	}
	assertAnswers(t, "the twin of a reader whose id column the hook loaded", answers(engine.NewColumnStoreFromSource(u), queries), coldAnswers(t, path, queries))
}

// TestReleaseThenAppendAdoptsUnloaded: appends after a release adopt the
// twin's unloaded state — over fresh arrays (the first append outgrows the
// exact size the twin was presized at) and over the same ones — and answer
// as a cold Open does.
func TestReleaseThenAppendAdoptsUnloaded(t *testing.T) {
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
		u, blocks := r.Unloaded()
		if blocks == 0 {
			t.Fatalf("step %d: the release dropped no block", step)
		}
		r = u
		appendLineage(t, path, gen, n)
		rows += n
		next, err := r.Reopen()
		if err != nil {
			t.Fatal(err)
		}
		if !r.adopted.Load() {
			t.Fatalf("step %d: the successor did not adopt the twin", step)
		}
		r = next
		queries = releaseQueries(int64(rows))
		assertAnswers(t, fmt.Sprintf("step %d after the append", step), answers(engine.NewColumnStoreFromSource(r), queries), coldAnswers(t, path, queries))
	}
}

// TestReleaseReloadMeetsCorruption: the corruption contract holds for blocks
// read again. A block loaded and then corrupted on disk still answers from
// memory; the twin's query that reads it fails with the checksum error, and
// one that does not read it answers correctly.
func TestReleaseReloadMeetsCorruption(t *testing.T) {
	tb := testTable(2*engine.SegmentSize + 10)
	path := buildFile(t, tb)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
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
	u, n := r.Unloaded()
	defer u.Close()
	if n == 0 {
		t.Fatal("the release dropped no block")
	}
	got := answers(engine.NewColumnStoreFromSource(u), queries)
	if !strings.Contains(got[0], "segment 1") || !strings.Contains(got[0], `"profit"`) || !strings.Contains(got[0], "checksum mismatch") {
		t.Errorf("reading the corrupted block again: %.300s, want its checksum error", got[0])
	}
	if got[1] != want[1] {
		t.Errorf("a query that does not read the block: %.300s, want %.300s", got[1], want[1])
	}
	assertAnswers(t, "the released reader, from memory", answers(db, queries), want)
}
