package zpack

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// The adopted-vs-cold differential: whatever a Reader produced by Reopen
// shares with its predecessor, it must answer exactly as a cold Open of the
// same file does.

var lineageFields = []dataset.Field{
	{Name: "cat", Kind: dataset.KindString}, // dictionary grows at the end
	{Name: "grp", Kind: dataset.KindInt},    // small int dictionary
	{Name: "wide", Kind: dataset.KindInt},   // int dictionary that overflows
	{Name: "id", Kind: dataset.KindInt},     // unique, clustered: never encoded
	{Name: "val", Kind: dataset.KindFloat},
}

// lineageGen produces the rows of the lineage; the knobs are what an append
// may introduce.
type lineageGen struct {
	rng   *rand.Rand
	next  int64
	cats  int     // cat draws from c0..c<cats-1>
	grps  []int64 // grp draws from these
	wides int64   // wide draws from [0, wides)
}

func (g *lineageGen) rows(n int) []dataset.Row {
	out := make([]dataset.Row, n)
	for i := range out {
		val := g.rng.NormFloat64() * 100
		if g.rng.Intn(97) == 0 {
			val = math.NaN()
		}
		out[i] = dataset.Row{
			dataset.SV(fmt.Sprintf("c%d", g.rng.Intn(g.cats))),
			dataset.IV(g.grps[g.rng.Intn(len(g.grps))]),
			dataset.IV(g.next % g.wides),
			dataset.IV(g.next),
			dataset.FV(val),
		}
		g.next++
	}
	return out
}

// loadedCols snapshots which columns of each segment of r are materialised,
// a bit per column (the test schemas have fewer than 64).
func loadedCols(r *Reader) []uint64 {
	out := make([]uint64, len(r.loads))
	for s, l := range r.loads {
		out[s] = l.loaded[0].Load()
	}
	return out
}

// allLoaded reports whether every block of segment s of r is in place.
func allLoaded(r *Reader, s int) bool {
	return r.loads[s].hasAll(engine.AllColumns(len(r.foot.fields)))
}

// randomCols draws a non-empty random subset of n columns.
func randomCols(rng *rand.Rand, n int) engine.ColumnSet {
	cols := engine.NewColumnSet(n)
	for cols[0] == 0 {
		for j := 0; j < n; j++ {
			if rng.Intn(2) == 0 {
				cols.Add(j)
			}
		}
	}
	return cols
}

// assertLoadedBlocksEqual checks every block r has in place against the same
// rows of the fully loaded ref.
func assertLoadedBlocksEqual(t *testing.T, r, ref *Reader) {
	t.Helper()
	for s, l := range r.loads {
		lo := s * engine.SegmentSize
		for j, c := range r.table.Columns() {
			if !l.has(j) {
				continue
			}
			rc := ref.table.Columns()[j]
			for i := lo; i < lo+r.SegmentRows(s); i++ {
				g, w := c.Value(i), rc.Value(i)
				if g.S != w.S || g.I != w.I || math.Float64bits(g.F) != math.Float64bits(w.F) {
					t.Fatalf("segment %d column %s row %d: %v, want %v", s, c.Field.Name, i, g, w)
				}
			}
		}
	}
}

// assertUnloadedZero checks that r's storage no block has been read into
// reads as zeros: in each segment, the rows a column not in place still has
// to fill, and every column's headroom past the last row.
func assertUnloadedZero(t *testing.T, r *Reader) {
	t.Helper()
	nonzero := func(b byte) bool { return b != 0 }
	for j, c := range r.table.Columns() {
		b, width := arrayBytes(c)
		for s, l := range r.loads {
			if l.has(j) {
				continue
			}
			hi := s*engine.SegmentSize + r.SegmentRows(s)
			if i := slices.IndexFunc(b[l.from*width:hi*width], nonzero); i >= 0 {
				t.Fatalf("segment %d column %s: unloaded row %d is not zero", s, c.Field.Name, l.from+i/width)
			}
		}
		if slices.ContainsFunc(b[r.Rows()*width:], nonzero) {
			t.Fatalf("column %s: headroom past row %d is not zero", c.Field.Name, r.Rows())
		}
	}
}

// changedSegs counts the segments of next that pred does not index the same
// way: the rewritten tail and everything after it.
func changedSegs(pred, next *Reader) int {
	n := 0
	for s, seg := range next.foot.segs {
		if s >= len(pred.foot.segs) || !sameSegment(pred.foot.segs[s], seg) {
			n++
		}
	}
	return n
}

// assertSameStorage compares two fully loaded readers of one file cell for
// cell (floats by bit pattern, so NaN equals NaN), with their dictionaries,
// zone maps and int-dictionary codes.
func assertSameStorage(t *testing.T, got, want *Reader) {
	t.Helper()
	if got.Rows() != want.Rows() || got.NumSegments() != want.NumSegments() || got.Table().Name != want.Table().Name {
		t.Fatalf("shape %q %d rows/%d segs, want %q %d/%d", got.Table().Name, got.Rows(), got.NumSegments(),
			want.Table().Name, want.Rows(), want.NumSegments())
	}
	assertPrefixEqual(t, got.Table(), want.Table())
	for j, wc := range want.Table().Columns() {
		gc := got.Table().Columns()[j]
		name := wc.Field.Name
		if !slices.Equal(gc.Dict(), wc.Dict()) {
			t.Fatalf("column %s: dictionary differs", name)
		}
		// (NaN never equals itself, and the cells are compared above.)
		if wc.Field.Kind != dataset.KindFloat && !reflect.DeepEqual(gc.DistinctSorted(), wc.DistinctSorted()) {
			t.Fatalf("column %s: distinct values differ", name)
		}
		if !reflect.DeepEqual(got.Zone(name), want.Zone(name)) {
			t.Fatalf("column %s: zone maps differ", name)
		}
		if gc.Coded() != wc.Coded() || !slices.Equal(gc.IntDict(), wc.IntDict()) || gc.Codes().Width() != wc.Codes().Width() {
			t.Fatalf("column %s: coded %v at width %d over %d values, want %v at %d over %d", name,
				gc.Coded(), gc.Codes().Width(), len(gc.IntDict()), wc.Coded(), wc.Codes().Width(), len(wc.IntDict()))
		}
		for i := 0; gc.Coded() && i < gc.Len(); i++ {
			if gc.Code(i) != wc.Code(i) {
				t.Fatalf("column %s row %d: code %d, want %d", name, i, gc.Code(i), wc.Code(i))
			}
		}
	}
}

// assertPrefixEqual checks that every row of got equals the same row of want
// (want may be longer: an older snapshot against a newer one).
func assertPrefixEqual(t *testing.T, got, want *dataset.Table) {
	t.Helper()
	n := got.NumRows()
	for j, wc := range want.Columns() {
		gc := got.Columns()[j]
		if gc.Field != wc.Field || gc.Len() != n {
			t.Fatalf("column %d: field %+v len %d, want %+v len %d", j, gc.Field, gc.Len(), wc.Field, n)
		}
		for i := 0; i < n; i++ {
			g, w := gc.Value(i), wc.Value(i)
			if g.S != w.S || g.I != w.I || math.Float64bits(g.F) != math.Float64bits(w.F) {
				t.Fatalf("column %s row %d: %v, want %v", wc.Field.Name, i, g, w)
			}
		}
	}
}

func lineageQueries(rng *rand.Rand, rows int64) []string {
	lo := rng.Int63n(rows)
	hi := lo + 1 + rng.Int63n(rows/4+1)
	return []string{
		fmt.Sprintf("SELECT grp, COUNT(*) AS n, SUM(val) AS s FROM lineage WHERE id >= %d AND id < %d GROUP BY grp ORDER BY grp", lo, hi),
		fmt.Sprintf("SELECT wide, MAX(val) AS m FROM lineage WHERE cat = 'c%d' AND id < %d GROUP BY wide ORDER BY wide", rng.Intn(12), hi),
		fmt.Sprintf("SELECT cat, MIN(id) AS lo, AVG(val) AS a FROM lineage WHERE grp = %d AND id >= %d GROUP BY cat ORDER BY cat", 10*(1+rng.Intn(4)), lo),
	}
}

func TestAdoptedLineageMatchesColdOpen(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	gen := &lineageGen{rng: rng, cats: 4, grps: []int64{10, 20, 30}, wides: 3000}
	path := filepath.Join(t.TempDir(), "lineage.zpack")
	w, err := Create(path, "lineage", lineageFields)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Discard()
	if err := w.Append(gen.rows(6000)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	// Two lineages over the one file: full is loaded completely after every
	// Reopen (so the next successor adopts only loaded segments), lazy only
	// ever loads what a few direct Loads and the queries touch (so it keeps
	// handing on segments nobody has read yet).
	full, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { full.Close(); lazy.Close() }()
	if err := full.LoadAll(); err != nil {
		t.Fatal(err)
	}

	const steps = 56
	regrown, partial := 0, 0
	for step := 1; step <= steps; step++ {
		cold := false // whether this append must force the cold path
		size := 1 + rng.Intn(5000)
		switch {
		case step%7 == 0:
			size = 1 + rng.Intn(3)
		case step%5 == 0:
			gen.cats++ // a new string value: the dictionary grows, adoption holds
		}
		switch step {
		case 12:
			gen.grps = append(gen.grps, 40) // above every value: adoption holds
		case 23:
			gen.grps = append(gen.grps, 5) // below every value: codes are in appearance order, so adoption still holds
		case 37:
			gen.wides, size = 6000, 5000 // past MaxIntDictCardinality
			cold = true
		case 44:
			gen.cats, size = 256, 600 // fills the one-byte codes exactly: adoption holds
		case 45:
			cold = true // step%5 has just added the 257th value: the codes widen
		}
		rows := gen.rows(size)
		switch step { // make sure the values really land
		case 23:
			rows[0][1] = dataset.IV(5)
		case 44:
			for i := 0; i < 256; i++ {
				rows[i][0] = dataset.SV(fmt.Sprintf("c%d", i))
			}
		case 45:
			rows[0][0] = dataset.SV("c256")
		}
		for s := 0; s < 2 && lazy.NumSegments() > 0; s++ {
			if err := lazy.Load(rng.Intn(lazy.NumSegments()), randomCols(rng, len(lineageFields))); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Append(rows); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		ref, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.LoadAll(); err != nil {
			t.Fatal(err)
		}

		// The fully loaded lineage.
		next, err := full.Reopen()
		if err != nil {
			t.Fatal(err)
		}
		if err := next.LoadAll(); err != nil {
			t.Fatal(err)
		}
		assertSameStorage(t, next, ref)
		assertPrefixEqual(t, full.Table(), ref.Table()) // the old snapshot is undisturbed
		want := changedSegs(full, next)
		if cold {
			want = next.NumSegments()
		}
		if got := next.SegmentLoads(); got != int64(want) {
			t.Fatalf("step %d (cold=%v): successor read %d segments from disk, want %d of %d",
				step, cold, got, want, next.NumSegments())
		}
		full = next

		// The lazily loaded lineage: random column subsets of random
		// segments, so both the aliased and the reallocated hand-over meet
		// segments that are partly in place.
		hadLoaded := loadedCols(lazy)
		oldBase := &lazy.table.Columns()[4].Floats()[0]
		next, err = lazy.Reopen()
		if err != nil {
			t.Fatal(err)
		}
		pre := loadedCols(next)
		for s, bits := range pre {
			want := uint64(0)
			if s < len(hadLoaded) && sameSegment(lazy.foot.segs[s], next.foot.segs[s]) && !cold {
				want = hadLoaded[s]
			}
			if bits != want {
				t.Fatalf("step %d (cold=%v): segment %d starts with columns %05b loaded, want %05b", step, cold, s, bits, want)
			}
			if want != 0 && want != 1<<len(lineageFields)-1 {
				partial++
			}
		}
		if !cold && &next.table.Columns()[4].Floats()[0] != oldBase {
			regrown++
			assertUnloadedZero(t, next)
		}
		assertLoadedBlocksEqual(t, next, ref)
		if tail := len(lazy.loads) - 1; !cold && !sameSegment(lazy.foot.segs[tail], next.foot.segs[tail]) && !allLoaded(lazy, tail) {
			t.Fatalf("step %d: predecessor's tail not loaded before the hand-over", step)
		}
		for s := 0; s < 2; s++ {
			if err := next.Load(rng.Intn(next.NumSegments()), randomCols(rng, len(lineageFields))); err != nil {
				t.Fatal(err)
			}
		}
		adopted := fragmentStore(next, 3)
		fresh := fragmentStore(ref, 3)
		for _, sql := range lineageQueries(rng, gen.next) {
			wantRes, err := execSQL(fresh, sql)
			if err != nil {
				t.Fatalf("step %d: %s: %v", step, sql, err)
			}
			gotRes, err := execSQL(adopted, sql)
			if err != nil {
				t.Fatalf("step %d: %s: %v", step, sql, err)
			}
			if g, w := fmt.Sprint(gotRes.Cols, gotRes.Rows()), fmt.Sprint(wantRes.Cols, wantRes.Rows()); g != w {
				t.Fatalf("step %d: %s:\n got %s\nwant %s", step, sql, g, w)
			}
		}
		read := 0
		for s, bits := range loadedCols(next) {
			if bits != pre[s] {
				read++
			}
		}
		assertLoadedBlocksEqual(t, next, ref)
		if got := next.SegmentLoads(); got != int64(read) {
			t.Fatalf("step %d: lazy successor counts %d disk reads, %d segments became loaded", step, got, read)
		}
		lazy = next
		ref.Close()
	}
	t.Logf("%d appends to %d rows in %d segments; arrays reallocated %d times", steps, lazy.Rows(), lazy.NumSegments(), regrown)
	if regrown < 2 {
		t.Fatalf("lineage outgrew its headroom %d times, want at least 2", regrown)
	}
	if regrown > 20 {
		t.Fatalf("lineage reallocated %d times in %d appends: headroom is not amortising", regrown, steps)
	}
	if partial < steps {
		t.Fatalf("only %d segments were handed on partly loaded in %d appends", partial, steps)
	}
	ref, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.LoadAll(); err != nil {
		t.Fatal(err)
	}
	if err := lazy.LoadAll(); err != nil {
		t.Fatal(err)
	}
	assertSameStorage(t, lazy, ref)
}

// appendRows commits n more rows of genTable's shape to path.
func appendRows(t *testing.T, path string, n int, tag string) {
	t.Helper()
	w, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendTable(genTable("x", n, tag)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAdoptedLoadIsSharedAcrossSnapshots is hazard 1: a segment nobody has
// read when the snapshot is handed on may be wanted by scans of the old and
// the new snapshot at once. They share one load state, so the race detector
// sees one writer, and the disk sees one read.
func TestAdoptedLoadIsSharedAcrossSnapshots(t *testing.T) {
	const segs = 6
	path := filepath.Join(t.TempDir(), "shared.zpack")
	if err := Build(path, genTable("shared", segs*engine.SegmentSize+100, "a")); err != nil {
		t.Fatal(err)
	}
	r0, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, path, 50, "a")
	r1, err := r0.Reopen() // outgrows the exact-size arrays: nothing loaded, nothing shared
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, path, 50, "b")
	r2, err := r1.Reopen() // inside r1's headroom: every full segment shared, all unread
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if &r2.table.Columns()[1].Ints()[0] != &r1.table.Columns()[1].Ints()[0] {
		t.Fatal("second successor did not alias the first's arrays")
	}
	var wg sync.WaitGroup
	for _, r := range []*Reader{r1, r2, r1, r2} {
		wg.Add(1)
		go func(r *Reader) {
			defer wg.Done()
			for s := 0; s < r.NumSegments(); s++ {
				if err := r.Load(s, engine.AllColumns(len(r.foot.fields))); err != nil {
					t.Error(err)
				}
			}
			sum := int64(0)
			for _, v := range r.table.Columns()[1].Ints() {
				sum += v
			}
			_ = sum
		}(r)
	}
	wg.Wait()
	// r1 read its own tail for the hand-over; the six full segments were read
	// once between the two, and r2 alone read its rewritten tail.
	if got := r1.SegmentLoads() + r2.SegmentLoads(); got != segs+2 {
		t.Fatalf("the two snapshots read %d segments from disk, want %d", got, segs+2)
	}
	ref, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.LoadAll(); err != nil {
		t.Fatal(err)
	}
	assertSameStorage(t, r2, ref)
	assertPrefixEqual(t, r1.Table(), ref.Table())
	if err := r0.LoadAll(); err != nil { // the exact-size original, on its own arrays
		t.Fatal(err)
	}
	assertPrefixEqual(t, r0.Table(), ref.Table())
}

// TestAdoptDoesNotInheritLoadFailure is hazard 4: a checksum failure belongs
// to the snapshot that met it. Its successor reads the block again.
func TestAdoptDoesNotInheritLoadFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flaky.zpack")
	if err := Build(path, genTable("flaky", 3*engine.SegmentSize, "a")); err != nil {
		t.Fatal(err)
	}
	r0, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, path, 10, "a")
	r1, err := r0.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()

	// Damage one byte of segment 1's int block, let r1 trip over it, repair it.
	off := r1.foot.segs[1].blocks[1].off + 17
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{b[0] ^ 0xff}, off); err != nil {
		t.Fatal(err)
	}
	int1 := engine.NewColumnSet(len(r1.foot.fields), 1)
	if err := r1.Load(1, int1); err == nil {
		t.Fatal("load of a damaged block succeeded")
	}
	r2, err := r1.Reopen() // nothing appended: same footer, same arrays
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Load(1, int1); err == nil {
		t.Fatal("successor took the damaged segment for loaded")
	}
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	if err := r1.Load(1, int1); err == nil {
		t.Fatal("a failed load must stay failed on the snapshot that met it")
	}
	r3, err := r2.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	if &r3.table.Columns()[1].Ints()[0] != &r1.table.Columns()[1].Ints()[0] {
		t.Fatal("successor of a snapshot with a failed segment went cold")
	}
	defer r3.Close()
	if err := r3.LoadAll(); err != nil {
		t.Fatalf("successor inherited a stale failure: %v", err)
	}
	ref, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.LoadAll(); err != nil {
		t.Fatal(err)
	}
	assertSameStorage(t, r3, ref)
}

// TestReopenGoesColdWhenAdoptionIsUnsafe: a second successor of one Reader,
// and a file rewritten in place under the same inode, start from empty
// storage like Open.
func TestReopenGoesColdWhenAdoptionIsUnsafe(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cold.zpack")
	if err := Build(path, genTable("cold", 100, "a")); err != nil {
		t.Fatal(err)
	}
	r0, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := r0.LoadAll(); err != nil {
		t.Fatal(err)
	}
	first, err := r0.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	second, err := r0.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	if first.loads[0] != r0.loads[0] || second.loads[0] == r0.loads[0] {
		t.Fatal("want the first successor to adopt and the second to start cold")
	}
	if err := second.LoadAll(); err != nil {
		t.Fatal(err)
	}
	assertSameStorage(t, second, first)

	// Same inode, same schema, more rows — but not a continuation: the blocks
	// sit where the old ones were.
	if err := Build(path, genTable("cold", 300, "a")); err != nil {
		t.Fatal(err)
	}
	rewritten, err := first.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	defer rewritten.Close()
	if allLoaded(rewritten, 0) {
		t.Fatal("a file rewritten in place was adopted")
	}
	if err := rewritten.LoadAll(); err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, rewritten.Table(), genTable("cold", 300, "a"))
}

// TestLineageAcrossWidthCrossings: dictionaries that outgrow a width mid-file
// — the categorical one past 256 entries, so one-byte code blocks are followed
// by two-byte ones, and an int one past MaxIntDictCardinality, so code blocks
// are followed by raw values decoded through the footer's old dictionary —
// read the same through a cold Open, a Reopen of a loaded predecessor (cold at
// each crossing, adopted after) and Verify.
func TestLineageAcrossWidthCrossings(t *testing.T) {
	const S = engine.SegmentSize
	gen := &lineageGen{rng: rand.New(rand.NewSource(3)), cats: 200, grps: []int64{1, 2, 3}, wides: 3000}
	path := filepath.Join(t.TempDir(), "crossing.zpack")
	w, err := Create(path, "lineage", lineageFields)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Discard()
	commit := func(rows []dataset.Row) {
		t.Helper()
		if err := w.Append(rows); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	commit(gen.rows(2*S + 10))
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { r.Close() }()
	steps := []struct {
		grow func()
		rows int
		cold bool
	}{
		{func() { gen.cats = 400 }, S, true},          // cat codes widen to two bytes
		{func() { gen.wides = 1 << 40 }, 2 * S, true}, // every wide value new: the column goes raw
		{func() {}, 100, false},                       // no crossing: adoption holds over mixed widths
	}
	for i, st := range steps {
		if err := r.LoadAll(); err != nil {
			t.Fatal(err)
		}
		st.grow()
		commit(gen.rows(st.rows))
		next, err := r.Reopen()
		if err != nil {
			t.Fatal(err)
		}
		want := changedSegs(r, next)
		if st.cold {
			want = next.NumSegments()
		}
		if err := next.LoadAll(); err != nil {
			t.Fatal(err)
		}
		if got := next.SegmentLoads(); got != int64(want) {
			t.Fatalf("step %d: successor read %d segments, want %d", i, got, want)
		}
		cold, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := cold.LoadAll(); err != nil {
			t.Fatal(err)
		}
		assertSameStorage(t, next, cold)
		if err := cold.Verify(); err != nil {
			t.Fatal(err)
		}
		cold.Close()
		r = next
	}
	for j, want := range map[int][]string{0: {"codes8", "codes16"}, 2: {"codes16", "values64"}} {
		if got := encodings(r, j); !slices.Equal(got, want) {
			t.Errorf("column %s: blocks %v, want %v", lineageFields[j].Name, got, want)
		}
	}
}
