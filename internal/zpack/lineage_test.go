package zpack

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// The reopened-vs-cold differential: a Reader produced by Reopen after an
// append reads the new footer and nothing else, and must answer exactly as a
// cold Open of the same file does, while its predecessor answers on as it
// did.

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

// TestReopenedLineageMatchesColdOpen: over a lineage of appends that grow a
// string dictionary, grow an int dictionary above and below its values, take
// one past MaxIntDictCardinality and one past the one-byte codes, every
// Reopen reads no block, answers as a cold Open of the file does, and leaves
// its predecessor answering as before.
func TestReopenedLineageMatchesColdOpen(t *testing.T) {
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
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { r.Close() }()

	const steps = 48
	for step := 1; step <= steps; step++ {
		size := 1 + rng.Intn(5000)
		switch {
		case step%7 == 0:
			size = 1 + rng.Intn(3)
		case step%5 == 0:
			gen.cats++ // a new string value: the dictionary grows
		}
		switch step {
		case 12:
			gen.grps = append(gen.grps, 40) // above every value
		case 23:
			gen.grps = append(gen.grps, 5) // below every value: codes are in appearance order
		case 37:
			gen.wides, size = 6000, 5000 // past MaxIntDictCardinality
		case 44:
			gen.cats, size = 256, 600 // fills the one-byte codes exactly
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
			rows[0][0] = dataset.SV("c256") // the 257th value: the codes widen
		}
		qs := lineageQueries(rng, gen.next)
		before := make([]string, len(qs))
		old := fragmentStore(r, 3)
		for i, sql := range qs {
			before[i] = answer(t, old, sql)
		}
		if err := w.Append(rows); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		next, err := r.Reopen()
		if err != nil {
			t.Fatal(err)
		}
		if got := next.SegmentLoads(); got != 0 {
			t.Fatalf("step %d: Reopen read %d segments, want none", step, got)
		}
		ref, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		reopened, cold := fragmentStore(next, 3), fragmentStore(ref, 3)
		for i, sql := range qs {
			if got, want := answer(t, reopened, sql), answer(t, cold, sql); got != want {
				t.Fatalf("step %d: %s:\n got %s\nwant %s", step, sql, got, want)
			}
			if got := answer(t, old, sql); got != before[i] {
				t.Fatalf("step %d: %s: the predecessor answers %s after the append, %s before", step, sql, got, before[i])
			}
		}
		ref.Close()
		r = next
	}
	ref, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.LoadAll(); err != nil {
		t.Fatal(err)
	}
	if err := r.LoadAll(); err != nil {
		t.Fatal(err)
	}
	assertSameStorage(t, r, ref)
}

// answer runs sql over db and renders the result, or the error.
func answer(t *testing.T, db engine.DB, sql string) string {
	t.Helper()
	res, err := execSQL(db, sql)
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprint(res.Cols, res.Rows())
}

// TestLineageAcrossWidthCrossings: dictionaries that outgrow a width mid-file
// — the categorical one past 256 entries, so one-byte code blocks are followed
// by two-byte ones, and an int one past MaxIntDictCardinality, so code blocks
// are followed by raw values decoded through the footer's old dictionary —
// read the same through a cold Open, a Reopen of a predecessor (which reads
// the new footer and no block) and Verify.
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
	}{
		{func() { gen.cats = 400 }, S},          // cat codes widen to two bytes
		{func() { gen.wides = 1 << 40 }, 2 * S}, // every wide value new: the column goes raw
		{func() {}, 100},                        // no crossing: mixed widths stay
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
		if got := next.SegmentLoads(); got != 0 {
			t.Fatalf("step %d: Reopen read %d segments, want none", i, got)
		}
		if err := next.LoadAll(); err != nil {
			t.Fatal(err)
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
