package compact

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/minisql"
	"repro/internal/workload"
	"repro/internal/zpack"
)

// execSQL parses, prepares and runs one statement as a single plan: the
// test shorthand for Plan.Execute over SQL text.
func execSQL(db engine.DB, sql string) (*engine.Result, error) {
	q, err := minisql.Parse(sql)
	if err != nil {
		return nil, err
	}
	p, err := db.Prepare(q)
	if err != nil {
		return nil, err
	}
	return p.Execute()
}

// refOrder is the Order this package had before keys were packed: every
// column's ranks densified by a sorted copy and a binary search per row, full
// 64-level interleave, one multi-word key per row, and sort.Slice through a
// comparator with the row index as the last word. It is the definition of the
// permutation; Order must return exactly it.
func refOrder(t *dataset.Table, cols []string) []int {
	n := t.NumRows()
	ranks := make([][]uint64, len(cols))
	for j, name := range cols {
		c := t.Column(name)
		raw := make([]uint64, n)
		switch c.Field.Kind {
		case dataset.KindString:
			dr := dataset.DictRanks(c.Dict())
			for i := range raw {
				raw[i] = dr[c.Code(i)]
			}
		case dataset.KindInt:
			for i := range raw {
				raw[i] = IntRank(c.Int(i))
			}
		default:
			for i, v := range c.Floats()[:n] {
				raw[i] = FloatRank(v)
			}
		}
		u := append([]uint64(nil), raw...)
		sort.Slice(u, func(i, j int) bool { return u[i] < u[j] })
		d := u[:0]
		for i, v := range u {
			if i == 0 || v != d[len(d)-1] {
				d = append(d, v)
			}
		}
		if len(d) > 0 {
			width := max(bits.Len64(uint64(len(d)-1)), 1)
			for i, v := range raw {
				raw[i] = uint64(sort.Search(len(d), func(k int) bool { return d[k] >= v })) << uint(64-width)
			}
		}
		ranks[j] = raw
	}
	kw := len(cols)
	keys := make([]uint64, n*kw)
	dims := make([]uint64, len(cols)-1)
	for i := 0; i < n; i++ {
		keys[i*kw] = ranks[0][i]
		for j := 1; j < len(cols); j++ {
			dims[j-1] = ranks[j][i]
		}
		copy(keys[i*kw+1:(i+1)*kw], Interleave(dims))
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]*kw:(idx[a]+1)*kw], keys[idx[b]*kw:(idx[b]+1)*kw]
		if KeyLess(ka, kb) || KeyLess(kb, ka) {
			return KeyLess(ka, kb)
		}
		return idx[a] < idx[b]
	})
	return idx
}

// randomKeyTable draws a table whose columns stress the rank functions: few
// or many distinct values, NaN, both zeros and infinities, the integer
// extremes, all-equal columns, and dictionary entries no row uses.
func randomKeyTable(rng *rand.Rand, rows, cols int, allDistinct bool) (*dataset.Table, []string) {
	fields := make([]dataset.Field, cols)
	names := make([]string, cols)
	for j := range fields {
		names[j] = fmt.Sprintf("c%d", j)
		fields[j] = dataset.Field{Name: names[j], Kind: dataset.Kind(rng.Intn(3))}
	}
	t := dataset.NewTable("keys", fields)
	card := make([]int, cols)
	for j := range card {
		card[j] = []int{1, 2, 7, 300, 1 << 30}[rng.Intn(5)]
		if allDistinct {
			card[j] = 1 << 30
		}
	}
	floats := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1.5, -1.5, math.SmallestNonzeroFloat64}
	ints := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1}
	row := make([]dataset.Value, cols)
	for i := 0; i < rows+3; i++ {
		for j, fd := range fields {
			v := rng.Intn(card[j])
			switch fd.Kind {
			case dataset.KindString:
				row[j] = dataset.SV(fmt.Sprintf("s%x", v*2654435761%1000003)) // dictionary order != value order
			case dataset.KindInt:
				row[j] = dataset.IV(int64(v) - 3)
				if card[j] > 2 && rng.Intn(4) == 0 {
					row[j] = dataset.IV(ints[rng.Intn(len(ints))])
				}
			default:
				row[j] = dataset.FV(float64(v)/3 - 1)
				if card[j] > 2 && rng.Intn(4) == 0 {
					row[j] = dataset.FV(floats[rng.Intn(len(floats))])
				}
			}
		}
		t.AppendRow(row...)
	}
	// Three rows more than asked for were drawn: dropping the last three but
	// keeping t's dictionaries leaves entries no row uses; dropping the first
	// three into fresh dictionaries leaves none.
	if rng.Intn(2) == 0 {
		return subTable(t, rows), names
	}
	trimmed := dataset.NewTable("keys", fields)
	trimmed.AppendRange(t, 3, rows+3, dataset.NewRemap(t))
	return trimmed, names
}

// subTable is the first rows rows of t over t's own dictionaries.
func subTable(t *dataset.Table, rows int) *dataset.Table {
	out := dataset.NewTable(t.Name, t.Fields())
	for j, c := range out.Columns() {
		switch src := t.Columns()[j]; {
		case c.Field.Kind == dataset.KindString:
			c.SetDict(src.Dict())
		case src.Coded():
			c.SetIntDict(src.IntDict())
		case c.Field.Kind == dataset.KindInt:
			c.SetRawInts()
		}
	}
	out.Presize(rows)
	for j, c := range out.Columns() {
		c.CopyRows(t.Columns()[j], 0, rows)
	}
	return out
}

// TestCodeOrderEqualsKeyOrder: for one coded cluster column — categorical
// or a coded int, with duplicates, a single distinct value, dictionary
// entries no row uses — Order's counting sort returns the permutation the
// general path's keys give, and the reference's.
func TestCodeOrderEqualsKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	kinds := map[dataset.Kind]int{}
	single := 0
	for trial := 0; trial < 300; trial++ {
		rows := []int{0, 1, 2, 50, 700, 5000}[rng.Intn(6)]
		tb, names := randomKeyTable(rng, rows, 3, false)
		for _, name := range names {
			c := tb.Column(name)
			if !c.Coded() {
				continue
			}
			got := codeOrder(c, rows)
			if want := keyOrder([]*dataset.Column{c}, rows); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (%d rows, %s %v): counting sort %v, keys %v", trial, rows, name, c.Field.Kind, got, want)
			}
			if want := refOrder(tb, []string{name}); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (%d rows, %s %v): counting sort %v, reference %v", trial, rows, name, c.Field.Kind, got, want)
			}
			kinds[c.Field.Kind]++
			if c.Cardinality() == 1 {
				single++
			}
		}
	}
	if kinds[dataset.KindString] < 50 || kinds[dataset.KindInt] < 50 || single < 20 {
		t.Errorf("covered %d categorical and %d coded-int columns, %d with one value: want more", kinds[dataset.KindString], kinds[dataset.KindInt], single)
	}
}

// TestOrderEqualsComparatorReference: on random tables — one to six cluster
// columns, so both the one-word keys and the multi-word fallback run — Order
// is the reference permutation, element for element.
func TestOrderEqualsComparatorReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	packed, wide := 0, 0
	for trial := 0; trial < 300; trial++ {
		rows := []int{0, 1, 2, 50, 700, 5000}[rng.Intn(6)]
		ncols := 1 + rng.Intn(6)
		// Every third trial is sized so the key cannot fit one word: many
		// columns of all-distinct values.
		wideKey := trial%3 == 0
		if wideKey {
			rows, ncols = 700+rng.Intn(3000), 6
		}
		tb, names := randomKeyTable(rng, rows, ncols, wideKey)
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		cols := names[:1+rng.Intn(len(names))]
		if wideKey {
			cols = names
		}
		got, err := Order(tb, cols)
		if err != nil {
			t.Fatal(err)
		}
		want := refOrder(tb, cols)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d rows ordered, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%d rows, cols %v): position %d is row %d, reference row %d", trial, rows, cols, i, got[i], want[i])
			}
		}
		if fitsOneWord(tb, cols) {
			packed++
		} else {
			wide++
		}
	}
	if packed < 20 || wide < 20 {
		t.Errorf("trials ran %d one-word and %d multi-word sorts; want both well covered", packed, wide)
	}
}

// fitsOneWord recomputes Order's choice, so the test knows which path ran.
func fitsOneWord(t *dataset.Table, cols []string) bool {
	n := t.NumRows()
	if n == 0 {
		return true
	}
	total, depth := bits.Len64(uint64(n-1)), 0
	for j, name := range cols {
		_, width := normalizedRanks(t.Column(name), n)
		if j == 0 {
			total += width
		} else {
			depth = max(depth, width)
		}
	}
	return total+(len(cols)-1)*depth <= 64
}

// refFile is compact.File's rewrite on the row path it replaced: the
// reference permutation, one Row and one Append per row.
func refFile(t *testing.T, src, dst string, cols []string) {
	t.Helper()
	r, err := zpack.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.LoadAll(); err != nil {
		t.Fatal(err)
	}
	tb := r.Table()
	w, err := zpack.Create(dst, r.Name(), tb.Fields())
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range refOrder(tb, cols) {
		if err := w.Append([]dataset.Row{tb.Row(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// loaded opens a zpack file and loads every segment.
func loaded(t *testing.T, path string) *zpack.Reader {
	t.Helper()
	r, err := zpack.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	if err := r.LoadAll(); err != nil {
		t.Fatal(err)
	}
	return r
}

// presentValues lists, per segment, the values a categorical zone map says
// occur — what the map means, whatever codes the file's dictionary gives them.
func presentValues(z *engine.ZoneData, dict []string, nseg int) [][]string {
	out := make([][]string, nseg)
	for s := range out {
		for code, v := range dict {
			if z.Present[s*z.Words+code/64]&(1<<(code%64)) != 0 {
				out[s] = append(out[s], v)
			}
		}
		sort.Strings(out[s])
	}
	return out
}

// TestFileHoldsTheRowPathsRowsAndZones: the compacted generation — gathered
// whole columns, written in bulk under the source's dictionaries — holds the
// rows the row-at-a-time rewrite wrote, in the same order, with the same zone
// maps (categorical ones compared by the values they mark present, since the
// two files number their dictionaries differently), for one, two and three
// cluster columns, over a file with a shuffled appended tail.
func TestFileHoldsTheRowPathsRowsAndZones(t *testing.T) {
	for _, cols := range [][]string{{"z"}, {"z", "x"}, {"p1", "y", "z"}} {
		dir := t.TempDir()
		path, ref := filepath.Join(dir, "sweep.zpack"), filepath.Join(dir, "ref.zpack")
		if err := zpack.Build(path, workload.GroupSweepClustered(20000, 16, 8, 7)); err != nil {
			t.Fatal(err)
		}
		appendShuffled(t, path, 9000)
		refFile(t, path, ref, cols)
		if _, err := File(path, Options{Cols: cols}); err != nil {
			t.Fatal(err)
		}
		got, want := loaded(t, path), loaded(t, ref)
		if got.Rows() != want.Rows() || got.NumSegments() != want.NumSegments() {
			t.Fatalf("cols %v: %d rows in %d segments, reference %d in %d", cols, got.Rows(), got.NumSegments(), want.Rows(), want.NumSegments())
		}
		for j, wc := range want.Table().Columns() {
			gc, name := got.Table().Columns()[j], wc.Field.Name
			for i := 0; i < want.Rows(); i++ {
				if g, w := gc.Value(i), wc.Value(i); g.S != w.S || g.I != w.I || math.Float64bits(g.F) != math.Float64bits(w.F) {
					t.Fatalf("cols %v: column %s row %d: %v, reference %v", cols, name, i, g, w)
				}
			}
			gz, wz := got.Zone(name), want.Zone(name)
			if wc.Field.Kind == dataset.KindString {
				if g, w := presentValues(gz, gc.Dict(), got.NumSegments()), presentValues(wz, wc.Dict(), want.NumSegments()); !reflect.DeepEqual(g, w) {
					t.Fatalf("cols %v: column %s: segments hold %v, reference %v", cols, name, g, w)
				}
			} else if !reflect.DeepEqual(gz, wz) {
				t.Fatalf("cols %v: column %s: zone maps differ", cols, name)
			}
		}
	}
}

// TestFileIsTheSameAtEveryGOMAXPROCS: the column gathers, zone maps and
// checksums run a column per goroutine; the generation they write must not
// depend on how many run at once.
func TestFileIsTheSameAtEveryGOMAXPROCS(t *testing.T) {
	src := buildSweep(t)
	appendShuffled(t, src, 9000)
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var sums []string
	for _, procs := range []int{1, 2, 4} {
		path := filepath.Join(t.TempDir(), "sweep.zpack")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		runtime.GOMAXPROCS(procs)
		if _, err := File(path, Options{Cols: []string{"z", "x"}}); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, fmt.Sprintf("%x", sha256.Sum256(b)))
	}
	if sums[0] != sums[1] || sums[0] != sums[2] {
		t.Fatalf("GOMAXPROCS 1, 2, 4 compacted to %v", sums)
	}
}

// TestFileUpgradesV1: compacting the committed v1 fixture writes the current
// version, which holds the same rows, verifies, takes appends, and answers
// as the v1 file did.
func TestFileUpgradesV1(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "zpack", "testdata", "fixture_v1.zpack"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fixture.zpack")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	before := rowMultiset(t, path)
	v1 := loaded(t, path)
	if _, err := File(path, Options{Cols: []string{"year", "region"}}); err != nil {
		t.Fatal(err)
	}
	v2 := loaded(t, path)
	if v1.Version() != 1 || v2.Version() != zpack.Version {
		t.Fatalf("versions %d -> %d, want 1 -> %d", v1.Version(), v2.Version(), zpack.Version)
	}
	if err := v2.Verify(); err != nil {
		t.Fatal(err)
	}
	if !equalMultiset(before, rowMultiset(t, path)) {
		t.Fatal("the upgrade changed the rows")
	}
	sql := "SELECT region, year, SUM(revenue) AS s, COUNT(*) AS n FROM fixture GROUP BY region, year ORDER BY region, year"
	a, err := execSQL(engine.NewColumnStoreFromSource(v1), sql)
	if err != nil {
		t.Fatal(err)
	}
	b, err := execSQL(engine.NewColumnStoreFromSource(v2), sql)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.Rows()) != fmt.Sprint(b.Rows()) || a.Len() == 0 {
		t.Fatalf("v1 answers %v, upgraded %v", a.Rows(), b.Rows())
	}
	w, err := zpack.OpenAppend(path)
	if err != nil {
		t.Fatalf("the upgraded file refuses appends: %v", err)
	}
	w.Discard()
}
