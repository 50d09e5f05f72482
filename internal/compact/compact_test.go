package compact

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/workload"
	"repro/internal/zpack"
)

// buildSweep writes a clustered sweep table to a fresh zpack file and returns
// its path. 20000 rows at SegmentSize 4096 is 5 segments, contiguous on z.
func buildSweep(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sweep.zpack")
	if err := zpack.Build(path, workload.GroupSweepClustered(20000, 16, 8, 7)); err != nil {
		t.Fatal(err)
	}
	return path
}

// appendShuffled extends the file with rows whose z values are random, the
// way live ingest dirties a clustered file.
func appendShuffled(t *testing.T, path string, rows int) {
	t.Helper()
	w, err := zpack.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendTable(workload.GroupSweep(rows, 16, 8, 99)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// rowMultiset renders every row of the file to a string and counts them, so
// two files can be compared as bags regardless of row order.
func rowMultiset(t *testing.T, path string) map[string]int {
	t.Helper()
	r, err := zpack.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.LoadAll(); err != nil {
		t.Fatal(err)
	}
	tab := r.Table()
	m := make(map[string]int, tab.NumRows())
	for i := 0; i < tab.NumRows(); i++ {
		parts := make([]string, 0, tab.NumCols())
		for _, v := range tab.Row(i) {
			parts = append(parts, v.String())
		}
		m[strings.Join(parts, "\x1f")]++
	}
	return m
}

func TestOrderIsDeterministicPermutationWithMonotonePrimary(t *testing.T) {
	tab := workload.GroupSweep(5000, 16, 8, 3)
	ord, err := Order(tab, []string{"z", "x"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ord) != tab.NumRows() {
		t.Fatalf("permutation has %d entries, want %d", len(ord), tab.NumRows())
	}
	seen := make([]bool, len(ord))
	for _, i := range ord {
		if i < 0 || i >= len(seen) || seen[i] {
			t.Fatalf("not a permutation: %d repeated or out of range", i)
		}
		seen[i] = true
	}
	// The primary column is globally sorted: equality predicates on it get
	// contiguous runs, and Unsorted(primary) is zero after a rewrite.
	z := tab.Column("z")
	for k := 1; k < len(ord); k++ {
		if prev, cur := z.Value(ord[k-1]).S, z.Value(ord[k]).S; prev > cur {
			t.Fatalf("primary column not monotone at position %d: %q > %q", k, prev, cur)
		}
	}
	again, err := Order(tab, []string{"z", "x"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ord, again) {
		t.Fatal("Order is not deterministic for identical input")
	}
}

func TestOrderSingleColumnSortsInts(t *testing.T) {
	tab := workload.GroupSweep(3000, 16, 8, 4)
	ord, err := Order(tab, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	x := tab.Column("x")
	for k := 1; k < len(ord); k++ {
		if prev, cur := x.Int(ord[k-1]), x.Int(ord[k]); prev > cur {
			t.Fatalf("x not sorted at %d: %d > %d", k, prev, cur)
		}
	}
}

func TestOrderUnknownColumn(t *testing.T) {
	tab := workload.GroupSweep(100, 4, 2, 5)
	if _, err := Order(tab, []string{"nope"}); err == nil {
		t.Fatal("want error for unknown column")
	}
	if _, err := Order(tab, nil); err == nil {
		t.Fatal("want error for no columns")
	}
}

func TestPickColsByCardinalityWithoutEvidence(t *testing.T) {
	path := buildSweep(t)
	r, err := zpack.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// No provenance: cardinality descending. z has 16 dictionary words, x has
	// an 8-value int dictionary; p1/p2 (2) lose; y has no dictionary at all,
	// so without evidence it is not a candidate.
	got := PickCols(r, nil, 2)
	if !reflect.DeepEqual(got, []string{"z", "x"}) {
		t.Fatalf("PickCols = %v, want [z x]", got)
	}
	if got := PickCols(r, nil, 1); !reflect.DeepEqual(got, []string{"z"}) {
		t.Fatalf("PickCols max=1 = %v, want [z]", got)
	}
}

func TestPickColsFollowsSkipProvenance(t *testing.T) {
	path := buildSweep(t)
	r, err := zpack.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Live evidence trumps cardinality, and unevidenced columns are dropped
	// entirely rather than padded in.
	prov := map[engine.SkipAttr]int64{
		{Column: "p2", Via: "dict"}: 41,
	}
	if got := PickCols(r, prov, 2); !reflect.DeepEqual(got, []string{"p2"}) {
		t.Fatalf("PickCols = %v, want [p2]", got)
	}
	// A numeric column with no dictionary is eligible once zone-map evidence
	// names it.
	prov = map[engine.SkipAttr]int64{
		{Column: "y", Via: "zonemap"}: 10,
		{Column: "z", Via: "dict"}:    90,
	}
	if got := PickCols(r, prov, 2); !reflect.DeepEqual(got, []string{"z", "y"}) {
		t.Fatalf("PickCols = %v, want [z y]", got)
	}
	// "(multi)" and "(none)" attributions never nominate a column.
	prov = map[engine.SkipAttr]int64{
		{Column: "(multi)", Via: "expr"}: 1000,
	}
	if got := PickCols(r, prov, 2); !reflect.DeepEqual(got, []string{"z", "x"}) {
		t.Fatalf("PickCols = %v, want cardinality fallback [z x]", got)
	}
}

func TestPickColsExcludesConstants(t *testing.T) {
	tab := dataset.NewTable("c", []dataset.Field{
		{Name: "k", Kind: dataset.KindString},
		{Name: "v", Kind: dataset.KindString},
	})
	for i := 0; i < 100; i++ {
		tab.AppendRow(dataset.SV("same"), dataset.SV(string(rune('a'+i%5))))
	}
	path := filepath.Join(t.TempDir(), "c.zpack")
	if err := zpack.Build(path, tab); err != nil {
		t.Fatal(err)
	}
	r, err := zpack.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := PickCols(r, nil, 2); !reflect.DeepEqual(got, []string{"v"}) {
		t.Fatalf("PickCols = %v, want [v] (constant k can never skip)", got)
	}
}

func TestUnsortedLifecycle(t *testing.T) {
	path := buildSweep(t)
	open := func() *zpack.Reader {
		r, err := zpack.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := open()
	n, err := Unsorted(r, "z")
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("clustered file reports %d unsorted segments, want 0", n)
	}

	appendShuffled(t, path, 8192)
	r = open()
	n, err = Unsorted(r, "z")
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("shuffled tail reports 0 unsorted segments, want > 0")
	}

	res, err := File(path, Options{Cols: []string{"z", "x"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.UnsortedBefore != n {
		t.Fatalf("Result.UnsortedBefore = %d, want %d", res.UnsortedBefore, n)
	}
	r = open()
	defer r.Close()
	n, err = Unsorted(r, "z")
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("compacted file reports %d unsorted segments, want 0", n)
	}
}

func TestFilePreservesRowsAndVerifies(t *testing.T) {
	path := buildSweep(t)
	appendShuffled(t, path, 5000)
	before := rowMultiset(t, path)

	res, err := File(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 25000 {
		t.Fatalf("Result.Rows = %d, want 25000", res.Rows)
	}
	if len(res.Cols) == 0 || res.Cols[0] != "z" {
		t.Fatalf("auto-picked cols = %v, want z primary", res.Cols)
	}
	if res.Segments != (25000+engine.SegmentSize-1)/engine.SegmentSize {
		t.Fatalf("Result.Segments = %d", res.Segments)
	}

	after := rowMultiset(t, path)
	if !reflect.DeepEqual(before, after) {
		t.Fatal("compaction changed the row multiset")
	}
	r, err := zpack.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Verify(); err != nil {
		t.Fatalf("compacted file fails checksum verification: %v", err)
	}
	// No leftover temp file after a clean commit.
	if _, err := os.Stat(path + TmpSuffix); !os.IsNotExist(err) {
		t.Fatalf("temp file still present after commit (stat err %v)", err)
	}
}

func TestFileUnknownColumn(t *testing.T) {
	path := buildSweep(t)
	if _, err := File(path, Options{Cols: []string{"nope"}}); err == nil {
		t.Fatal("want error for unknown cluster column")
	}
}

func TestSweepTmp(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "a.zpack"+TmpSuffix)
	if err := os.WriteFile(stale, []byte("half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	keep := filepath.Join(dir, "a.zpack")
	if err := os.WriteFile(keep, []byte("real"), 0o644); err != nil {
		t.Fatal(err)
	}
	removed, err := SweepTmp(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(removed, []string{stale}) {
		t.Fatalf("SweepTmp removed %v, want [%s]", removed, stale)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("stale temp survived the sweep")
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("sweep touched the committed file: %v", err)
	}
}
