package zpack

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// mixedTable has everything the bulk write must carry exactly as the row-wise
// one does: strings whose first appearances are spread over the table (past
// 256 of them before row engine.SegmentSize, so the codes are two bytes wide
// from the first seal on), NaN, infinities and both zeros among the floats, an
// integer column of few distinct values and one (wide) of a few thousand,
// which passes dataset.MaxIntDictCardinality some rows after wideAt (pass
// math.MaxInt for never).
func mixedTable(rows int, seed int64, wideAt int) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	t := dataset.NewTable("mixed", []dataset.Field{
		{Name: "k", Kind: dataset.KindString},
		{Name: "tag", Kind: dataset.KindString},
		{Name: "year", Kind: dataset.KindInt},
		{Name: "wide", Kind: dataset.KindInt},
		{Name: "f", Kind: dataset.KindFloat},
	})
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	for i := 0; i < rows; i++ {
		f := rng.NormFloat64() * 100
		if rng.Intn(10) == 0 {
			f = specials[rng.Intn(len(specials))]
		}
		wide := int64(rng.Intn(3000)) - 1500
		if i >= wideAt {
			wide = rng.Int63() - rng.Int63()
		}
		t.AppendRow(
			dataset.SV(fmt.Sprintf("k%03d", rng.Intn(1+i/10))), // new keys keep appearing
			dataset.SV(fmt.Sprintf("seed%d-%d", seed, rng.Intn(4))),
			dataset.IV(int64(2000+rng.Intn(20))),
			dataset.IV(wide),
			dataset.FV(f),
		)
	}
	return t
}

// encodings lists column j's block encodings, each once, in file order.
func encodings(r *Reader, j int) []string {
	var out []string
	for s := 0; s < r.NumSegments(); s++ {
		if enc := r.Encoding(s, j); !slices.Contains(out, enc) {
			out = append(out, enc)
		}
	}
	return out
}

func fileSum(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// appendRowWise is the reference: every row of tb, one Append each.
func appendRowWise(t *testing.T, w *Writer, tb *dataset.Table) {
	t.Helper()
	for i := 0; i < tb.NumRows(); i++ {
		if err := w.Append([]dataset.Row{tb.Row(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBuildWritesTheBytesAppendWrites: the bulk Build, which writes blocks
// straight from the table's arrays under the table's own dictionaries, writes
// byte for byte the file that the same rows make through Create, one Append
// each and Close — at every row count around a seal. (An int column that goes
// raw is the exception by design: the row path can only cross the bound past
// the first seal, so its first blocks are codes, where Build writes the raw
// table's values. The lineage tests cover that file.) It also pins the widths
// the blocks came out at.
func TestBuildWritesTheBytesAppendWrites(t *testing.T) {
	const S = engine.SegmentSize
	for _, rows := range []int{0, 1, S - 1, S, S + 1, 3*S + 7} {
		tb := mixedTable(rows, int64(rows)+1, math.MaxInt)
		dir := t.TempDir()
		built, rowPath := filepath.Join(dir, "built.zpack"), filepath.Join(dir, "row.zpack")
		if err := Build(built, tb); err != nil {
			t.Fatal(err)
		}
		rw, err := Create(rowPath, tb.Name, tb.Fields())
		if err != nil {
			t.Fatal(err)
		}
		appendRowWise(t, rw, tb)
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}
		if got, want := fileSum(t, built), fileSum(t, rowPath); got != want {
			t.Fatalf("%d rows: Build wrote %s, row-wise %s", rows, got, want)
		}
		if rows < 3*S {
			continue
		}
		r, err := Open(built)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for j, want := range []string{"codes16", "codes8", "codes8", "codes16", "values64"} {
			if got := encodings(r, j); len(got) != 1 || got[0] != want {
				t.Errorf("column %d: blocks %v, want %s", j, got, want)
			}
		}
	}
}

// rowsOf is a new table of tb's rows p, appended one at a time, so its
// dictionaries are in the order those rows first use them.
func rowsOf(tb *dataset.Table, p []int) *dataset.Table {
	out := dataset.NewTable(tb.Name, tb.Fields())
	for _, r := range p {
		out.AppendRow(tb.Row(r)...)
	}
	return out
}

// TestAppendTableWritesTheBytesAppendWrites: a new file written by one
// AppendTable is byte for byte the file the same rows write one Append at a
// time — for the rows in table order, permuted and a subset, at every row
// count around a seal.
func TestAppendTableWritesTheBytesAppendWrites(t *testing.T) {
	const S = engine.SegmentSize
	for _, rows := range []int{0, 1, S - 1, S, S + 1, 3*S + 7} {
		tb := mixedTable(rows, int64(rows)+1, math.MaxInt)
		perm := rand.New(rand.NewSource(9)).Perm(rows)
		for name, p := range map[string][]int{"table order": nil, "permuted": perm, "subset": perm[:rows/2]} {
			src := tb
			if p != nil {
				src = rowsOf(tb, p)
			}
			dir := t.TempDir()
			colPath, rowPath := filepath.Join(dir, "col.zpack"), filepath.Join(dir, "row.zpack")
			cw, err := Create(colPath, src.Name, src.Fields())
			if err != nil {
				t.Fatal(err)
			}
			if err := cw.AppendTable(src); err != nil {
				t.Fatal(err)
			}
			if err := cw.Close(); err != nil {
				t.Fatal(err)
			}
			rw, err := Create(rowPath, src.Name, src.Fields())
			if err != nil {
				t.Fatal(err)
			}
			appendRowWise(t, rw, src)
			if err := rw.Close(); err != nil {
				t.Fatal(err)
			}
			if got, want := fileSum(t, colPath), fileSum(t, rowPath); got != want {
				t.Errorf("%d rows, %s: column-wise file %s, row-wise %s", rows, name, got, want)
			}
		}
	}
}

// TestAppendTableIntoReopenedFile: the file already has sealed segments, a
// partial tail and dictionaries; the appended table's own dictionaries are in
// another order and hold strings the file has and has not seen — and, gathered
// through a permutation, are not even in first-appearance order — so its codes
// must translate into the file's, and the tail's wide column goes raw over
// sealed code blocks: again byte for byte what Append writes.
func TestAppendTableIntoReopenedFile(t *testing.T) {
	base := mixedTable(engine.SegmentSize+100, 1, 5000)
	extra := mixedTable(2*engine.SegmentSize+50, 2, 5000) // "seed2-*" tags are new, "k*" keys mostly old, wide goes raw
	perm := rand.New(rand.NewSource(4)).Perm(extra.NumRows())
	for name, tb := range map[string]*dataset.Table{"table order": extra, "permuted": extra.Gather(perm)} {
		dir := t.TempDir()
		paths := []string{filepath.Join(dir, "col.zpack"), filepath.Join(dir, "row.zpack")}
		for i, path := range paths {
			if err := Build(path, base); err != nil {
				t.Fatal(err)
			}
			w, err := OpenAppend(path)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				err = w.AppendTable(tb)
			} else {
				appendRowWise(t, w, tb)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := fileSum(t, paths[0]), fileSum(t, paths[1]); got != want {
			t.Errorf("%s: column-wise file %s, row-wise %s", name, got, want)
		}
		r, err := Open(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if err := r.LoadAll(); err != nil {
			t.Fatal(err)
		}
		if encs := encodings(r, 3); !slices.Equal(encs, []string{"codes16", "values64"}) {
			t.Errorf("%s: wide column blocks %v, want codes then raw values", name, encs)
		}
		want := dataset.NewTable(base.Name, base.Fields())
		for _, src := range []*dataset.Table{base, tb} {
			for i := 0; i < src.NumRows(); i++ {
				want.AppendRow(src.Row(i)...)
			}
		}
		assertPrefixEqual(t, r.Table(), want)
	}
}

// TestBuildRemovesItsOutputOnFailure: a build whose writes fail (the path is
// a link to /dev/full, where every write is out of space) leaves nothing
// behind under that path.
func TestBuildRemovesItsOutputOnFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	path := filepath.Join(t.TempDir(), "full.zpack")
	if err := os.Symlink("/dev/full", path); err != nil {
		t.Fatal(err)
	}
	if err := Build(path, genTable("x", 3, "t")); err == nil {
		t.Fatal("Build onto a full device succeeded")
	}
	if _, err := os.Lstat(path); !os.IsNotExist(err) {
		t.Errorf("failed Build left %s behind (lstat: %v)", path, err)
	}
}
