package zpack

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// mixedTable has everything the column-wise append must carry exactly as the
// row-wise one does: strings whose first appearances are spread over the
// table, NaN, infinities and both zeros among the floats, an integer column
// of few distinct values and one (wide) that passes
// dataset.MaxIntDictCardinality at row wideAt — mid-table when rows > wideAt.
func mixedTable(rows int, seed int64) *dataset.Table {
	const wideAt = 5000
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
		wide := int64(rng.Intn(50)) - 25
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

func fileSum(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// appendRowWise is the reference: the rows perm lists (all when nil), one
// Append each.
func appendRowWise(t *testing.T, w *Writer, tb *dataset.Table, perm []int) {
	t.Helper()
	n := tb.NumRows()
	if perm != nil {
		n = len(perm)
	}
	for i := 0; i < n; i++ {
		r := i
		if perm != nil {
			r = perm[i]
		}
		if err := w.Append([]dataset.Row{tb.Row(r)}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendTableWritesTheBytesAppendWrites: a file built column-wise is
// byte for byte the file the same rows build one Append at a time — in table
// order and through a permutation, at every row count around a seal.
func TestAppendTableWritesTheBytesAppendWrites(t *testing.T) {
	const S = engine.SegmentSize
	for _, rows := range []int{0, 1, S - 1, S, S + 1, 3*S + 7} {
		tb := mixedTable(rows, int64(rows)+1)
		perm := rand.New(rand.NewSource(9)).Perm(rows)
		for name, p := range map[string][]int{"table order": nil, "permuted": perm, "subset": perm[:rows/2]} {
			dir := t.TempDir()
			colPath, rowPath := filepath.Join(dir, "col.zpack"), filepath.Join(dir, "row.zpack")
			cw, err := Create(colPath, tb.Name, tb.Fields())
			if err != nil {
				t.Fatal(err)
			}
			if err := cw.AppendTable(tb, p); err != nil {
				t.Fatal(err)
			}
			if err := cw.Close(); err != nil {
				t.Fatal(err)
			}
			rw, err := Create(rowPath, tb.Name, tb.Fields())
			if err != nil {
				t.Fatal(err)
			}
			appendRowWise(t, rw, tb, p)
			if err := rw.Close(); err != nil {
				t.Fatal(err)
			}
			if got, want := fileSum(t, colPath), fileSum(t, rowPath); got != want {
				t.Errorf("%d rows, %s: column-wise file %s, row-wise %s", rows, name, got, want)
			}
		}
	}
}

// TestBuildWritesTheBytesAppendWrites pins Build itself, and that the wide
// column really crossed the dictionary bound while the narrow one kept its.
func TestBuildWritesTheBytesAppendWrites(t *testing.T) {
	tb := mixedTable(3*engine.SegmentSize+7, 3)
	dir := t.TempDir()
	built, rowPath := filepath.Join(dir, "built.zpack"), filepath.Join(dir, "row.zpack")
	if err := Build(built, tb); err != nil {
		t.Fatal(err)
	}
	rw, err := Create(rowPath, tb.Name, tb.Fields())
	if err != nil {
		t.Fatal(err)
	}
	appendRowWise(t, rw, tb, nil)
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := fileSum(t, built), fileSum(t, rowPath); got != want {
		t.Fatalf("Build wrote %s, row-wise %s", got, want)
	}
	r, err := Open(built)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if year, wide := r.Table().Column("year").Coded(), r.Table().Column("wide").Coded(); !year || wide {
		t.Errorf("int dictionaries: year %v, wide %v; want year kept, wide dropped", year, wide)
	}
}

// TestAppendTableIntoReopenedFile: the file already has sealed segments, a
// partial tail and dictionaries; the appended table's own dictionaries are in
// another order and hold strings the file has and has not seen, so its codes
// must translate into the file's — again byte for byte what Append writes.
func TestAppendTableIntoReopenedFile(t *testing.T) {
	base := mixedTable(engine.SegmentSize+100, 1)
	extra := mixedTable(2*engine.SegmentSize+50, 2) // "seed2-*" tags are new, "k*" keys mostly old
	perm := rand.New(rand.NewSource(4)).Perm(extra.NumRows())
	for name, p := range map[string][]int{"table order": nil, "permuted": perm} {
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
				err = w.AppendTable(extra, p)
			} else {
				appendRowWise(t, w, extra, p)
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
