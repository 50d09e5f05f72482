package engine

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/minisql"
)

// widthsTable has a dictionary-coded column of every width and kind — 1, 2
// and 4-byte string codes, 1 and 2-byte int codes (one with neighbours above
// 2^53, which float64 coercion folds together) — beside a raw int and a float
// column, over a row count that leaves a partial segment with a partial word.
func widthsTable(rng *rand.Rand) *dataset.Table {
	const rows = 70_003 // > 65 536 distinct strings; 70003 % 4096 % 64 != 0
	t := dataset.NewTable("t", []dataset.Field{
		{Name: "s8", Kind: dataset.KindString}, {Name: "s16", Kind: dataset.KindString}, {Name: "s32", Kind: dataset.KindString},
		{Name: "i8", Kind: dataset.KindInt}, {Name: "i16", Kind: dataset.KindInt}, {Name: "iraw", Kind: dataset.KindInt},
		{Name: "f", Kind: dataset.KindFloat},
	})
	for r := 0; r < rows; r++ {
		i16 := int64(rng.Intn(1000)) - 300
		if r%9 == 0 {
			i16 = 1<<53 + int64(rng.Intn(3))
		}
		f := float64(rng.Intn(64)) / 4
		if r%31 == 0 {
			f = math.NaN()
		}
		t.AppendRow(
			dataset.SV(fmt.Sprintf("a%d", (r/3000)%5)), // runs of segments hold one value: zone tests bite
			dataset.SV(fmt.Sprintf("b%d", rng.Intn(300))),
			dataset.SV(fmt.Sprintf("c%d", r)),
			dataset.IV(2000+int64(r/5000)),
			dataset.IV(i16),
			dataset.IV(int64(r*7)),
			dataset.FV(f),
		)
	}
	return t
}

// TestCodeKernelsEqualRowPredicates: for every predicate shape over every
// column layout and code width, the vectorized filter selects, segment by
// segment, exactly the rows the row predicate accepts — no bit past the
// segment's end — and never skips a segment that holds a match.
func TestCodeKernelsEqualRowPredicates(t *testing.T) {
	tb := widthsTable(rand.New(rand.NewSource(19)))
	for name, width := range map[string]int{"s8": 1, "s16": 2, "s32": 4, "i8": 1, "i16": 2} {
		if c := tb.Column(name); !c.Coded() || c.Codes().Width() != width {
			t.Fatalf("fixture: column %s coded %v at width %d, want %d", name, c.Coded(), c.Codes().Width(), width)
		}
	}
	if tb.Column("iraw").Coded() {
		t.Fatal("fixture: iraw should be past the int dictionary bound")
	}
	cs := NewColumnStore(tb)
	var conds []string
	for _, col := range []string{"s8", "s16", "s32"} {
		p := map[string]string{"s8": "a", "s16": "b", "s32": "c"}[col]
		conds = append(conds,
			fmt.Sprintf("%s = '%s3'", col, p), fmt.Sprintf("%s != '%s3'", col, p),
			fmt.Sprintf("%s = 'unseen'", col), fmt.Sprintf("%s != 'unseen'", col),
			fmt.Sprintf("%s IN ('%s1', '%s4', 'unseen')", col, p, p), fmt.Sprintf("%s IN ('unseen')", col),
			fmt.Sprintf("%s LIKE '%s1%%'", col, p), fmt.Sprintf("%s LIKE '%%7'", col), fmt.Sprintf("%s LIKE '%s%%'", col, p),
			fmt.Sprintf("%s < '%s2'", col, p), fmt.Sprintf("%s BETWEEN '%s1' AND '%s3'", col, p, p), fmt.Sprintf("%s = 3", col),
			fmt.Sprintf("NOT %s = '%s0'", col, p),
		)
	}
	for _, col := range []string{"i8", "i16", "iraw", "f"} {
		for _, v := range []string{"2003", "5", "-300", "9007199254740993", "2.5", "-99999999999999999999", "99999999999999999999"} {
			for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
				conds = append(conds, fmt.Sprintf("%s %s %s", col, op, v))
			}
		}
		conds = append(conds,
			col+" BETWEEN 2002 AND 2006", col+" BETWEEN 5 AND 1", col+" BETWEEN -99999999999999999999 AND 99999999999999999999",
			col+" IN (2001, 2013, 7, 9007199254740992, 3.25)", col+" IN (123456789)",
			col+" LIKE '20%'", col+" = '2004'", col+" < 'x'",
			fmt.Sprintf("(%s < 10 OR %s > 2010)", col, col), fmt.Sprintf("NOT %s >= 100", col),
		)
	}
	bits := newSegBits()
	for _, cond := range conds {
		q, err := minisql.Parse("SELECT COUNT(*) FROM t WHERE " + cond)
		if err != nil {
			t.Fatalf("%s: %v", cond, err)
		}
		// Filter over the segment a scan job reads, row predicate over the
		// whole table.
		var view *dataset.Table
		f, err := compileVec(cs.zones, tb, q.Where)
		if err != nil {
			t.Fatalf("%s: %v", cond, err)
		}
		pred, err := compilePredicate(tb, q.Where)
		if err != nil {
			t.Fatalf("%s: %v", cond, err)
		}
		for seg := range cs.nseg {
			lo, hi := cs.segBounds(seg)
			view = tb.Slice(lo, hi, view)
			sf, err := compileVec(cs.zones, view, q.Where)
			if err != nil {
				t.Fatalf("%s: %v", cond, err)
			}
			clearBits(bits)
			sf.eval(seg, hi-lo, bits)
			matches := 0
			for i := 0; i < segmentSize; i++ {
				got := bits[i>>6]&(1<<(uint(i)&63)) != 0
				want := lo+i < hi && pred(lo+i)
				if got != want {
					t.Fatalf("%s: segment %d row %d (of %d): filter %v, row predicate %v", cond, seg, i, hi-lo, got, want)
				}
				if want {
					matches++
				}
			}
			if matches > 0 && f.skip(seg) {
				t.Fatalf("%s: segment %d skipped with %d matching rows", cond, seg, matches)
			}
		}
	}
}

// TestCoveringCodeSetFoldsToAllTrue: a code set over every dictionary entry —
// the z IN (<every slice>) zexec puts first in a process task's query, a LIKE
// every value matches, a range past an int column's ends — compiles to the
// all-true filter and leaves the scan; one over no entry to the all-false
// one. What is reported does not change: the SQL (the cache key), the conjunct
// list, and skip provenance.
func TestCoveringCodeSetFoldsToAllTrue(t *testing.T) {
	tb := widthsTable(rand.New(rand.NewSource(23)))
	s := NewColumnStore(tb)
	all := make([]string, 300)
	for i := range all {
		all[i] = fmt.Sprintf("'b%d'", i)
	}
	for cond, match := range map[string]bool{
		"s16 IN (" + strings.Join(all, ", ") + ")": true,
		"s16 LIKE 'b%'":                          true,
		"i8 >= 1990":                             true,
		"i8 != 1990":                             true,
		"i16 BETWEEN -1000 AND 9007199254740999": true,
		"s16 LIKE 'q%'":                          false,
		"i8 > 2500":                              false,
		"i8 IN (1, 2, 3)":                        false,
	} {
		q, err := minisql.Parse("SELECT COUNT(*) FROM t WHERE " + cond)
		if err != nil {
			t.Fatal(err)
		}
		f, err := compileVec(s.zones, tb, q.Where)
		if err != nil {
			t.Fatal(err)
		}
		if f != (constFilter{match: match}) {
			t.Errorf("%s compiles to %#v, want constFilter{%v}", cond, f, match)
		}
	}

	// In a plan: same SQL, same conjunct list, the row store's result, and
	// skips attributed as ever.
	sql := "SELECT s8, COUNT(*) AS n, SUM(iraw) AS sr FROM t WHERE s16 IN (" + strings.Join(all, ", ") + ") AND i8 >= 2003 AND i8 < 2006 GROUP BY s8"
	q, err := minisql.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.SQL() != q.SQL() || len(p.Conjuncts()) != 3 || len(p.vec.conjs) != 2 {
		t.Fatalf("plan keeps %d conjuncts for EXPLAIN and %d for the scan, want 3 and 2; SQL %q", len(p.Conjuncts()), len(p.vec.conjs), p.SQL())
	}
	got, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	want, err := execSQL(NewRowStore(tb), sql)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, sql, got, want)
	// Every segment outside the three 5000-row year bands is skipped by the
	// i8 conjuncts' zone maps, none by the folded one.
	for attr, n := range s.Stats().SkipProvenance {
		if attr.Column != "i8" || attr.Via != "zonemap" || n == 0 {
			t.Errorf("skip attributed to %+v (%d times), want only i8's zone maps", attr, n)
		}
	}
	if c := s.Counters(); c.SegmentsSkipped == 0 || c.SegmentsScanned == 0 {
		t.Errorf("scan visited %d segments and skipped %d, want some of each", c.SegmentsScanned, c.SegmentsSkipped)
	}
}

// sameVectorBits compares two results cell for cell: codes, ints, and floats
// by bit pattern (NaN payloads and the sign of zero included).
func sameVectorBits(a, b *Result) error {
	if a.Len() != b.Len() || len(a.Vecs) != len(b.Vecs) {
		return fmt.Errorf("shape %dx%d vs %dx%d", a.Len(), len(a.Vecs), b.Len(), len(b.Vecs))
	}
	for j := range a.Vecs {
		va, vb := &a.Vecs[j], &b.Vecs[j]
		if va.Kind != vb.Kind || va.null != vb.null {
			return fmt.Errorf("column %d: kind %v null %v vs kind %v null %v", j, va.Kind, va.null, vb.Kind, vb.null)
		}
		for i := 0; i < a.Len(); i++ {
			switch {
			case va.Kind == dataset.KindString && va.Codes[i] != vb.Codes[i],
				va.Kind == dataset.KindInt && va.Ints[i] != vb.Ints[i],
				va.Kind == dataset.KindFloat && math.Float64bits(va.Floats[i]) != math.Float64bits(vb.Floats[i]):
				return fmt.Errorf("column %s row %d: %v vs %v", a.Cols[j], i, va.Value(i), vb.Value(i))
			}
		}
	}
	return nil
}

// TestAddSelEqualsAddLoop: feeding a sink a segment's selection at once gives,
// bit for bit, what feeding it the same rows one at a time gives — group
// order, COUNT, SUM, AVG, MIN and MAX over float, raw int, coded int and
// string cells, with NaN and both zeros among them, first in their group and
// not; over no, one, two and three keys, a representative cell, and a lone
// float SUM or AVG — and a sink that looks the same key codes up in its
// hashed table (hashAll) agrees with the one indexing them directly.
func TestAddSelEqualsAddLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tb := dataset.NewTable("t", []dataset.Field{
		{Name: "k8", Kind: dataset.KindString}, {Name: "k16", Kind: dataset.KindInt},
		{Name: "v", Kind: dataset.KindFloat}, {Name: "m", Kind: dataset.KindInt}, {Name: "raw", Kind: dataset.KindInt},
		{Name: "num", Kind: dataset.KindString},
	})
	cells := []float64{math.NaN(), 0, math.Copysign(0, -1), 1.25, -3.5, 1e300, -1e300, math.Inf(1)}
	rows := 3*segmentSize + 77
	for r := 0; r < rows; r++ {
		tb.AppendRow(dataset.SV(fmt.Sprintf("k%d", rng.Intn(7))), dataset.IV(int64(rng.Intn(300))),
			dataset.FV(cells[rng.Intn(len(cells))]), dataset.IV(int64(rng.Intn(40))-20), dataset.IV(int64(r)*1_000_003),
			dataset.SV(fmt.Sprint(rng.Intn(9))))
	}
	s := NewColumnStore(tb)
	for _, sql := range []string{
		"SELECT k8, k16, COUNT(*) AS n, COUNT(v) AS nv, SUM(v) AS sv, AVG(v) AS av, MIN(v) AS lo, MAX(v) AS hi FROM t GROUP BY k8, k16",
		"SELECT k16, SUM(m) AS sm, MIN(m) AS lm, MAX(raw) AS hr, AVG(raw) AS ar, SUM(num) AS sn, MAX(k16) AS hk FROM t GROUP BY k16",
		"SELECT MIN(v) AS lo, MAX(v) AS hi, SUM(v) AS sv, COUNT(*) AS n FROM t",
		"SELECT k8, MIN(v) AS lo, MAX(v) AS hi FROM t GROUP BY k8",
		// One SUM or AVG of a raw float: addSel folds it as it meets each row.
		"SELECT k16, k8, AVG(v) AS av FROM t GROUP BY k16, k8",
		"SELECT k8, SUM(v) AS sv FROM t GROUP BY k8",
		// Three keys: in passes.
		"SELECT k8, num, m, SUM(v) AS sv, COUNT(*) AS n FROM t GROUP BY k8, m, num",
		// A representative cell: the group's first row's.
		"SELECT k8, raw, SUM(v) AS sv FROM t GROUP BY k8",
		"SELECT k16, raw, v, MAX(v) AS hi FROM t GROUP BY k16",
	} {
		q, err := minisql.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := s.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		bySel, byAdd, hashed := p.newSink(tb), p.newSink(tb), p.newSink(tb)
		if bySel.slots == nil {
			t.Fatalf("%s: not a direct plan", sql)
		}
		hashed.hashAll()
		sel := newSegBits()
		for seg := 0; seg*segmentSize < rows; seg++ {
			lo, hi := seg*segmentSize, min(rows, (seg+1)*segmentSize)
			clearBits(sel)
			switch seg {
			case 0: // every row, as a scan without a predicate passes them
				bySel.addSel(nil, lo, hi)
				hashed.addSel(nil, lo, hi)
				for i := lo; i < hi; i++ {
					byAdd.add(i)
				}
				continue
			case 1: // sparse
				for i := lo; i < hi; i += 1 + rng.Intn(90) {
					setBit(sel, i-lo)
				}
			default: // dense, and the partial last word of the partial segment
				for i := lo; i < hi; i++ {
					if rng.Intn(3) > 0 {
						setBit(sel, i-lo)
					}
				}
			}
			bySel.addSel(sel, lo, hi)
			hashed.addSel(sel, lo, hi)
			for i := lo; i < hi; i++ {
				if sel[(i-lo)>>6]&(1<<(uint(i-lo)&63)) != 0 {
					byAdd.add(i)
				}
			}
		}
		got, want, hash := bySel.finish(), byAdd.finish(), hashed.finish()
		if err := sameVectorBits(got, want); err != nil {
			t.Errorf("%s: addSel vs one row at a time: %v", sql, err)
		}
		if err := sameVectorBits(got, hash); err != nil {
			t.Errorf("%s: direct vs hashed lookup: %v", sql, err)
		}
		if 4*hashed.n > 3*len(hashed.table) {
			t.Errorf("%s: %d groups in a hashed table of %d entries", sql, hashed.n, len(hashed.table))
		}
	}
}

// hashAll makes s look its keys up in its hashed table, as a combined key
// space past maxDirectKeys does: the same key words, the other lookup. The
// table starts at its smallest, so the test's groups double it several
// times.
func (s *planSink) hashAll() {
	s.slots, s.sum, s.most = nil, nil, 0
	s.table, s.shift = make([]int32, 1<<minTableBits), 64-minTableBits
}
