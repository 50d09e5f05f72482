package dataset

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// wideColumn is the column layout this package had before columns were
// packed — int32 codes beside a string dictionary, one int64 per integer cell
// — kept as the reference the packed column must answer like, cell for cell.
type wideColumn struct {
	kind   Kind
	codes  []int32
	dict   []string
	dictIx map[string]int32
	ints   []int64
}

func newWideColumn(kind Kind) *wideColumn {
	return &wideColumn{kind: kind, dictIx: make(map[string]int32)}
}

func (c *wideColumn) append(v Value) {
	if c.kind == KindInt {
		c.ints = append(c.ints, v.I)
		return
	}
	code, ok := c.dictIx[v.S]
	if !ok {
		code = int32(len(c.dict))
		c.dict = append(c.dict, v.S)
		c.dictIx[v.S] = code
	}
	c.codes = append(c.codes, code)
}

func (c *wideColumn) value(i int) Value {
	if c.kind == KindInt {
		return IV(c.ints[i])
	}
	return SV(c.dict[c.codes[i]])
}

func (c *wideColumn) float(i int) float64 {
	if c.kind == KindInt {
		return float64(c.ints[i])
	}
	return SV(c.dict[c.codes[i]]).Float()
}

func (c *wideColumn) distinctSorted() []Value {
	if c.kind == KindString {
		vals := append([]string(nil), c.dict...)
		sort.Strings(vals)
		out := make([]Value, len(vals))
		for i, s := range vals {
			out[i] = SV(s)
		}
		return out
	}
	seen := make(map[int64]struct{})
	for _, v := range c.ints {
		seen[v] = struct{}{}
	}
	keys := make([]int64, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]Value, len(keys))
	for i, k := range keys {
		out[i] = IV(k)
	}
	return out
}

// checkAgainstWide requires column j of t to answer as the wide reference
// does, and its packed form to be the narrowest that holds it.
func checkAgainstWide(t *testing.T, how string, tab *Table, j int, want *wideColumn) {
	t.Helper()
	c := tab.cols[j]
	n := len(want.codes) + len(want.ints)
	if c.Len() != n || tab.NumRows() != n {
		t.Fatalf("%s: column %q holds %d rows of the table's %d, want %d", how, c.Field.Name, c.Len(), tab.NumRows(), n)
	}
	for i := 0; i < n; i++ {
		g, w := c.Value(i), want.value(i)
		if g != w || tab.Row(i)[j] != w || c.Float(i) != want.float(i) {
			t.Fatalf("%s: column %q row %d: Value %v, Row %v, Float %v; want %v, %v", how, c.Field.Name, i, g, tab.Row(i)[j], c.Float(i), w, want.float(i))
		}
	}
	if got := c.DistinctSorted(); !reflect.DeepEqual(got, want.distinctSorted()) {
		t.Fatalf("%s: column %q: %d distinct values, want %d", how, c.Field.Name, len(got), len(want.distinctSorted()))
	}
	if want.kind == KindString {
		// Codes are first-appearance order on both sides.
		if !reflect.DeepEqual(c.Dict(), want.dict) && len(want.dict) > 0 {
			t.Fatalf("%s: column %q: dictionary differs", how, c.Field.Name)
		}
		for i, code := range want.codes {
			if c.Code(i) != code {
				t.Fatalf("%s: column %q row %d: code %d, want %d", how, c.Field.Name, i, c.Code(i), code)
			}
		}
		for code, s := range want.dict {
			if c.CodeOf(s) != int32(code) {
				t.Fatalf("%s: column %q: CodeOf(%q) = %d, want %d", how, c.Field.Name, s, c.CodeOf(s), code)
			}
		}
		if c.CodeOf("never seen") != -1 {
			t.Fatalf("%s: column %q: CodeOf of an unseen string is not -1", how, c.Field.Name)
		}
	} else {
		distinct := len(want.distinctSorted())
		if c.Coded() != (distinct <= MaxIntDictCardinality) {
			t.Fatalf("%s: column %q with %d distinct values: Coded() = %v", how, c.Field.Name, distinct, c.Coded())
		}
		if c.Coded() {
			if c.Ints() != nil || len(c.IntDict()) != distinct {
				t.Fatalf("%s: column %q keeps %d raw ints beside a dictionary of %d, want none and %d", how, c.Field.Name, len(c.Ints()), len(c.IntDict()), distinct)
			}
			for i, v := range want.ints {
				if code := c.Code(i); c.IntDict()[code] != v || c.CodeOfInt(v) != code {
					t.Fatalf("%s: column %q row %d: code %d is %d, CodeOfInt(%d) = %d", how, c.Field.Name, i, code, c.IntDict()[code], v, c.CodeOfInt(v))
				}
			}
		} else if c.IntDict() != nil || c.Codes().Len() != 0 {
			t.Fatalf("%s: raw column %q keeps a dictionary or codes", how, c.Field.Name)
		}
	}
	if c.Coded() {
		if got, want := c.Codes().Width(), CodeWidth(c.Cardinality()); got != want {
			t.Fatalf("%s: column %q: %d-byte codes for %d dictionary entries, want %d", how, c.Field.Name, got, c.Cardinality(), want)
		}
	}
}

// packValues draws card distinct strings and card distinct ints: negatives,
// both ends of int64, neighbours above 2^53 (which float64 cannot tell apart)
// and, from 4097 on, values too spread out for a dense index.
func packValues(rng *rand.Rand, card int) (strs []string, ints []int64) {
	special := []int64{math.MinInt64, math.MaxInt64, 1<<53 + 1, 1<<53 + 2, -(1<<53 + 1), 0, -1}
	seen := make(map[int64]bool)
	for len(ints) < card {
		var v int64
		switch {
		case len(ints) < len(special) && card > 1:
			v = special[len(ints)]
		case card > 4096 && rng.Intn(2) == 0:
			v = rng.Int63() - 1<<62
		default:
			v = int64(rng.Intn(4*card+1)) - int64(card)
		}
		if !seen[v] {
			seen[v] = true
			ints = append(ints, v)
		}
	}
	for i := 0; i < card; i++ {
		strs = append(strs, fmt.Sprintf("s%dx", i*7919%(card+1)))
	}
	return strs, ints
}

// TestPackedColumnsAnswerLikeWideOnes builds a string and an int column at
// cardinalities on both sides of every width and layout boundary, every way a
// table is built — Append, AppendRange through a Remap (into an empty table
// and, from a Gather, on top of rows that are there), Gather, ReadCSV (off
// the Go heap, through Chunks.Table) — with the distinct values arriving
// gradually, so the appends cross the boundaries with rows already in place.
func TestPackedColumnsAnswerLikeWideOnes(t *testing.T) {
	fields := []Field{{"s", KindString}, {"i", KindInt}}
	for _, card := range []int{0, 1, 255, 256, 257, 4095, 4096, 4097, 65535, 65536, 65537} {
		rng := rand.New(rand.NewSource(int64(card)))
		strs, ints := packValues(rng, card)
		// Row r introduces value r while values remain, then repeats.
		rows := make([]Row, 0, card+card/4+3)
		for r := 0; r < cap(rows) && card > 0; r++ {
			k := r
			if r >= card {
				k = rng.Intn(card)
			}
			rows = append(rows, Row{SV(strs[k]), IV(ints[k])})
		}
		wideS, wideI := newWideColumn(KindString), newWideColumn(KindInt)
		appended := NewTable("t", fields)
		for _, row := range rows {
			wideS.append(row[0])
			wideI.append(row[1])
			appended.AppendRow(row...)
		}
		check := func(how string, tab *Table) {
			t.Helper()
			checkAgainstWide(t, fmt.Sprintf("cardinality %d, %s", card, how), tab, 0, wideS)
			checkAgainstWide(t, fmt.Sprintf("cardinality %d, %s", card, how), tab, 1, wideI)
		}
		check("AppendRow", appended)

		ranged := NewTable("t", fields)
		rm := NewRemap(appended)
		for lo := 0; lo < len(rows); lo += 1000 {
			ranged.AppendRange(appended, lo, min(lo+1000, len(rows)), rm)
		}
		check("AppendRange", ranged)

		// Half by AppendRow, the rest gathered on top: the gather meets a
		// table with rows, dictionaries and widths of its own.
		mixed := NewTable("t", fields)
		half := len(rows) / 2
		for _, row := range rows[:half] {
			mixed.AppendRow(row...)
		}
		rest := make([]int, 0, len(rows)-half)
		for r := half; r < len(rows); r++ {
			rest = append(rest, r)
		}
		gathered := appended.Gather(rest)
		mixed.AppendRange(gathered, 0, len(rest), NewRemap(gathered))
		check("AppendRow then AppendRange of a Gather", mixed)
		all := make([]int, len(rows))
		for r := range all {
			all[r] = r
		}
		check("Gather", appended.Gather(all))

		if card == 0 {
			continue // an empty CSV has no kinds to sniff
		}
		var buf bytes.Buffer
		if err := WriteCSV(appended, &buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := readCSV("t", bytes.NewReader(buf.Bytes()), 1<<14) // many chunks
		if err != nil {
			t.Fatal(err)
		}
		check("ReadCSV", loaded)
		for _, c := range loaded.cols {
			if c.capRows() != c.Len() {
				t.Fatalf("cardinality %d: ReadCSV column %q has room for %d rows, holds %d", card, c.Field.Name, c.capRows(), c.Len())
			}
		}
	}
}

// TestTruncateKeepsLayoutAndDictionaries: a buffer table that drains keeps
// its dictionaries — string and int — its code widths, and an int column that
// went raw stays raw.
func TestTruncateKeepsLayoutAndDictionaries(t *testing.T) {
	tab := NewTable("t", []Field{{"s", KindString}, {"i", KindInt}, {"wide", KindInt}})
	for r := 0; r < MaxIntDictCardinality+1; r++ {
		tab.AppendRow(SV(fmt.Sprint(r%300)), IV(int64(r%300)), IV(int64(r)))
	}
	tab.Truncate()
	s, i, wide := tab.Column("s"), tab.Column("i"), tab.Column("wide")
	if tab.NumRows() != 0 || s.Len() != 0 || i.Len() != 0 || wide.Len() != 0 {
		t.Fatal("Truncate left rows behind")
	}
	if s.Cardinality() != 300 || i.Cardinality() != 300 || s.Codes().Width() != 2 || i.Codes().Width() != 2 || wide.Coded() {
		t.Fatalf("after Truncate: %d strings at width %d, %d ints at width %d, wide coded %v",
			s.Cardinality(), s.Codes().Width(), i.Cardinality(), i.Codes().Width(), wide.Coded())
	}
	tab.AppendRow(SV("299"), IV(299), IV(7))
	if s.Code(0) != 299 || i.Code(0) != 299 || wide.Int(0) != 7 {
		t.Fatalf("codes after Truncate: %d, %d; want the old dictionaries' 299", s.Code(0), i.Code(0))
	}
}

// TestIntIndexDenseThenMap drives the value-to-code index through its dense
// table — growing both ways, at both ends of int64 — and into the map.
func TestIntIndexDenseThenMap(t *testing.T) {
	for _, vals := range [][]int64{
		{5, 6, 4, 1000, -1000, 40000, -20000},                     // grows up and down, stays dense
		{math.MaxInt64, math.MaxInt64 - 3, math.MaxInt64 - 70000}, // top of the range, then spills
		{math.MinInt64, math.MinInt64 + 9, math.MinInt64 + 70000}, // bottom of the range, then spills
		{math.MinInt64, math.MaxInt64, 0},                         // spans everything
		{0, 1 << 40, -(1 << 40)},
	} {
		var ix intIndex
		for code, v := range vals {
			ix.add(v, int32(code))
			for want, seen := range vals[:code+1] {
				if got, ok := ix.lookup(seen); !ok || got != int32(want) {
					t.Fatalf("%v: after adding %d values, lookup(%d) = %d, %v; want %d", vals, code+1, seen, got, ok, want)
				}
			}
		}
		for _, absent := range []int64{7, -7, math.MaxInt64 - 1, math.MinInt64 + 1, 1 << 41} {
			if _, ok := ix.lookup(absent); ok {
				t.Fatalf("%v: lookup(%d) finds a value never added", vals, absent)
			}
		}
	}
}
