package dataset

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueCoercions(t *testing.T) {
	cases := []struct {
		v Value
		f float64
		i int64
		s string
	}{
		{IV(42), 42, 42, "42"},
		{FV(2.5), 2.5, 2, "2.5"},
		{SV("7"), 7, 7, "7"},
		{SV("x"), 0, 0, "x"},
		{SV(""), 0, 0, ""},
	}
	for _, c := range cases {
		if got := c.v.Float(); got != c.f {
			t.Errorf("%v.Float() = %v, want %v", c.v, got, c.f)
		}
		if got := c.v.Int(); got != c.i {
			t.Errorf("%v.Int() = %v, want %v", c.v, got, c.i)
		}
		if got := c.v.String(); got != c.s {
			t.Errorf("%v.String() = %q, want %q", c.v, got, c.s)
		}
	}
}

func TestValueEqualMixedNumeric(t *testing.T) {
	if !IV(3).Equal(FV(3)) {
		t.Error("IV(3) should equal FV(3)")
	}
	if IV(3).Equal(SV("3")) {
		t.Error("IV(3) should not equal SV(\"3\")")
	}
	if !SV("a").Equal(SV("a")) {
		t.Error("SV equality broken")
	}
}

func TestValueCompare(t *testing.T) {
	if IV(1).Compare(IV(2)) != -1 || IV(2).Compare(IV(1)) != 1 || IV(2).Compare(FV(2)) != 0 {
		t.Error("numeric compare broken")
	}
	if SV("a").Compare(SV("b")) != -1 {
		t.Error("string compare broken")
	}
}

func TestValueCompareIsAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return IV(a).Compare(IV(b)) == -IV(b).Compare(IV(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseValue(t *testing.T) {
	if v := ParseValue("12"); v.Kind != KindInt || v.I != 12 {
		t.Errorf("ParseValue(12) = %#v", v)
	}
	if v := ParseValue("1.5"); v.Kind != KindFloat || v.F != 1.5 {
		t.Errorf("ParseValue(1.5) = %#v", v)
	}
	if v := ParseValue("chair"); v.Kind != KindString || v.S != "chair" {
		t.Errorf("ParseValue(chair) = %#v", v)
	}
	if v := ParseValue(""); v.Kind != KindString || v.S != "" {
		t.Errorf("ParseValue(empty) = %#v", v)
	}
}

func TestNullValue(t *testing.T) {
	if !NullValue.IsNull() {
		t.Error("NullValue must report IsNull")
	}
	if SV("null").IsNull() {
		t.Error("the literal string 'null' must not be the null sentinel")
	}
	if NullValue.String() != "NULL" {
		t.Errorf("NullValue.String() = %q", NullValue.String())
	}
}

func sampleTable() *Table {
	t := NewTable("sales", []Field{
		{Name: "product", Kind: KindString},
		{Name: "year", Kind: KindInt},
		{Name: "sales", Kind: KindFloat},
	})
	t.AppendRow(SV("chair"), IV(2014), FV(100))
	t.AppendRow(SV("table"), IV(2014), FV(200))
	t.AppendRow(SV("chair"), IV(2015), FV(150))
	t.AppendRow(SV("desk"), IV(2015), FV(50))
	return t
}

func TestTableBasics(t *testing.T) {
	tb := sampleTable()
	if tb.NumRows() != 4 || tb.NumCols() != 3 {
		t.Fatalf("shape = %dx%d", tb.NumRows(), tb.NumCols())
	}
	if !tb.HasColumn("product") || tb.HasColumn("nope") {
		t.Error("HasColumn broken")
	}
	r := tb.Row(2)
	if r[0].S != "chair" || r[1].I != 2015 || r[2].F != 150 {
		t.Errorf("Row(2) = %v", r)
	}
	if got := tb.Column("product").Cardinality(); got != 3 {
		t.Errorf("product cardinality = %d, want 3", got)
	}
}

func TestColumnDictionaryEncoding(t *testing.T) {
	tb := sampleTable()
	c := tb.Column("product")
	if c.CodeOf("chair") != c.Code(0) || c.Code(0) != c.Code(2) {
		t.Error("same string must share a code")
	}
	if c.CodeOf("widget") != -1 {
		t.Error("CodeOf of unseen string must be -1")
	}
	if len(c.Dict()) != 3 {
		t.Errorf("dict size = %d", len(c.Dict()))
	}
}

func TestDistinctSorted(t *testing.T) {
	tb := sampleTable()
	got := tb.Column("product").DistinctSorted()
	want := []string{"chair", "desk", "table"}
	for i, w := range want {
		if got[i].S != w {
			t.Errorf("distinct[%d] = %q, want %q", i, got[i].S, w)
		}
	}
	years := tb.Column("year").DistinctSorted()
	if len(years) != 2 || years[0].I != 2014 || years[1].I != 2015 {
		t.Errorf("year distinct = %v", years)
	}
	sales := tb.Column("sales").DistinctSorted()
	if len(sales) != 4 || sales[0].F != 50 {
		t.Errorf("sales distinct = %v", sales)
	}
}

func TestCategoricalAndMeasureColumns(t *testing.T) {
	tb := sampleTable()
	if got := tb.CategoricalColumns(); len(got) != 1 || got[0] != "product" {
		t.Errorf("categorical = %v", got)
	}
}

func TestColumnFloatAccess(t *testing.T) {
	tb := sampleTable()
	if tb.Column("year").Float(0) != 2014 {
		t.Error("int column Float broken")
	}
	if tb.Column("sales").Float(1) != 200 {
		t.Error("float column Float broken")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tb := sampleTable()
	var buf bytes.Buffer
	if err := WriteCSV(tb, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("sales", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != tb.NumRows() || got.NumCols() != tb.NumCols() {
		t.Fatalf("round trip shape %dx%d", got.NumRows(), got.NumCols())
	}
	for i := 0; i < tb.NumRows(); i++ {
		a, b := tb.Row(i), got.Row(i)
		for j := range a {
			if !a[j].Equal(b[j]) {
				t.Errorf("row %d col %d: %v != %v", i, j, a[j], b[j])
			}
		}
	}
	if got.Column("year").Field.Kind != KindInt {
		t.Error("year should sniff as int")
	}
	// Integral floats render without a decimal point, so they sniff back as
	// int; the values still compare equal above.
	if k := got.Column("sales").Field.Kind; k == KindString {
		t.Error("sales should sniff as numeric")
	}
}

func TestCSVKindSniffing(t *testing.T) {
	in := "a,b,c\n1,1.5,x\n2,2,y\n"
	tb, err := ReadCSV("t", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tb.Column("a").Field.Kind != KindInt {
		t.Error("a should be int")
	}
	if tb.Column("b").Field.Kind != KindFloat {
		t.Error("b should be float (mixed int/float)")
	}
	if tb.Column("c").Field.Kind != KindString {
		t.Error("c should be string")
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV("t", strings.NewReader("")); err == nil {
		t.Error("empty input should error")
	}
	if _, err := ReadCSV("t", strings.NewReader("a,b\n1\n")); err == nil {
		t.Error("ragged row should error")
	}
}

func TestAppendRowArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong arity")
		}
	}()
	sampleTable().AppendRow(SV("x"))
}

func TestRowClone(t *testing.T) {
	r := Row{SV("a"), IV(1)}
	c := r.Clone()
	c[0] = SV("b")
	if r[0].S != "a" {
		t.Error("Clone must not alias")
	}
}

// TestScratchSegmentsShareDictionaries pins the two ways a scan holds a
// segment: a Scratch table — the schema, layouts and dictionaries
// themselves, storage for a segment, Resize within it — and a Slice view,
// whose columns a second Slice re-points in place.
func TestScratchSegmentsShareDictionaries(t *testing.T) {
	fields := []Field{{Name: "k", Kind: KindString}, {Name: "i", Kind: KindInt}, {Name: "f", Kind: KindFloat}}
	base := NewTable("t", fields)
	base.Column("i").SetRawInts()
	for r := 0; r < 300; r++ {
		base.AppendRow(SV("k"+strconv.Itoa(r)), IV(int64(r)), FV(float64(r)/4))
	}
	s := base.Scratch(100)
	if s.NumRows() != 100 || s.CapRows() != 100 || s.Name != "t" {
		t.Fatalf("scratch: %d rows, capacity %d, name %q", s.NumRows(), s.CapRows(), s.Name)
	}
	if k := s.Column("k"); k.Codes().Width() != 2 || k.CodeOf("k299") != 299 || s.Column("i").Ints() == nil {
		t.Fatal("a scratch table has its table's layouts and dictionaries")
	}
	s.Resize(40)
	if s.NumRows() != 40 || s.Column("f").Len() != 40 || s.CapRows() != 100 {
		t.Fatalf("resized: %d rows, %d floats, capacity %d", s.NumRows(), s.Column("f").Len(), s.CapRows())
	}
	if empty := base.Scratch(0); empty.CapRows() != 0 || empty.Column("k").Cardinality() != 300 {
		t.Fatal("a scratch of no rows holds the dictionaries and no storage")
	}

	v := base.Slice(10, 20, nil)
	k := v.Column("k")
	if v.NumRows() != 10 || k.Value(0).S != "k10" || v.Column("i").Int(9) != 19 {
		t.Fatalf("view of rows [10, 20): %d rows, first %v", v.NumRows(), k.Value(0))
	}
	if again := base.Slice(200, 203, v); again != v || v.Column("k") != k || k.Value(2).S != "k202" || v.Column("f").Floats()[0] != 50 {
		t.Fatal("a second Slice into a view re-points the same columns")
	}
}

// TestColumnWiseAppendsMatchAppendRow: AppendRange — of src itself and of rows
// Gather took from it, which share its codes — leaves the destination — cells,
// dictionary order, code index — exactly as one AppendRow per row would,
// including a destination that already has rows and a dictionary in another
// order, and a Remap carried across calls.
func TestColumnWiseAppendsMatchAppendRow(t *testing.T) {
	fields := []Field{{"k", KindString}, {"n", KindInt}, {"f", KindFloat}}
	src := NewTable("src", fields)
	for i := 0; i < 500; i++ {
		src.AppendRow(SV(string(rune('a'+i*7%26))), IV(int64(i*i%97)), FV(float64(i)/8))
	}
	seed := func() *Table {
		dst := NewTable("dst", fields)
		dst.AppendRow(SV("z"), IV(-1), FV(-1))
		dst.AppendRow(SV("a"), IV(-2), FV(-2))
		return dst
	}
	rows := make([]int, 0, 300)
	for i := 0; i < 300; i++ {
		rows = append(rows, (i*131+17)%500)
	}

	want, got := seed(), seed()
	rm := NewRemap(src)
	for _, r := range rows[:100] {
		want.AppendRow(src.Row(r)...)
	}
	got.AppendRange(src.Gather(rows[:100]), 0, 100, rm)
	for r := 40; r < 400; r++ {
		want.AppendRow(src.Row(r)...)
	}
	got.AppendRange(src, 40, 400, rm)
	for _, r := range rows[100:] {
		want.AppendRow(src.Row(r)...)
	}
	got.AppendRange(src.Gather(rows[100:]), 0, len(rows)-100, rm)
	if err := sameTable(got, want); err != nil {
		t.Fatal(err)
	}
}
