package zql

import (
	"sort"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v\nquery:\n%s", err, src)
	}
	return q
}

func TestCorpusParses(t *testing.T) {
	keys := make([]string, 0, len(Corpus))
	for k := range Corpus {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := Parse(Corpus[k]); err != nil {
			t.Errorf("Table %s does not parse: %v", k, err)
		}
	}
}

func TestParseTable21Shape(t *testing.T) {
	q := mustParse(t, Corpus["2.1"])
	if len(q.Rows) != 1 {
		t.Fatalf("%d rows", len(q.Rows))
	}
	r := q.Rows[0]
	if !r.Name.Output || r.Name.Var != "f1" {
		t.Errorf("name = %+v", r.Name)
	}
	if r.X.Kind != AxisLiteral || r.X.Attr != "year" {
		t.Errorf("x = %+v", r.X)
	}
	if r.Y.Kind != AxisLiteral || r.Y.Attr != "sales" {
		t.Errorf("y = %+v", r.Y)
	}
	if len(r.Z) != 1 || r.Z[0].Kind != ZValues || r.Z[0].Var != "v1" || r.Z[0].Attr != "product" || !r.Z[0].ValSet.Star {
		t.Errorf("z = %+v", r.Z)
	}
	if r.Constraints != "location='US'" {
		t.Errorf("constraints = %q", r.Constraints)
	}
	if r.Viz.Kind != VizSingle || r.Viz.Defs[0].Type != "bar" || r.Viz.Defs[0].YAgg != "sum" {
		t.Errorf("viz = %+v", r.Viz)
	}
}

func TestParseUserInputRow(t *testing.T) {
	q := mustParse(t, Corpus["2.2"])
	if !q.Rows[0].Name.UserInput {
		t.Error("-f1 must flag user input")
	}
	p := q.Rows[1].Process
	if len(p) != 1 {
		t.Fatalf("process = %+v", p)
	}
	d := p[0]
	if d.Mech != MechArgmin || d.Filter != FilterK || d.K != 1 {
		t.Errorf("decl = %+v", d)
	}
	if len(d.OutVars) != 1 || d.OutVars[0] != "v2" || d.LoopVars[0] != "v1" {
		t.Errorf("vars = %+v", d)
	}
	if d.Expr.Kind != ObjD || d.Expr.F1 != "f1" || d.Expr.F2 != "f2" {
		t.Errorf("expr = %+v", d.Expr)
	}
}

func TestParseThresholdFilter(t *testing.T) {
	q := mustParse(t, Corpus["2.3"])
	d := q.Rows[0].Process[0]
	if d.Mech != MechArgany || d.Filter != FilterT || d.TOp != ">" || d.TVal != 0 {
		t.Errorf("decl = %+v", d)
	}
	if q.Rows[1].Process[0].TOp != "<" {
		t.Errorf("decl2 = %+v", q.Rows[1].Process[0])
	}
	// Row 3: range intersection and R.
	z := q.Rows[2].Z[0]
	if z.Kind != ZSetExpr || z.Var != "v4" || z.Set.Op == nil || *z.Set.Op != SetIntersect {
		t.Errorf("z = %+v", z)
	}
	r := q.Rows[2].Process[0]
	if r.Mech != MechR || r.RK != 10 || r.RName != "f3" || r.RVars[0] != "v4" {
		t.Errorf("R = %+v", r)
	}
}

func TestParseAxisSetDecl(t *testing.T) {
	q := mustParse(t, Corpus["3.1"])
	y := q.Rows[0].Y
	if y.Kind != AxisVarDecl || y.Var != "y1" {
		t.Fatalf("y = %+v", y)
	}
	if len(y.Set.Literals) != 2 || y.Set.Literals[0] != "profit" {
		t.Errorf("set = %+v", y.Set)
	}
}

func TestParseAxisComposition(t *testing.T) {
	q := mustParse(t, Corpus["3.2"])
	y := q.Rows[0].Y
	if y.Kind != AxisSum || len(y.Parts) != 2 || y.Parts[0].Attr != "profit" || y.Parts[1].Attr != "sales" {
		t.Errorf("sum axis = %+v", y)
	}
	q = mustParse(t, Corpus["3.3"])
	x := q.Rows[0].X
	if x.Kind != AxisCross || len(x.Parts) != 2 {
		t.Fatalf("cross axis = %+v", x)
	}
	if x.Parts[0].Attr != "product" || x.Parts[1].Var != "x1" || len(x.Parts[1].Set.Literals) != 3 {
		t.Errorf("cross parts = %+v", x.Parts)
	}
}

func TestParseZForms(t *testing.T) {
	q := mustParse(t, Corpus["3.4"])
	if z := q.Rows[0].Z[0]; z.Kind != ZFixed || z.Attr != "product" || z.Value != "chair" {
		t.Errorf("fixed z = %+v", z)
	}
	q = mustParse(t, Corpus["3.6"])
	z := q.Rows[0].Z[0]
	if z.Kind != ZPairs || z.AttrVar != "z1" || z.Var != "v1" {
		t.Fatalf("pairs z = %+v", z)
	}
	pair := z.Set.Pair
	if pair == nil || pair.Attr.Op == nil || *pair.Attr.Op != SetDiff || !pair.Val.Star {
		t.Errorf("pair = %+v", pair)
	}
	q = mustParse(t, Corpus["3.7"])
	z = q.Rows[0].Z[0]
	if z.Kind != ZPairs || z.Set.Op == nil || *z.Set.Op != SetUnion {
		t.Errorf("union pairs = %+v", z)
	}
	q = mustParse(t, Corpus["3.8"])
	if len(q.Rows[0].Z) != 2 {
		t.Fatalf("expected 2 z columns")
	}
	if z2 := q.Rows[0].Z[1]; z2.Attr != "location" || len(z2.ValSet.Literals) != 2 {
		t.Errorf("z2 = %+v", z2)
	}
}

func TestParseVizForms(t *testing.T) {
	q := mustParse(t, Corpus["3.10"])
	d := q.Rows[0].Viz.Defs[0]
	if d.Type != "bar" || d.XBin != 20 || d.YAgg != "sum" {
		t.Errorf("viz = %+v", d)
	}
	q = mustParse(t, Corpus["3.11"])
	vz := q.Rows[0].Viz
	if vz.Kind != VizVarDecl || vz.Var != "s1" || len(vz.Defs) != 3 || vz.Defs[2].XBin != 40 {
		t.Errorf("viz set = %+v", vz)
	}
	q = mustParse(t, Corpus["3.12"])
	vz = q.Rows[0].Viz
	if len(vz.Defs) != 2 || vz.Defs[0].Type != "bar" || vz.Defs[1].Type != "dotplot" {
		t.Errorf("type set = %+v", vz)
	}
	if vz.Defs[1].XBin != 20 {
		t.Error("summarization must apply to every type in the set")
	}
}

func TestParseDerivedNames(t *testing.T) {
	q := mustParse(t, Corpus["3.15"])
	r := q.Rows[1]
	if r.Name.Expr == nil || r.Name.Expr.Kind != NameOrder || r.Name.Expr.Left != "f1" {
		t.Errorf("order expr = %+v", r.Name.Expr)
	}
	if !r.Z[0].Order || r.Z[0].Var != "u1" {
		t.Errorf("order marker = %+v", r.Z[0])
	}
	q = mustParse(t, Corpus["3.16"])
	r = q.Rows[2]
	if r.Name.Expr == nil || r.Name.Expr.Kind != NamePlus || r.Name.Expr.Left != "f1" || r.Name.Expr.Right != "f2" {
		t.Errorf("plus expr = %+v", r.Name.Expr)
	}
	if r.Y.Kind != AxisVarDecl || r.Y.Set != nil {
		t.Errorf("derived y binding = %+v", r.Y)
	}
	if z := r.Z[0]; z.Kind != ZValues || z.Attr != "product" || !z.ValSet.Derived {
		t.Errorf("derived z binding = %+v", z)
	}
}

func TestParseNameExprVariants(t *testing.T) {
	cases := map[string]NameExprKind{
		"f2=f1-f0":    NameMinus,
		"f2=f1^f0":    NameIntersect,
		"f2=f1[3]":    NameIndex,
		"f2=f1[2:5]":  NameSlice,
		"f2=f1.range": NameRange,
		"f2=f1":       NameAlias,
	}
	for cell, want := range cases {
		src := "NAME | X\nf0 | 'a'\nf1 | 'a'\n" + cell + " | 'a'"
		q, err := Parse(src)
		if err != nil {
			t.Errorf("%s: %v", cell, err)
			continue
		}
		if got := q.Rows[2].Name.Expr.Kind; got != want {
			t.Errorf("%s: kind = %v, want %v", cell, got, want)
		}
	}
}

func TestParseNestedProcess(t *testing.T) {
	q := mustParse(t, Corpus["3.20"])
	d := q.Rows[1].Process[0]
	if len(d.Inner) != 1 || d.Inner[0].Fn != "min" || d.Inner[0].Vars[0] != "v2" {
		t.Errorf("inner = %+v", d.Inner)
	}
	q = mustParse(t, Corpus["3.25"])
	d = q.Rows[1].Process[0]
	if len(d.Inner) != 1 || d.Inner[0].Fn != "sum" || len(d.Inner[0].Vars) != 2 {
		t.Errorf("sum inner = %+v", d.Inner)
	}
	if len(d.OutVars) != 2 || d.OutVars[0] != "x3" {
		t.Errorf("outs = %+v", d.OutVars)
	}
}

func TestParseMultipleProcessDecls(t *testing.T) {
	q := mustParse(t, Corpus["3.21"])
	p := q.Rows[1].Process
	if len(p) != 2 || p[0].Mech != MechArgmax || p[1].Mech != MechArgmin {
		t.Errorf("process = %+v", p)
	}
}

func TestParseMultiVarProcess(t *testing.T) {
	q := mustParse(t, Corpus["3.24"])
	d := q.Rows[2].Process[0]
	if len(d.OutVars) != 3 || len(d.LoopVars) != 3 || d.LoopVars[1] != "v2" {
		t.Errorf("multi-var = %+v", d)
	}
	z := q.Rows[3].Z[0]
	if z.Kind != ZSetExpr || *z.Set.Op != SetUnion {
		t.Errorf("union range z = %+v", z)
	}
}

func TestParseInfK(t *testing.T) {
	q := mustParse(t, Corpus["3.15"])
	if d := q.Rows[0].Process[0]; d.K != -1 {
		t.Errorf("k=inf should parse to -1: %+v", d)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                             // no rows
		"BOGUS | X\na | 'b'",           // unknown column
		"NAME | X\nf1 | 'a' | 'extra'", // too many cells
		"NAME | X\nf1 | v1 <-",         // truncated decl is a derived binding: actually valid; see below
		"NAME | X\nf1 | 'a\n",          // unterminated quote
		"NAME\nf1=f9",                  // undeclared derived ref
		"NAME | X\nf1 | 'a'\nf1 | 'b'", // duplicate name
		"NAME | PROCESS\nf1 | v2 <- argmin(v1)[q=3] T(f1)",     // bad filter
		"NAME | PROCESS\nf1 | v2, v3 <- argmin(v1)[k=1] T(f1)", // arity mismatch
		"NAME | PROCESS\nf1 | v2 <- R(0, v1, f1)",              // bad R count
		"NAME | PROCESS\nf1 | v2 <- argmin(v1)[k=1] D(f1)",     // D arity
		"NAME | VIZ\nf1 | {bar, dotplot}.(x=bin(20))",          // viz set without var
		"NAME | Z\nf1 | v1 <- product.*",                       // unquoted attr
	}
	for i, src := range bad {
		if i == 3 {
			continue // `v1 <-` with nothing is the derived-binding form; skip
		}
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d should fail:\n%s", i, src)
		}
	}
}

func TestParseCommentsAndBlankLines(t *testing.T) {
	src := `
# leading comment
NAME | X
-- another comment

*f1 | 'year'
`
	q := mustParse(t, src)
	if len(q.Rows) != 1 {
		t.Errorf("%d rows", len(q.Rows))
	}
}

func TestSplitCellsRespectsNesting(t *testing.T) {
	cells := splitCells("a | ('x'.{'p'} | 'y'.'q') | c")
	if len(cells) != 3 || !strings.Contains(cells[1], "|") {
		t.Errorf("cells = %q", cells)
	}
	cells = splitCells("'a|b' | c")
	if len(cells) != 2 || cells[0] != "'a|b' " {
		t.Errorf("quoted pipe cells = %q", cells)
	}
}

func TestVizDefString(t *testing.T) {
	d := VizDef{Type: "bar", XBin: 20, YAgg: "sum"}
	if d.String() != "bar.(x=bin(20), y=agg('sum'))" {
		t.Errorf("String = %q", d.String())
	}
	if (VizDef{Type: "line"}).String() != "line" {
		t.Error("bare type String broken")
	}
}

func TestUserDefinedObjective(t *testing.T) {
	src := "NAME | Z | PROCESS\nf1 | v1 <- 'p'.* | v2 <- argmax(v1)[k=5] Spike(f1)"
	q := mustParse(t, src)
	d := q.Rows[0].Process[0]
	if d.Expr.Kind != ObjU || d.Expr.User != "Spike" || d.Expr.Args[0] != "f1" {
		t.Errorf("user objective = %+v", d.Expr)
	}
}
