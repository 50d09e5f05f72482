package vea

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/vis"
	"repro/internal/zexec"
	"repro/internal/zql"
)

// fixture builds a small relation in the shape of the paper's Table 4.1:
// (year, month, product, location, sales, profit), with deterministic trends
// (chair sales rise, table sales fall) and small measure domains so the
// visual universe stays materializable.
func fixture() *dataset.Table {
	t := dataset.NewTable("r", []dataset.Field{
		{Name: "year", Kind: dataset.KindInt},
		{Name: "month", Kind: dataset.KindInt},
		{Name: "product", Kind: dataset.KindString},
		{Name: "location", Kind: dataset.KindString},
		{Name: "sales", Kind: dataset.KindFloat},
		{Name: "profit", Kind: dataset.KindFloat},
	})
	for _, p := range []string{"chair", "table"} {
		for _, l := range []string{"US", "UK"} {
			for year := 2014; year <= 2016; year++ {
				for month := 1; month <= 2; month++ {
					dy := float64(year - 2014)
					sales := 100.0
					if p == "chair" {
						sales += dy * 100 // rising
					} else {
						sales += (2 - dy) * 100 // falling
					}
					profit := 300 - sales/2
					t.AppendRow(
						dataset.IV(int64(year)), dataset.IV(int64(month)),
						dataset.SV(p), dataset.SV(l),
						dataset.FV(sales), dataset.FV(profit),
					)
				}
			}
		}
	}
	return t
}

var xyAttrs = []string{"year", "month"}
var measures = []string{"sales", "profit"}

func universe(t *testing.T) *Group {
	t.Helper()
	return Universe(fixture(), xyAttrs, measures)
}

// starExcept builds the σv predicate of Table 4.3: X/Y fixed, one attribute
// != *, one attribute fixed to a value, the rest = *.
func starExcept(g *Group, x, y string, free string, fixed map[string]string) Pred {
	p := And{Cmp{Field: "X", Eq: true, Val: x}, Cmp{Field: "Y", Eq: true, Val: y}}
	for _, a := range g.Attrs {
		if a == free {
			p = append(p, Cmp{Field: a, Eq: false, Val: Star})
			continue
		}
		if v, ok := fixed[a]; ok {
			p = append(p, Cmp{Field: a, Eq: true, Val: v})
			continue
		}
		p = append(p, Cmp{Field: a, Eq: true, Val: Star})
	}
	return p
}

func TestUniverseSize(t *testing.T) {
	g := universe(t)
	// Domains+wildcard: year 4, month 3, product 3, location 3, sales 4
	// (chair 100/200/300 ∪ table 300/200/100 → {100,200,300}), profit 4.
	want := 2 * 2 * 4 * 3 * 3 * 3 * 4 * 4
	if g.Len() != want {
		t.Fatalf("universe size = %d, want %d", g.Len(), want)
	}
}

func TestSelectTable43(t *testing.T) {
	g := universe(t)
	pred := starExcept(g, "year", "sales", "product", map[string]string{"location": "US"})
	got := Select(g, pred)
	// One source per product value: chair, table.
	if got.Len() != 2 {
		t.Fatalf("σv result = %d sources, want 2", got.Len())
	}
	pi := got.AttrIndex("product")
	li := got.AttrIndex("location")
	for _, s := range got.Srcs {
		if s.X != "year" || s.Y != "sales" || s.Vals[pi] == Star || s.Vals[li] != "US" {
			t.Errorf("bad source %+v", s)
		}
	}
}

// TestSelectViaIntersection verifies the Lemma 2 identity the completeness
// proof uses: σv_{X=B}(V) = V ∩v U where U is the filtering visual group
// with X fixed to B and everything else free.
func TestSelectViaIntersection(t *testing.T) {
	g := universe(t)
	v := Select(g, starExcept(g, "year", "sales", "product", map[string]string{"location": "US"}))
	// Direct: σv_{X=year}(V) (a no-op here, but exercised against filter).
	direct := Select(v, Cmp{Field: "X", Eq: true, Val: "year"})
	// Filter group: same sources with X forced to 'year' via Swap of the
	// whole universe selection.
	filter := Select(g, starExcept(g, "year", "sales", "product", map[string]string{"location": "US"}))
	viaIntersect := Intersect(v, filter)
	if direct.Len() != viaIntersect.Len() {
		t.Fatalf("σv = %d, ∩v = %d", direct.Len(), viaIntersect.Len())
	}
	for i := range direct.Srcs {
		if direct.Srcs[i].Key() != viaIntersect.Srcs[i].Key() {
			t.Errorf("source %d diverges", i)
		}
	}
}

func TestSelectNotEqualsExcludesOnlyValue(t *testing.T) {
	g := universe(t)
	v := Select(g, starExcept(g, "year", "sales", "product", map[string]string{"location": "US"}))
	got := Select(v, Cmp{Field: "product", Eq: false, Val: "chair"})
	if got.Len() != 1 {
		t.Fatalf("σv != = %d sources", got.Len())
	}
	if got.Srcs[0].Vals[got.AttrIndex("product")] != "table" {
		t.Error("wrong survivor")
	}
}

func TestSelectOrSemantics(t *testing.T) {
	g := universe(t)
	v := Select(g, starExcept(g, "year", "sales", "product", map[string]string{"location": "US"}))
	got := Select(v, Or{
		Cmp{Field: "product", Eq: true, Val: "chair"},
		Cmp{Field: "product", Eq: true, Val: "table"},
	})
	if got.Len() != v.Len() {
		t.Errorf("σv with ∨ = %d, want %d", got.Len(), v.Len())
	}
}

func productGroup(t *testing.T) *Group {
	g := universe(t)
	return Select(g, starExcept(g, "year", "sales", "product", map[string]string{"location": "US"}))
}

func TestSortByTrend(t *testing.T) {
	v := productGroup(t)
	sorted := SortBy(v, vis.Trend) // increasing trend: table (falling) first
	pi := sorted.AttrIndex("product")
	if sorted.Srcs[0].Vals[pi] != "table" || sorted.Srcs[1].Vals[pi] != "chair" {
		t.Errorf("τv order = %v, %v", sorted.Srcs[0].Vals[pi], sorted.Srcs[1].Vals[pi])
	}
	desc := SortBy(v, func(x *vis.Visualization) float64 { return -vis.Trend(x) })
	if desc.Srcs[0].Vals[pi] != "chair" {
		t.Error("τv with -T must reverse")
	}
}

func TestLimitSliceDedupe(t *testing.T) {
	v := productGroup(t)
	both := Union(v, v)
	if both.Len() != 4 {
		t.Fatalf("∪v = %d", both.Len())
	}
	if Limit(both, 3).Len() != 3 || Limit(both, 99).Len() != 4 || Limit(both, -1).Len() != 0 {
		t.Error("µv bounds broken")
	}
	if got := Slice(both, 2, 3); got.Len() != 2 || got.Srcs[0].Key() != both.Srcs[1].Key() {
		t.Error("µv[a:b] broken")
	}
	if got := Slice(both, 1, -1); got.Len() != 4 {
		t.Error("open slice broken")
	}
	d := Dedup(both)
	if d.Len() != 2 {
		t.Errorf("δv = %d, want 2", d.Len())
	}
	if Dedup(d).Len() != d.Len() {
		t.Error("δv must be idempotent")
	}
}

func TestDiffAndIntersect(t *testing.T) {
	v := productGroup(t)
	chair := Select(v, Cmp{Field: "product", Eq: true, Val: "chair"})
	diff := Diff(v, chair)
	if diff.Len() != 1 || diff.Srcs[0].Vals[diff.AttrIndex("product")] != "table" {
		t.Errorf("\\v = %+v", diff.Srcs)
	}
	inter := Intersect(v, chair)
	if inter.Len() != 1 || inter.Srcs[0].Vals[inter.AttrIndex("product")] != "chair" {
		t.Errorf("∩v = %+v", inter.Srcs)
	}
}

func TestSwapAxis(t *testing.T) {
	v := productGroup(t)
	g := universe(t)
	profitRef := Select(g, starExcept(g, "year", "profit", "product", map[string]string{"location": "US"}))
	swapped := Swap("Y", v, profitRef)
	if swapped.Len() != v.Len() {
		t.Fatalf("βv size = %d", swapped.Len())
	}
	for _, s := range swapped.Srcs {
		if s.Y != "profit" {
			t.Errorf("βv_Y left Y = %q", s.Y)
		}
	}
	// Swap on an attribute: move to location UK.
	ukRef := Select(g, starExcept(g, "year", "sales", "product", map[string]string{"location": "UK"}))
	sw := Swap("location", v, ukRef)
	li := sw.AttrIndex("location")
	for _, s := range sw.Srcs {
		if s.Vals[li] != "UK" {
			t.Errorf("βv_location = %q", s.Vals[li])
		}
	}
}

func TestSwapCrossProductGrowth(t *testing.T) {
	v := productGroup(t) // 2 sources
	g := universe(t)
	// U carries two distinct Y values -> βv yields |V| × 2 sources.
	u := Union(
		Select(g, starExcept(g, "year", "sales", "product", map[string]string{"location": "US"})),
		Select(g, starExcept(g, "year", "profit", "product", map[string]string{"location": "US"})),
	)
	got := Swap("Y", v, u)
	if got.Len() != 4 {
		t.Errorf("βv cross product = %d, want 4", got.Len())
	}
}

func dMetric(a, b *vis.Visualization) float64 {
	return vis.Distance(a, b, vis.DefaultMetric)
}

func TestDistSortsByPairwiseDistance(t *testing.T) {
	g := universe(t)
	v := productGroup(t)
	u := Select(g, starExcept(g, "year", "profit", "product", map[string]string{"location": "US"}))
	got, err := Dist([]string{"product"}, v, u, dMetric)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("φv = %d", got.Len())
	}
	// chair: sales rise, profit falls (max discrepancy); table: sales fall,
	// profit rises (also max). Both are symmetric; just check order is by
	// non-decreasing distance.
	d0 := dMetric(v.Render(got.Srcs[0]), u.Render(matchProduct(u, got.Srcs[0], t)))
	d1 := dMetric(v.Render(got.Srcs[1]), u.Render(matchProduct(u, got.Srcs[1], t)))
	if d0 > d1 {
		t.Errorf("φv order not increasing: %v > %v", d0, d1)
	}
}

func matchProduct(u *Group, s Source, t *testing.T) Source {
	t.Helper()
	pi := u.AttrIndex("product")
	for _, us := range u.Srcs {
		if us.Vals[pi] == s.Vals[pi] {
			return us
		}
	}
	t.Fatal("no match")
	return Source{}
}

func TestDistUndefinedOnDuplicates(t *testing.T) {
	v := productGroup(t)
	dup := Union(v, v)
	if _, err := Dist([]string{"product"}, dup, v, dMetric); err == nil {
		t.Error("φv with duplicate keys in V must be undefined")
	}
	if _, err := Dist([]string{"product"}, v, dup, dMetric); err == nil {
		t.Error("φv with duplicate keys in U must be undefined")
	}
	empty := v.emptyLike()
	if _, err := Dist([]string{"product"}, v, empty, dMetric); err == nil {
		t.Error("φv with unmatched keys must be undefined")
	}
}

func TestFindSortsByReferenceDistance(t *testing.T) {
	v := productGroup(t)
	chair := Select(v, Cmp{Field: "product", Eq: true, Val: "chair"})
	got, err := Find(v, chair, dMetric)
	if err != nil {
		t.Fatal(err)
	}
	pi := got.AttrIndex("product")
	if got.Srcs[0].Vals[pi] != "chair" {
		t.Errorf("ηv nearest to chair = %v", got.Srcs[0].Vals[pi])
	}
	if _, err := Find(v, v, dMetric); err == nil {
		t.Error("ηv with non-singleton reference must be undefined")
	}
}

func TestRepresentativeOperator(t *testing.T) {
	v := productGroup(t)
	got := Representative(v, 1, vis.DefaultMetric, 7)
	if got.Len() != 1 {
		t.Errorf("ζv = %d", got.Len())
	}
	all := Representative(v, 5, vis.DefaultMetric, 7)
	if all.Len() != 2 {
		t.Errorf("ζv with k>n = %d, want n", all.Len())
	}
}

func TestSelectDistributesOverUnion(t *testing.T) {
	v := productGroup(t)
	chairPred := Cmp{Field: "product", Eq: true, Val: "chair"}
	lhs := Select(Union(v, v), chairPred)
	rhs := Union(Select(v, chairPred), Select(v, chairPred))
	if lhs.Len() != rhs.Len() {
		t.Fatalf("σ(A∪B) = %d, σA∪σB = %d", lhs.Len(), rhs.Len())
	}
	for i := range lhs.Srcs {
		if lhs.Srcs[i].Key() != rhs.Srcs[i].Key() {
			t.Error("distribution order mismatch")
		}
	}
}

func TestRenderAppliesWildcards(t *testing.T) {
	v := productGroup(t)
	chair := Select(v, Cmp{Field: "product", Eq: true, Val: "chair"}).Srcs[0]
	r := v.Render(chair)
	if len(r.Points) != 3 {
		t.Fatalf("%d points, want 3 years", len(r.Points))
	}
	// Chair US sales: 2 months × (100 + dy*100) summed.
	if r.Points[0].Y != 200 || r.Points[2].Y != 600 {
		t.Errorf("rendered sums = %v, %v", r.Points[0].Y, r.Points[2].Y)
	}
	// A source with all wildcards aggregates everything.
	all := Source{X: "year", Y: "sales", Vals: []string{Star, Star, Star, Star, Star, Star}}
	ra := v.Render(all)
	var total float64
	for _, p := range ra.Points {
		total += p.Y
	}
	tb := fixture()
	var want float64
	for i := 0; i < tb.NumRows(); i++ {
		want += tb.Column("sales").Float(i)
	}
	if math.Abs(total-want) > 1e-9 {
		t.Errorf("wildcard render total = %v, want %v", total, want)
	}
}

// TestZQLExpressesEta cross-checks Lemma 11 behaviourally: the ηv operator
// and the equivalent ZQL similarity query (in the shape of Table 3.13)
// produce the same product ordering.
func TestZQLExpressesEta(t *testing.T) {
	tb := fixture()
	v := productGroup(t)
	chair := Select(v, Cmp{Field: "product", Eq: true, Val: "chair"})
	alg, err := Find(v, chair, dMetric)
	if err != nil {
		t.Fatal(err)
	}
	src := `
NAME | X      | Y       | Z                  | CONSTRAINTS   | VIZ                | PROCESS
f1   | 'year' | 'sales' | 'product'.'chair'  | location='US' | bar.(y=agg('sum')) |
f2   | 'year' | 'sales' | v1 <- 'product'.*  | location='US' | bar.(y=agg('sum')) | v2 <- argmin(v1)[k=inf] D(f1, f2)
*f3  | 'year' | 'sales' | v2                 | location='US' | bar.(y=agg('sum')) |`
	q, err := zql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := zexec.Run(q, engine.NewRowStore(tb), zexec.Options{Table: "r", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	zqlOrder := res.Bindings["v2"]
	pi := alg.AttrIndex("product")
	if len(zqlOrder) != alg.Len() {
		t.Fatalf("lengths differ: %d vs %d", len(zqlOrder), alg.Len())
	}
	for i := range zqlOrder {
		if zqlOrder[i] != alg.Srcs[i].Vals[pi] {
			t.Errorf("ηv vs ZQL order at %d: %s vs %s", i, alg.Srcs[i].Vals[pi], zqlOrder[i])
		}
	}
}

// TestZQLExpressesTau cross-checks Lemma 3: τv_T matches ZQL's
// argmin[k=inf] T(f1) ordering.
func TestZQLExpressesTau(t *testing.T) {
	tb := fixture()
	v := productGroup(t)
	alg := SortBy(v, vis.Trend)
	src := `
NAME | X      | Y       | Z                 | CONSTRAINTS   | VIZ                | PROCESS
f1   | 'year' | 'sales' | v1 <- 'product'.* | location='US' | bar.(y=agg('sum')) | u1 <- argmin(v1)[k=inf] T(f1)`
	q, err := zql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := zexec.Run(q, engine.NewRowStore(tb), zexec.Options{Table: "r", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Bindings["u1"]
	pi := alg.AttrIndex("product")
	for i := range got {
		if got[i] != alg.Srcs[i].Vals[pi] {
			t.Errorf("τv vs ZQL at %d: %s vs %s", i, alg.Srcs[i].Vals[pi], got[i])
		}
	}
}

// TestZQLExpressesMuDelta cross-checks Lemmas 4 and 6: µv[a:b] matches
// f1[a:b] and δv matches f1.range.
func TestZQLExpressesMuDelta(t *testing.T) {
	tb := fixture()
	src := `
NAME        | X      | Y       | Z                 | CONSTRAINTS   | VIZ                | PROCESS
f1          | 'year' | 'sales' | v1 <- 'product'.* | location='US' | bar.(y=agg('sum')) |
*f2=f1[1:1] |        |         |                   |               |                    |
*f3=f1.range |       |         |                   |               |                    |`
	q, err := zql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := zexec.Run(q, engine.NewRowStore(tb), zexec.Options{Table: "r", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	v := productGroup(t)
	mu := Slice(v, 1, 1)
	if res.Outputs[0].Len() != mu.Len() {
		t.Errorf("µv[1:1] = %d, ZQL f1[1:1] = %d", mu.Len(), res.Outputs[0].Len())
	}
	if res.Outputs[1].Len() != Dedup(v).Len() {
		t.Errorf("δv = %d, ZQL f1.range = %d", Dedup(v).Len(), res.Outputs[1].Len())
	}
}

func TestAddArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewGroup(fixture()).Add(Source{X: "year", Y: "sales", Vals: []string{"*"}})
}

// TestZQLExpressesZeta cross-checks Lemma 5: ζv (k-representatives) matches
// ZQL's R(k, v1, f1) selection under the same seed and metric.
func TestZQLExpressesZeta(t *testing.T) {
	tb := fixture()
	v := productGroup(t)
	alg := Representative(v, 1, vis.DefaultMetric, 9)
	src := `
NAME | X      | Y       | Z                 | CONSTRAINTS   | VIZ                | PROCESS
f1   | 'year' | 'sales' | v1 <- 'product'.* | location='US' | bar.(y=agg('sum')) | v2 <- R(1, v1, f1)
*f2  | 'year' | 'sales' | v2                | location='US' | bar.(y=agg('sum')) |`
	q, err := zql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := zexec.Run(q, engine.NewRowStore(tb), zexec.Options{Table: "r", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Bindings["v2"]
	pi := alg.AttrIndex("product")
	if len(got) != alg.Len() {
		t.Fatalf("ζv = %d, ZQL R = %d", alg.Len(), len(got))
	}
	for i := range got {
		if got[i] != alg.Srcs[i].Vals[pi] {
			t.Errorf("ζv vs ZQL at %d: %s vs %s", i, alg.Srcs[i].Vals[pi], got[i])
		}
	}
}

// TestZQLExpressesBeta cross-checks Lemma 9's effect: βv_Y pivoting a sales
// group to profit produces the same visualizations as re-running the ZQL
// query with the Y axis swapped.
func TestZQLExpressesBeta(t *testing.T) {
	tb := fixture()
	g := universe(t)
	v := productGroup(t)
	profitRef := Select(g, starExcept(g, "year", "profit", "product", map[string]string{"location": "US"}))
	swapped := Swap("Y", v, profitRef)
	src := `
NAME | X      | Y        | Z                 | CONSTRAINTS   | VIZ                | PROCESS
*f1  | 'year' | 'profit' | v1 <- 'product'.* | location='US' | bar.(y=agg('sum')) |`
	q, err := zql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := zexec.Run(q, engine.NewRowStore(tb), zexec.Options{Table: "r", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outputs[0]
	if out.Len() != swapped.Len() {
		t.Fatalf("βv = %d sources, ZQL = %d visualizations", swapped.Len(), out.Len())
	}
	// Compare rendered data point-wise (same product order: both sorted).
	for i, s := range swapped.Srcs {
		rendered := swapped.Render(s)
		zv := out.Vis[i]
		if len(rendered.Points) != len(zv.Points) {
			t.Fatalf("source %d: %d vs %d points", i, len(rendered.Points), len(zv.Points))
		}
		for j := range rendered.Points {
			if rendered.Points[j].Y != zv.Points[j].Y {
				t.Errorf("source %d point %d: %v vs %v", i, j, rendered.Points[j].Y, zv.Points[j].Y)
			}
		}
	}
}
