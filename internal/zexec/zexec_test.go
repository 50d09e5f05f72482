package zexec

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/vis"
	"repro/internal/workload"
	"repro/internal/zql"
)

// The golden corpus's tables live in workload so the engine's tests can run
// the corpus's SQL over them too.
var (
	fixtureSales   = workload.FixtureSales
	fixtureAirline = workload.FixtureAirline
)

func runCorpus(t *testing.T, key string, db engine.DB, opts Options) *Result {
	t.Helper()
	q, err := zql.Parse(zql.Corpus[key])
	if err != nil {
		t.Fatalf("parse %s: %v", key, err)
	}
	res, err := Run(q, db, opts)
	if err != nil {
		t.Fatalf("run %s: %v", key, err)
	}
	return res
}

func salesDB() engine.DB { return engine.NewRowStore(fixtureSales()) }

func salesOpts() Options { return Options{Table: "sales", Seed: 42} }

// Paper query 3.10 bins the row-indexed weight column, so it renders the
// same bytes twice only if the fixture builds its rows in the same order on
// every call.
func TestFixtureQuery310RendersTheSameBytesTwice(t *testing.T) {
	first := encodeResult(runCorpus(t, "3.10", salesDB(), salesOpts()))
	if second := encodeResult(runCorpus(t, "3.10", salesDB(), salesOpts())); second != first {
		t.Errorf("query 3.10 rendered differently on a second fixture:\n%s\n---\n%s", first, second)
	}
}

func TestTable21CollectionPerProduct(t *testing.T) {
	res := runCorpus(t, "2.1", salesDB(), salesOpts())
	if len(res.Outputs) != 1 {
		t.Fatalf("%d outputs", len(res.Outputs))
	}
	out := res.Outputs[0]
	if out.Len() != 6 {
		t.Fatalf("expected one visualization per product, got %d", out.Len())
	}
	for _, v := range out.Vis {
		if v.XAttr != "year" || v.YAttr != "sales" || v.VizType != "bar" {
			t.Errorf("vis shape = %s %s %s", v.XAttr, v.YAttr, v.VizType)
		}
		if len(v.Points) != 6 {
			t.Errorf("%s: %d points, want 6 years", v.Label(), len(v.Points))
		}
		if len(v.Slices) != 1 || v.Slices[0].Attr != "product" {
			t.Errorf("slices = %v", v.Slices)
		}
	}
}

func TestTable22SimilaritySearch(t *testing.T) {
	opts := salesOpts()
	// The user draws a steeply increasing line; stapler/chair/desk rise in
	// the US, but without constraints data spans both locations; chair &
	// desk cancel out, stapler rises everywhere.
	opts.Inputs = map[string]*vis.Visualization{
		"f1": vis.FromFloats([]float64{0, 1, 2, 3, 4, 5}),
	}
	res := runCorpus(t, "2.2", salesDB(), opts)
	if got := res.Bindings["v2"]; len(got) != 1 || got[0] != "stapler" {
		t.Errorf("most similar product = %v, want [stapler]", got)
	}
	if res.Outputs[0].Len() != 1 {
		t.Errorf("f3 should hold one visualization")
	}
}

func TestTable23TrendFilterAndRepresentatives(t *testing.T) {
	res := runCorpus(t, "2.3", salesDB(), salesOpts())
	wantSet(t, "v2 (US positive)", res.Bindings["v2"], []string{"chair", "desk", "stapler"})
	wantSet(t, "v3 (UK negative)", res.Bindings["v3"], []string{"chair", "desk", "printer"})
	wantSet(t, "v4 (intersection)", res.Bindings["v4"], []string{"chair", "desk"})
	if got := res.Outputs[0].Len(); got != 2 {
		t.Errorf("f4 = %d visualizations, want 2", got)
	}
}

func wantSet(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s = %v, want %v", label, got, want)
		return
	}
	gs := make(map[string]bool)
	for _, g := range got {
		gs[g] = true
	}
	for _, w := range want {
		if !gs[w] {
			t.Errorf("%s = %v, want %v", label, got, want)
			return
		}
	}
}

func TestTable31AxisSet(t *testing.T) {
	res := runCorpus(t, "3.1", salesDB(), salesOpts())
	out := res.Outputs[0]
	if out.Len() != 2 {
		t.Fatalf("%d visualizations, want 2 (profit and sales)", out.Len())
	}
	if out.Vis[0].YAttr != "profit" || out.Vis[1].YAttr != "sales" {
		t.Errorf("y attrs = %s, %s", out.Vis[0].YAttr, out.Vis[1].YAttr)
	}
}

func TestTable32SumComposition(t *testing.T) {
	res := runCorpus(t, "3.2", salesDB(), salesOpts())
	v := res.Outputs[0].Vis[0]
	if v.YAttr != "profit+sales" {
		t.Errorf("composite y = %q", v.YAttr)
	}
	// Point-wise sum: y = avg(profit) + avg(sales) per product.
	if len(v.Points) != 6 {
		t.Errorf("%d x points, want 6 products", len(v.Points))
	}
}

func TestTable33CrossComposition(t *testing.T) {
	res := runCorpus(t, "3.3", salesDB(), salesOpts())
	out := res.Outputs[0]
	if out.Len() != 3 {
		t.Fatalf("%d visualizations, want 3 (county, state, country)", out.Len())
	}
	if out.Vis[0].XAttr != "product×county" {
		t.Errorf("x attr = %q", out.Vis[0].XAttr)
	}
	if len(out.Vis[0].Points) == 0 {
		t.Error("composite x should produce points")
	}
}

func TestTable34FixedSlices(t *testing.T) {
	res := runCorpus(t, "3.4", salesDB(), salesOpts())
	if len(res.Outputs) != 2 {
		t.Fatalf("%d outputs", len(res.Outputs))
	}
	if res.Outputs[0].Vis[0].Slices[0].Value != "chair" || res.Outputs[1].Vis[0].Slices[0].Value != "desk" {
		t.Error("fixed slices wrong")
	}
}

func TestTable36AttributeIteration(t *testing.T) {
	res := runCorpus(t, "3.6", salesDB(), salesOpts())
	out := res.Outputs[0]
	// Every attribute except year and sales, every distinct value.
	tb := fixtureSales()
	want := 0
	for _, name := range tb.ColumnNames() {
		if name == "year" || name == "sales" {
			continue
		}
		want += len(tb.Column(name).DistinctSorted())
	}
	if out.Len() != want {
		t.Errorf("%d visualizations, want %d", out.Len(), want)
	}
}

func TestTable37PairUnion(t *testing.T) {
	res := runCorpus(t, "3.7", salesDB(), salesOpts())
	// The row has no name, so there are no explicit outputs; instead check
	// that execution produced bindings for the pair variables.
	if got := res.Bindings["v1"]; len(got) != 3 {
		t.Errorf("v1 = %v, want chair, desk, US", got)
	}
}

func TestTable38TwoZColumns(t *testing.T) {
	res := runCorpus(t, "3.8", salesDB(), salesOpts())
	if got := res.Bindings["v1"]; len(got) != 6 {
		t.Errorf("v1 = %v", got)
	}
	if got := res.Bindings["v2"]; len(got) != 2 {
		t.Errorf("v2 = %v", got)
	}
}

func TestTable39LikeConstraint(t *testing.T) {
	res := runCorpus(t, "3.9", salesDB(), salesOpts())
	v := res.Outputs[0].Vis[0]
	if len(v.Points) == 0 {
		t.Error("zip LIKE constraint should still match US rows")
	}
}

func TestTable310Binning(t *testing.T) {
	res := runCorpus(t, "3.10", salesDB(), salesOpts())
	v := res.Outputs[0].Vis[0]
	if len(v.Points) != 5 {
		t.Errorf("%d bins, want 5 (weights 0..99, width 20)", len(v.Points))
	}
	if v.Points[0].X.Float() != 0 || v.Points[4].X.Float() != 80 {
		t.Errorf("bin edges = %v .. %v", v.Points[0].X, v.Points[4].X)
	}
}

func TestTable311VizSetIteration(t *testing.T) {
	res := runCorpus(t, "3.11", salesDB(), salesOpts())
	out := res.Outputs[0]
	if out.Len() != 3 {
		t.Fatalf("%d visualizations, want 3 bin widths", out.Len())
	}
	if len(out.Vis[0].Points) <= len(out.Vis[2].Points) {
		t.Errorf("bin(20) should make more buckets than bin(40): %d vs %d",
			len(out.Vis[0].Points), len(out.Vis[2].Points))
	}
}

func TestTable313TopKSimilar(t *testing.T) {
	res := runCorpus(t, "3.13", salesDB(), salesOpts())
	v2 := res.Bindings["v2"]
	if len(v2) != 5 {
		t.Fatalf("v2 = %v, want the 5 non-stapler products", v2)
	}
	// All-location sales: stapler rises; chair/desk flat (US up + UK down
	// cancel); lamp flat; the closest shapes should come first and printer
	// (falling everywhere) should be last.
	if v2[len(v2)-1] != "printer" && v2[len(v2)-1] != "table" {
		t.Errorf("least similar = %v", v2[len(v2)-1])
	}
}

func TestTable315OrderBy(t *testing.T) {
	res := runCorpus(t, "3.15", salesDB(), salesOpts())
	out := res.Outputs[0]
	if out.Len() != 6 {
		t.Fatalf("%d visualizations", out.Len())
	}
	// Reordered by increasing trend: first should be a falling product,
	// last a rising one.
	first := out.Vis[0].Slices[0].Value
	last := out.Vis[out.Len()-1].Slices[0].Value
	if first != "printer" {
		t.Errorf("first (most decreasing overall) = %s, want printer", first)
	}
	if last != "stapler" {
		t.Errorf("last (most increasing) = %s, want stapler", last)
	}
}

func TestTable316DerivedComponent(t *testing.T) {
	res := runCorpus(t, "3.16", salesDB(), salesOpts())
	// v2 binds to products appearing in f3 = f1 + f2 (all products).
	if got := res.Bindings["v2"]; len(got) != 6 {
		t.Errorf("v2 = %v, want 6 products", got)
	}
	if got := res.Bindings["v3"]; len(got) != 6 {
		t.Errorf("v3 (top 10 of 6) = %v", got)
	}
	if res.Outputs[0].Len() != 6 {
		t.Errorf("f5 = %d", res.Outputs[0].Len())
	}
}

func TestTable317SalesVsProfitDiscrepancy(t *testing.T) {
	res := runCorpus(t, "3.17", salesDB(), salesOpts())
	v2 := res.Bindings["v2"]
	if len(v2) != 6 {
		t.Fatalf("v2 = %v", v2)
	}
	// chair: sales flat-ish across locations but profit falls; stapler:
	// both rise (similar). The most discrepant should not be stapler or lamp.
	if v2[0] == "stapler" || v2[0] == "lamp" {
		t.Errorf("most discrepant = %s", v2[0])
	}
}

func TestTable318RangeConstraint(t *testing.T) {
	res := runCorpus(t, "3.18", salesDB(), salesOpts())
	if res.Outputs[0].Len() != 1 {
		t.Fatalf("f2 should be a single aggregated visualization")
	}
	if len(res.Outputs[0].Vis[0].Points) != 6 {
		t.Errorf("points = %d, want 6 years", len(res.Outputs[0].Vis[0].Points))
	}
}

func TestTable319ComparativeSearch(t *testing.T) {
	res := runCorpus(t, "3.19", salesDB(), salesOpts())
	x2, y2 := res.Bindings["x2"], res.Bindings["y2"]
	if len(x2) != 4 || len(y2) != 4 {
		t.Fatalf("x2 = %v, y2 = %v (Cartesian of 2x2)", x2, y2)
	}
	if len(res.Outputs) != 2 {
		t.Errorf("%d outputs", len(res.Outputs))
	}
}

func TestTable320OutlierTwoLevel(t *testing.T) {
	res := runCorpus(t, "3.20", salesDB(), salesOpts())
	if got := res.Bindings["v3"]; len(got) != 6 {
		t.Errorf("v3 = %v", got)
	}
	if res.Outputs[0].Len() == 0 {
		t.Error("outlier output empty")
	}
}

func TestTable321TwoProcessesOneRow(t *testing.T) {
	opts := salesOpts()
	opts.Inputs = map[string]*vis.Visualization{
		"f1": vis.FromFloats([]float64{0, 1, 2, 3, 4, 5}),
	}
	res := runCorpus(t, "3.21", salesDB(), opts)
	v2, v3 := res.Bindings["v2"], res.Bindings["v3"]
	if len(v2) != 1 || len(v3) != 1 {
		t.Fatalf("v2 = %v, v3 = %v", v2, v3)
	}
	if v2[0] == v3[0] {
		t.Error("most similar and most dissimilar should differ")
	}
	if v3[0] != "stapler" {
		t.Errorf("most similar to rising line = %v, want stapler", v3)
	}
}

func TestTable324MultiVarTask(t *testing.T) {
	res := runCorpus(t, "3.24", salesDB(), salesOpts())
	if got := res.Bindings["v2"]; len(got) != 1 {
		t.Fatalf("v2 (1 representative) = %v", got)
	}
	if got := res.Bindings["v3"]; len(got) != 1 || got[0] != "stapler" {
		t.Errorf("v3 (highest sales trend) = %v, want [stapler]", got)
	}
	if got := res.Bindings["y2"]; len(got) == 0 {
		t.Error("y2 should bind")
	}
	if res.Outputs[0].Len() == 0 {
		t.Error("f4 empty")
	}
}

func TestTable325ScatterUnusualPair(t *testing.T) {
	res := runCorpus(t, "3.25", salesDB(), salesOpts())
	if got := res.Bindings["x3"]; len(got) != 1 {
		t.Fatalf("x3 = %v", got)
	}
	out := res.Outputs[0]
	if out.Len() != 1 || out.Vis[0].VizType != "scatterplot" {
		t.Errorf("f3 = %+v", out.Vis)
	}
	if len(out.Vis[0].Points) == 0 {
		t.Error("scatter should carry raw points")
	}
}

func TestTable71Airline(t *testing.T) {
	db := engine.NewRowStore(fixtureAirline())
	res := runCorpus(t, "7.1", db, Options{Table: "airline", Seed: 1})
	wantSet(t, "v2 (rising DepDelay)", res.Bindings["v2"], []string{"JFK", "SFO"})
	if res.Outputs[0].Len() != 4 {
		t.Errorf("f3 = %d visualizations, want |{JFK,SFO}| x 2 measures", res.Outputs[0].Len())
	}
}

func TestTable72Airline(t *testing.T) {
	db := engine.NewRowStore(fixtureAirline())
	res := runCorpus(t, "7.2", db, Options{Table: "airline", Seed: 1})
	if got := res.Bindings["v2"]; len(got) != 5 {
		t.Errorf("v2 = %v (k=10 clamps to 5 airports)", got)
	}
	if res.Outputs[0].Len() != 10 {
		t.Errorf("f3 = %d visualizations, want 5 airports x 2 measures", res.Outputs[0].Len())
	}
}

func TestWholeCorpusExecutesAtEveryOptLevel(t *testing.T) {
	salesKeys := []string{"2.1", "2.3", "3.1", "3.2", "3.3", "3.4", "3.5", "3.6", "3.7", "3.8",
		"3.9", "3.10", "3.11", "3.12", "3.13", "3.15", "3.16", "3.17", "3.18", "3.19",
		"3.20", "3.22", "3.23", "3.24", "3.25", "5.1", "5.2"}
	inputKeys := map[string]bool{"2.2": true, "3.14": true, "3.21": true}
	sdb := salesDB()
	adb := engine.NewRowStore(fixtureAirline())
	for _, level := range []OptLevel{NoOpt, IntraLine, IntraTask, InterTask} {
		for _, k := range salesKeys {
			opts := salesOpts()
			opts.Opt = level
			runCorpus(t, k, sdb, opts)
		}
		for k := range inputKeys {
			opts := salesOpts()
			opts.Opt = level
			opts.Inputs = map[string]*vis.Visualization{
				"f1": vis.FromFloats([]float64{0, 1, 2, 3, 4, 5}),
			}
			runCorpus(t, k, sdb, opts)
		}
		for _, k := range []string{"7.1", "7.2"} {
			runCorpus(t, k, adb, Options{Table: "airline", Opt: level, Seed: 1})
		}
	}
}

func TestOptLevelsAgreeOnTable51(t *testing.T) {
	var base []string
	for _, level := range []OptLevel{NoOpt, IntraLine, IntraTask, InterTask} {
		opts := salesOpts()
		opts.Opt = level
		res := runCorpus(t, "5.1", salesDB(), opts)
		var got []string
		for _, v := range res.Outputs[0].Vis {
			got = append(got, v.Slices[0].Value)
		}
		if base == nil {
			base = got
			continue
		}
		if len(got) != len(base) {
			t.Fatalf("%v: %v vs %v", level, got, base)
		}
		gs := map[string]bool{}
		for _, g := range got {
			gs[g] = true
		}
		for _, b := range base {
			if !gs[b] {
				t.Errorf("%v: output sets diverge: %v vs %v", level, got, base)
			}
		}
	}
}

func TestRequestCountsDropWithOptimization(t *testing.T) {
	counts := map[OptLevel]int{}
	queries := map[OptLevel]int{}
	for _, level := range []OptLevel{NoOpt, IntraLine, IntraTask, InterTask} {
		opts := salesOpts()
		opts.Opt = level
		res := runCorpus(t, "5.1", salesDB(), opts)
		counts[level] = res.Stats.Requests
		queries[level] = res.Stats.SQLQueries
	}
	// Table 5.1 has 5 products x 2 rows + 1 union row: NoOpt issues one
	// request per visualization.
	if counts[NoOpt] != 14 {
		t.Errorf("NoOpt requests = %d, want 14 (5+5+4 visualizations)", counts[NoOpt])
	}
	if queries[IntraLine] != 3 {
		t.Errorf("IntraLine queries = %d, want 3 (one per row)", queries[IntraLine])
	}
	if counts[IntraLine] != 3 {
		t.Errorf("IntraLine requests = %d, want 3", counts[IntraLine])
	}
	// Inter-task batches rows 1 and 2 together (row 2 independent of task 1).
	if counts[InterTask] != 2 {
		t.Errorf("InterTask requests = %d, want 2", counts[InterTask])
	}
	if !(counts[NoOpt] > counts[IntraLine] && counts[IntraLine] >= counts[IntraTask] && counts[IntraTask] >= counts[InterTask]) {
		t.Errorf("requests must decrease with optimization: %v", counts)
	}
}

func TestIntraTaskBatchesTable52(t *testing.T) {
	opts := salesOpts()
	opts.Opt = IntraTask
	res := runCorpus(t, "5.2", salesDB(), opts)
	// Rows 1+2 batch (row 2 carries the task), rows 3+4 batch.
	if res.Stats.Requests != 2 {
		t.Errorf("IntraTask requests = %d, want 2", res.Stats.Requests)
	}
}

func TestBothBackendsAgree(t *testing.T) {
	tb := fixtureSales()
	row := engine.NewRowStore(tb)
	bit := engine.NewBitmapStore(tb)
	r1 := runCorpus(t, "5.1", row, salesOpts())
	r2 := runCorpus(t, "5.1", bit, salesOpts())
	if len(r1.Outputs[0].Vis) != len(r2.Outputs[0].Vis) {
		t.Fatalf("backends disagree: %d vs %d", len(r1.Outputs[0].Vis), len(r2.Outputs[0].Vis))
	}
	for i := range r1.Outputs[0].Vis {
		a, b := r1.Outputs[0].Vis[i], r2.Outputs[0].Vis[i]
		if a.Key() != b.Key() || len(a.Points) != len(b.Points) {
			t.Errorf("vis %d diverges", i)
		}
	}
}

func TestUserDefinedFunction(t *testing.T) {
	src := "NAME | X | Y | Z | PROCESS\nf1 | 'year' | 'sales' | v1 <- 'product'.* | v2 <- argmax(v1)[k=1] Spread(f1)\n*f2 | 'year' | 'sales' | v2 |"
	q, err := zql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := salesOpts()
	opts.UserFuncs = map[string]UserFunc{
		"Spread": func(args []*vis.Visualization) float64 {
			ys := args[0].Ys()
			if len(ys) == 0 {
				return 0
			}
			lo, hi := ys[0], ys[0]
			for _, y := range ys {
				if y < lo {
					lo = y
				}
				if y > hi {
					hi = y
				}
			}
			return hi - lo
		},
	}
	res, err := Run(q, salesDB(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Bindings["v2"]; len(got) != 1 {
		t.Errorf("v2 = %v", got)
	}
}

func TestErrorPaths(t *testing.T) {
	q, _ := zql.Parse("NAME | X | Y\n*f1 | 'year' | 'sales'")
	if _, err := Run(q, salesDB(), Options{Table: "missing"}); err == nil {
		t.Error("missing table should error")
	}
	// User-input row without input.
	q2, _ := zql.Parse(zql.Corpus["2.2"])
	if _, err := Run(q2, salesDB(), salesOpts()); err == nil {
		t.Error("missing user input should error")
	}
	// Undefined variable reference.
	q3, err := zql.Parse("NAME | X | Y | Z\n*f1 | 'year' | 'sales' | v9")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(q3, salesDB(), salesOpts()); err == nil {
		t.Error("undefined z var should error")
	}
	// Unknown attribute.
	q4, _ := zql.Parse("NAME | X | Y\n*f1 | 'bogus' | 'sales'")
	if _, err := Run(q4, salesDB(), salesOpts()); err == nil {
		t.Error("unknown attribute should error")
	}
}

func TestStatsPopulated(t *testing.T) {
	res := runCorpus(t, "2.1", salesDB(), salesOpts())
	if res.Stats.SQLQueries == 0 || res.Stats.Requests == 0 {
		t.Errorf("stats = %+v", res.Stats)
	}
}
