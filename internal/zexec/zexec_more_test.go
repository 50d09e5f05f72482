package zexec

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/minisql"
	"repro/internal/vis"
	"repro/internal/zql"
)

// TestWholeCorpusOnBitmapBackend runs every corpus query against the
// roaring-bitmap store, mirroring the row-store corpus test.
func TestWholeCorpusOnBitmapBackend(t *testing.T) {
	sdb := engine.NewBitmapStore(fixtureSales())
	adb := engine.NewBitmapStore(fixtureAirline())
	salesKeys := []string{"2.1", "2.3", "3.1", "3.2", "3.3", "3.4", "3.5", "3.6", "3.7", "3.8",
		"3.9", "3.10", "3.11", "3.12", "3.13", "3.15", "3.16", "3.17", "3.18", "3.19",
		"3.20", "3.22", "3.23", "3.24", "3.25", "5.1", "5.2"}
	for _, k := range salesKeys {
		runCorpus(t, k, sdb, salesOpts())
	}
	for _, k := range []string{"2.2", "3.14", "3.21"} {
		opts := salesOpts()
		opts.Inputs = map[string]*vis.Visualization{"f1": vis.FromFloats([]float64{0, 1, 2, 3, 4, 5})}
		runCorpus(t, k, sdb, opts)
	}
	for _, k := range []string{"7.1", "7.2"} {
		runCorpus(t, k, adb, Options{Table: "airline", Seed: 1})
	}
}

func TestTwoZColumnsCrossProduct(t *testing.T) {
	src := `
NAME | X      | Y       | Z                                  | Z2
*f1  | 'year' | 'sales' | v1 <- 'product'.{'chair','desk'}   | v2 <- 'location'.{'US','UK'}`
	q, err := zql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(q, salesDB(), salesOpts())
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outputs[0]
	if out.Len() != 4 {
		t.Fatalf("Z × Z2 = %d visualizations, want 4", out.Len())
	}
	// Column-major order: Z varies slowest (chair/US, chair/UK, desk/US...).
	combos := out.Combos()
	if combos[0]["v1"] != "chair" || combos[0]["v2"] != "US" ||
		combos[1]["v1"] != "chair" || combos[1]["v2"] != "UK" ||
		combos[2]["v1"] != "desk" {
		t.Errorf("iteration order = %v", combos)
	}
	for _, v := range out.Vis {
		if len(v.Slices) != 2 {
			t.Errorf("each visualization should carry both slices: %v", v.Slices)
		}
	}
}

func TestDerivedChain(t *testing.T) {
	src := `
NAME         | X      | Y       | Z
f1           | 'year' | 'sales' | v1 <- 'product'.{'chair','desk'}
f2           | 'year' | 'sales' | v2 <- 'product'.{'desk','table'}
f3=f1+f2     |        |         |
f4=f3.range  |        |         |
*f5=f4[2:3]  |        |         |`
	q, err := zql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(q, salesDB(), salesOpts())
	if err != nil {
		t.Fatal(err)
	}
	// f3 = chair, desk, desk, table (4); f4 dedups to chair, desk, table;
	// f5 = positions 2..3 = desk, table.
	if res.Collections["f3"].Len() != 4 {
		t.Errorf("f3 = %d", res.Collections["f3"].Len())
	}
	if res.Collections["f4"].Len() != 3 {
		t.Errorf("f4 = %d", res.Collections["f4"].Len())
	}
	out := res.Outputs[0]
	if out.Len() != 2 || out.Vis[0].Slices[0].Value != "desk" || out.Vis[1].Slices[0].Value != "table" {
		t.Errorf("f5 = %v", out.Combos())
	}
}

func TestDerivedMinusAndIntersect(t *testing.T) {
	src := `
NAME     | X      | Y       | Z
f1       | 'year' | 'sales' | v1 <- 'product'.{'chair','desk','table'}
f2       | 'year' | 'sales' | v2 <- 'product'.{'desk'}
*f3=f1-f2 |       |         |
*f4=f1^f2 |       |         |`
	q, err := zql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(q, salesDB(), salesOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0].Len() != 2 {
		t.Errorf("f1-f2 = %d, want 2", res.Outputs[0].Len())
	}
	if res.Outputs[1].Len() != 1 || res.Outputs[1].Vis[0].Slices[0].Value != "desk" {
		t.Errorf("f1^f2 = %v", res.Outputs[1].Combos())
	}
}

func TestUndefinedVariableStucksInterTask(t *testing.T) {
	src := `
NAME | X      | Y       | Z
*f1  | 'year' | 'sales' | v9`
	q, err := zql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := salesOpts()
	opts.Opt = InterTask
	_, err = Run(q, salesDB(), opts)
	if err == nil || !strings.Contains(err.Error(), "stuck") {
		t.Errorf("expected stuck-query-tree error, got %v", err)
	}
}

func TestThresholdSortsArgmin(t *testing.T) {
	// argmin with threshold keeps matching values sorted ascending by score.
	src := `
NAME | X      | Y       | Z                 | CONSTRAINTS   | PROCESS
f1   | 'year' | 'sales' | v1 <- 'product'.* | location='US' | v2 <- argmin(v1)[t<0] T(f1)`
	q, err := zql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(q, salesDB(), salesOpts())
	if err != nil {
		t.Fatal(err)
	}
	got := res.Bindings["v2"]
	// Negative US sales trends: table, printer.
	wantSet(t, "v2", got, []string{"table", "printer"})
}

func TestVizVariableInProcess(t *testing.T) {
	// Iterate bin widths and pick the one whose chart is most similar to a
	// user-drawn shape — a Viz variable flowing through a task.
	src := `
NAME | X        | Y       | VIZ                                                               | PROCESS
-f1  |          |         |                                                                   |
f2   | 'weight' | 'sales' | s1 <- bar.{(x=bin(10), y=agg('sum')), (x=bin(50), y=agg('sum'))}  | s2 <- argmin(s1)[k=1] D(f1, f2)
`
	q, err := zql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := salesOpts()
	opts.Inputs = map[string]*vis.Visualization{"f1": vis.FromFloats([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})}
	res, err := Run(q, salesDB(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Bindings["s2"]; len(got) != 1 || !strings.Contains(got[0], "bin(") {
		t.Errorf("s2 = %v", got)
	}
}

// TestDefaultAggOption pins the rule-of-thumb aggregate: a blank Viz column
// aggregates Y with AVG, the same answer as an explicit agg('avg').
func TestDefaultAggOption(t *testing.T) {
	run := func(src string) *Result {
		t.Helper()
		q, err := zql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(q, salesDB(), salesOpts())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	blank := run("NAME | X | Y\n*f1 | 'year' | 'sales'")
	avg := run("NAME | X | Y | VIZ\n*f1 | 'year' | 'sales' | bar.(y=agg('avg'))")
	if len(blank.SQLLog) != 1 || !strings.Contains(blank.SQLLog[0], "AVG(sales)") {
		t.Errorf("blank Viz SQL = %q, want AVG(sales)", blank.SQLLog)
	}
	got, want := blank.Outputs[0].Vis[0].Points, avg.Outputs[0].Vis[0].Points
	if !reflect.DeepEqual(got, want) {
		t.Errorf("blank Viz points = %v, want agg('avg') points %v", got, want)
	}
}

func TestMetricChangesSimilarityWinner(t *testing.T) {
	// A time-shifted shape: DTW forgives the shift, Euclidean does not
	// necessarily. At minimum both must run and produce one winner each.
	src := `
NAME | X      | Y       | Z                 | PROCESS
-f1  |        |         |                   |
f2   | 'year' | 'sales' | v1 <- 'product'.* | v2 <- argmin(v1)[k=1] D(f1, f2)`
	q, err := zql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"euclidean", "dtw", "kl", "emd"} {
		m, err := vis.MetricByName(name)
		if err != nil {
			t.Fatal(err)
		}
		opts := salesOpts()
		opts.Metric = m
		opts.Inputs = map[string]*vis.Visualization{"f1": vis.FromFloats([]float64{0, 0, 1, 2, 3, 4})}
		res, err := Run(q, salesDB(), opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Bindings["v2"]) != 1 {
			t.Errorf("%s: v2 = %v", name, res.Bindings["v2"])
		}
	}
}

func TestOrderedBagSemanticsPreserveDuplicates(t *testing.T) {
	// Union of overlapping ranges keeps duplicates (ordered bag semantics,
	// Section 4.1): f3 is an ordered bag, not a set.
	src := `
NAME | X      | Y        | Z                                      | CONSTRAINTS   | PROCESS
f1   | 'year' | 'sales'  | v1 <- 'product'.{'chair','desk'}       | location='US' | v2 <- argany(v1)[t>0] T(f1)
f2   | 'year' | 'sales'  | v1                                     | location='US' | v3 <- argany(v1)[t>0] T(f2)
*f3  | 'year' | 'profit' | v4 <- (v2.range | v3.range)            |               |`
	q, err := zql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(q, salesDB(), salesOpts())
	if err != nil {
		t.Fatal(err)
	}
	// v2 = v3 = {chair, desk}; union dedups by element key per Section 3.7's
	// set semantics for ranges, so f3 has exactly 2.
	if res.Outputs[0].Len() != 2 {
		t.Errorf("f3 = %d", res.Outputs[0].Len())
	}
}

func TestIndexDerivedSingle(t *testing.T) {
	src := `
NAME       | X      | Y       | Z                 | PROCESS
f1         | 'year' | 'sales' | v1 <- 'product'.* | u1 <- argmax(v1)[k=inf] T(f1)
f2=f1.order |       |         | u1 ->             |
*f3=f2[1]  |        |         |                   |`
	q, err := zql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(q, salesDB(), salesOpts())
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outputs[0]
	if out.Len() != 1 {
		t.Fatalf("f3 = %d", out.Len())
	}
	// Highest overall trend across locations: stapler (rises everywhere).
	if got := out.Vis[0].Slices[0].Value; got != "stapler" {
		t.Errorf("f2[1] = %s, want stapler", got)
	}
}

// TestParallelismOption: a store limited to one scan worker still serves a
// batched request.
func TestParallelismOption(t *testing.T) {
	opts := salesOpts()
	opts.Opt = IntraTask
	db := engine.NewRowStore(fixtureSales())
	db.SetParallelism(1)
	res := runCorpus(t, "5.2", db, opts)
	if res.Outputs[0].Len() == 0 {
		t.Error("sequential parallelism must still work")
	}
}

func TestSQLLogRecordsTranslation(t *testing.T) {
	intra := salesOpts()
	intra.Opt = IntraLine
	res := runCorpus(t, "5.1", salesDB(), intra)
	if len(res.SQLLog) != res.Stats.SQLQueries {
		t.Fatalf("log has %d entries, stats say %d", len(res.SQLLog), res.Stats.SQLQueries)
	}
	// The Section 5.2 intra-line shape: one batched query per row with an
	// IN list, GROUP BY z then x, ORDER BY z then x.
	first := res.SQLLog[0]
	for _, want := range []string{"SELECT year", "SUM(sales)", "product IN (", "GROUP BY product, year", "ORDER BY product, year"} {
		if !strings.Contains(first, want) {
			t.Errorf("compiled SQL missing %q:\n%s", want, first)
		}
	}
	// NoOpt logs one statement per visualization with equality predicates.
	opts := salesOpts()
	opts.Opt = NoOpt
	res = runCorpus(t, "5.1", salesDB(), opts)
	if len(res.SQLLog) != 14 {
		t.Errorf("NoOpt log = %d statements, want 14", len(res.SQLLog))
	}
	if !strings.Contains(res.SQLLog[0], "product = '") {
		t.Errorf("NoOpt SQL should use equality predicates:\n%s", res.SQLLog[0])
	}
}

// TestSQLLogIsCanonicalSQL pins the AST renderer: every statement the
// compiler logs must parse back and re-render to the identical bytes, at
// every optimization level — the log is real, executable, canonical SQL.
func TestSQLLogIsCanonicalSQL(t *testing.T) {
	for _, key := range []string{"5.1", "5.2", "3.20"} {
		for _, level := range []OptLevel{NoOpt, IntraLine, IntraTask, InterTask} {
			opts := salesOpts()
			opts.Opt = level
			res := runCorpus(t, key, salesDB(), opts)
			if len(res.SQLLog) == 0 {
				t.Fatalf("%s at %s: empty SQL log", key, level)
			}
			for _, sql := range res.SQLLog {
				q, err := minisql.Parse(sql)
				if err != nil {
					t.Fatalf("%s at %s: logged SQL does not parse: %v\n%s", key, level, err, sql)
				}
				if got := q.SQL(); got != sql {
					t.Errorf("%s at %s: log is not canonical:\nlogged:   %s\nreparsed: %s", key, level, sql, got)
				}
			}
		}
	}
}
