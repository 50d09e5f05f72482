package zexec

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/vis"
	"repro/internal/zql"
)

// reuseRun runs src over the sales fixture at InterTask and at IntraTask,
// which never reuses a visualization, and fails unless both give the same
// answer; it returns the InterTask run.
func reuseRun(t *testing.T, src string, inputs map[string]*vis.Visualization) *Result {
	t.Helper()
	q, err := zql.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	tbl := fixtureSales()
	db := engine.NewRowStore(tbl)
	var got [2]*Result
	for i, opt := range []OptLevel{InterTask, IntraTask} {
		if got[i], err = Run(q, db, Options{Table: tbl.Name, Seed: 42, Inputs: inputs, Opt: opt}); err != nil {
			t.Fatalf("%v: %v\n%s", opt, err, src)
		}
	}
	if a, b := encodeResult(got[0]), encodeResult(got[1]); a != b {
		t.Fatalf("InterTask answers\n%s\nIntraTask answers\n%s\nfor\n%s", a, b, src)
	}
	return got[0]
}

// TestFetchOnceReusesAnEarlierRow: a row whose every visualization an
// earlier request fetched issues no SQL — the front-end's task shape, with
// and without constraints, and a two-level task whose third row reuses the
// first's.
func TestFetchOnceReusesAnEarlierRow(t *testing.T) {
	for _, src := range []string{`
NAME | X      | Y       | Z                 | CONSTRAINTS   | VIZ                | PROCESS
f1   | 'year' | 'sales' | v1 <- 'product'.* | location='US' | bar.(y=agg('sum')) | v2 <- argmax(v1)[k=2] T(f1)
*f2  | 'year' | 'sales' | v2                | location='US' | bar.(y=agg('sum')) |`, `
NAME | X      | Y       | Z                 | PROCESS
f1   | 'year' | 'sales' | v1 <- 'product'.* | v2 <- R(2, v1, f1)
f2   | 'year' | 'sales' | v2                | v3 <- argmax(v1)[k=2] min(v2) D(f1, f2)
*f3  | 'year' | 'sales' | v3                |`,
	} {
		res := reuseRun(t, src, nil)
		if res.Stats.SQLQueries != 1 || res.Stats.Requests != 1 || len(res.SQLLog) != 1 {
			t.Errorf("%d statements in %d requests, want the first row's one:\n%s\n%s",
				res.Stats.SQLQueries, res.Stats.Requests, strings.Join(res.SQLLog, "\n"), src)
		}
	}
}

// TestFetchOnceNeedsTheSameVisualization: a later row whose visualizations
// differ from the earlier row's in anything but the Z values it picks —
// constraints, binning, aggregate, Y attributes, visualization type — or
// that names a Z value the earlier row did not fetch, fetches its own. Each
// case fails if its second row's statement is elided.
func TestFetchOnceNeedsTheSameVisualization(t *testing.T) {
	const f1 = `f1   | 'year' | 'sales' | v1 <- 'product'.%s | location='US' | bar.(y=agg('sum')) | v2 <- argmax(v1)[k=2] T(f1)`
	for _, c := range []struct{ name, z1, f2 string }{
		{"constraints", "*", `*f2 | 'year' | 'sales' | v2 | location='UK' | bar.(y=agg('sum')) |`},
		{"no constraints", "*", `*f2 | 'year' | 'sales' | v2 | | bar.(y=agg('sum')) |`},
		{"bin", "*", `*f2 | 'year' | 'sales' | v2 | location='US' | bar.(x=bin(2), y=agg('sum')) |`},
		{"aggregate", "*", `*f2 | 'year' | 'sales' | v2 | location='US' | bar.(y=agg('avg')) |`},
		{"default aggregate", "*", `*f2 | 'year' | 'sales' | v2 | location='US' | |`},
		{"Y attribute", "*", `*f2 | 'year' | 'profit' | v2 | location='US' | bar.(y=agg('sum')) |`},
		{"Y set", "*", `*f2 | 'year' | 'sales'+'profit' | v2 | location='US' | bar.(y=agg('sum')) |`},
		{"X attribute", "*", `*f2 | 'month' | 'sales' | v2 | location='US' | bar.(y=agg('sum')) |`},
		{"viz type", "*", `*f2 | 'year' | 'sales' | v2 | location='US' | line.(y=agg('sum')) |`},
		{"raw", "*", `*f2 | 'year' | 'sales' | v2 | location='US' | scatterplot |`},
	} {
		t.Run(c.name, func(t *testing.T) {
			src := "NAME | X | Y | Z | CONSTRAINTS | VIZ | PROCESS\n" + fmt.Sprintf(f1, c.z1) + "\n" + c.f2
			res := reuseRun(t, src, nil)
			if res.Stats.SQLQueries != 2 || res.Stats.Requests != 2 {
				t.Errorf("%d statements in %d requests, want one per row:\n%s", res.Stats.SQLQueries, res.Stats.Requests, strings.Join(res.SQLLog, "\n"))
			}
		})
	}
	// A scatterplot's batch reads one raw Y column for every unit in it, so
	// f1's profit slices carry sales points: f2's own profit slices differ.
	src := `NAME | X | Y | Z | CONSTRAINTS | VIZ | PROCESS
f1  | 'year' | y1 <- {'sales', 'profit'} | v1 <- 'product'.* | location='US' | scatterplot | v2 <- argmax(v1)[k=2] T(f1)
*f2 | 'year' | 'profit' | v2 | location='US' | scatterplot |`
	if res := reuseRun(t, src, nil); res.Stats.SQLQueries != 2 {
		t.Errorf("raw Y column: %d statements, want 2:\n%s", res.Stats.SQLQueries, strings.Join(res.SQLLog, "\n"))
	}
	// A Z value outside the earlier collection: f0 picks lamp or table, but
	// fetched them under other constraints, and f1 fetched only three
	// products. With f1 fetching every product, the same union is elided.
	for z1, want := range map[string]int{"{'stapler', 'chair', 'desk'}": 3, "*": 2} {
		src := "NAME | X | Y | Z | CONSTRAINTS | VIZ | PROCESS\n" + fmt.Sprintf(f1, z1) + `
f0  | 'year' | 'sales' | v3 <- 'product'.{'lamp', 'table'} | location='UK' | bar.(y=agg('sum')) | v4 <- argmax(v3)[k=1] T(f0)
*f2 | 'year' | 'sales' | v5 <- (v2.range | v4.range) | location='US' | bar.(y=agg('sum')) |`
		if res := reuseRun(t, src, nil); res.Stats.SQLQueries != want {
			t.Errorf("f1 over %s: %d statements, want %d:\n%s", z1, res.Stats.SQLQueries, want, strings.Join(res.SQLLog, "\n"))
		}
	}
}

// TestFetchOnceNeverReusesInputOrDerivedRows: a user-input row's drawn
// visualization, even one labelled exactly like a fetched slice, and a
// derived row's collection, whose visualizations were fetched under another
// row's constraints, are no source: a later row with those labels fetches.
func TestFetchOnceNeverReusesInputOrDerivedRows(t *testing.T) {
	drawn := vis.FromFloats([]float64{0, 1, 2, 3, 4, 5})
	drawn.XAttr, drawn.YAttr = "year", "sales"
	drawn.Slices = []vis.Slice{{Attr: "product", Value: "stapler"}}
	res := reuseRun(t, `
NAME | X      | Y       | Z                     | PROCESS
-f1  |        |         |                       |
f2   | 'year' | 'sales' | v1 <- 'product'.*     | v2 <- argmin(v1)[k=1] D(f1, f2)
*f3  | 'year' | 'sales' | 'product'.'stapler'   |`, map[string]*vis.Visualization{"f1": drawn})
	if res.Stats.SQLQueries != 2 {
		t.Errorf("user input: %d statements, want 2:\n%s", res.Stats.SQLQueries, strings.Join(res.SQLLog, "\n"))
	}
	if got := res.Outputs[0].Vis[0]; got == drawn || len(got.Points) != 6 || got.Points[0].Y == 0 {
		t.Errorf("user input: f3 answered with %v, not the fetched slice", got.Points)
	}
	res = reuseRun(t, `
NAME  | X      | Y       | Z                 | CONSTRAINTS   | PROCESS
f1    | 'year' | 'sales' | v1 <- 'product'.* | location='US' | v2 <- argmax(v1)[k=2] T(f1)
f2=f1 |        |         |                   |               |
*f3   | 'year' | 'sales' | v2                |               |`, nil)
	if res.Stats.SQLQueries != 2 {
		t.Errorf("derived row: %d statements, want 2:\n%s", res.Stats.SQLQueries, strings.Join(res.SQLLog, "\n"))
	}
}

// TestFetchOnceSharesUnmutatedVisualizations: an elided row's
// visualizations are the earlier row's own, and no task that runs after the
// reuse — scoring, clustering, trends, Name-column operators — writes to
// one: every point of every fetched visualization is as it was fetched.
func TestFetchOnceSharesUnmutatedVisualizations(t *testing.T) {
	src := `
NAME   | X      | Y       | Z                 | PROCESS
-f1    |        |         |                   |
f2     | 'year' | 'sales' | v1 <- 'product'.* | v2 <- R(3, v1, f2)
f3     | 'year' | 'sales' | v2                | (v3 <- argmin(v2)[k=2] D(f1, f3)), (v4 <- argany(v2)[t>0] T(f3))
f4     | 'year' | 'sales' | v3                | v5 <- argmax(v3)[k=1] min(v2) D(f3, f4)
*f5    | 'year' | 'sales' | v5                |
*f6=f3.order |  |         | v4 ->             |`
	q, err := zql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	tbl := fixtureSales()
	db := engine.NewRowStore(tbl)
	res, err := Run(q, db, Options{Table: tbl.Name, Seed: 42, Inputs: drawnInput(), Opt: InterTask})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SQLQueries != 1 {
		t.Fatalf("%d statements, want 1 (f3 and f4 reuse f2's):\n%s", res.Stats.SQLQueries, strings.Join(res.SQLLog, "\n"))
	}
	// Every product's visualization as a query with no task fetches it.
	plain, err := zql.Parse("NAME | X | Y | Z\n*f1 | 'year' | 'sales' | v1 <- 'product'.*")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(plain, db, Options{Table: tbl.Name, Opt: InterTask})
	if err != nil {
		t.Fatal(err)
	}
	fresh := map[string][]vis.Point{}
	for _, v := range ref.Outputs[0].Vis {
		fresh[v.Label()] = v.Points
	}
	shared := 0
	for name, coll := range res.Collections {
		if name == "f1" {
			continue // the drawn input
		}
		for i, v := range coll.Vis {
			if slices.Contains(res.Collections["f2"].Vis, v) {
				shared++
			}
			if want, ok := fresh[v.Label()]; !ok || !slices.Equal(v.Points, want) {
				t.Errorf("%s[%d] %s: %v, want %v as fetched", name, i, v.Label(), v.Points, want)
			}
		}
	}
	if shared <= len(res.Collections["f2"].Vis) {
		t.Errorf("%d visualizations shared with f2: the later rows did not reuse its", shared)
	}
}
