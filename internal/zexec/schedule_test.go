package zexec

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/zql"
)

var allLevels = []OptLevel{NoOpt, IntraLine, IntraTask, InterTask}

// runLevels runs src over a fresh row store of tbl at every optimization
// level.
func runLevels(t *testing.T, src string, tbl *dataset.Table) (map[OptLevel]*Result, map[OptLevel]error) {
	t.Helper()
	q, err := zql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	results, errs := map[OptLevel]*Result{}, map[OptLevel]error{}
	for _, opt := range allLevels {
		results[opt], errs[opt] = Run(q, engine.NewRowStore(tbl), Options{Table: tbl.Name, Seed: 42, Opt: opt})
	}
	return results, errs
}

// A derived row's task reads a row fetched after the one it derives from:
// it must wait for that fetch at every level, Intra-Task included, where the
// task used to run before the batch holding f2 had been fetched.
func TestDerivedRowTaskWaitsForTheRowsItReads(t *testing.T) {
	src := `
NAME  | X      | Y        | Z                 | PROCESS
f1    | 'year' | 'sales'  | v1 <- 'product'.* | v2 <- argmax(v1)[k=3] T(f1)
f2    | 'year' | 'profit' | v2                |
f3=f1 |        |          |                   | v3 <- argmin(v2)[k=1] T(f2)
*f4   | 'year' | 'sales'  | v3                |`
	results, errs := runLevels(t, src, fixtureSales())
	for _, opt := range allLevels {
		if errs[opt] != nil {
			t.Errorf("%v: %v", opt, errs[opt])
			continue
		}
		if got := results[opt].Bindings["v3"]; len(got) != 1 || got[0] != "chair" {
			t.Errorf("%v: v3 = %v, want [chair]", opt, got)
		}
	}
}

// A derived row fetches nothing, so its task runs as soon as its inputs
// exist and a later row reading the task's output shares the request of the
// rows admitted with it: f1 and f4 are one request at Intra-Task and at
// Inter-Task.
func TestDerivedRowTaskFeedsTheRowsAdmittedWithIt(t *testing.T) {
	src := `
NAME  | X      | Y        | Z                 | PROCESS
f0    | 'year' | 'sales'  | v1 <- 'product'.* | v2 <- argmax(v1)[k=3] T(f0)
f1    | 'year' | 'profit' | v2                |
f3=f0 |        |          |                   | v3 <- argmin(v1)[k=1] T(f0)
*f4   | 'year' | 'sales'  | v3                |`
	results, errs := runLevels(t, src, fixtureSales())
	want := map[OptLevel]int{NoOpt: 10, IntraLine: 3, IntraTask: 2, InterTask: 2}
	for _, opt := range allLevels {
		if errs[opt] != nil {
			t.Fatalf("%v: %v", opt, errs[opt])
		}
		if got := results[opt].Stats.Requests; got != want[opt] {
			t.Errorf("%v: %d requests, want %d", opt, got, want[opt])
		}
		if got, ref := encodeResult(results[opt]), encodeResult(results[NoOpt]); got != ref {
			t.Errorf("%v renders differently from %v:\n%s\n---\n%s", opt, NoOpt, got, ref)
		}
	}
}

// Every level reports the same error for the same broken query, with the
// cause. Only a query whose rows wait on something nothing defines — an
// undefined variable, a cycle — is "stuck".
func TestEveryLevelReportsTheSameError(t *testing.T) {
	cases := []struct {
		name, src string
		tbl       func() *dataset.Table
		want      string
		stuck     bool
	}{
		{name: "missing column", src: zql.Corpus["2.1"], tbl: fixtureAirline,
			want: `zexec: line 3: table "airline" has no attribute "product"`},
		{name: "undefined variable", src: `
NAME | X      | Y       | Z
*f1  | 'year' | 'sales' | v9`, tbl: fixtureSales,
			want: "zexec: query tree is stuck: line 3 waits on v9", stuck: true},
		{name: "cycle", src: `
NAME | X      | Y       | Z  | PROCESS
f1   | 'year' | 'sales' | v4 | v2 <- argmax(v4)[k=1] T(f1)
*f2  | 'year' | 'sales' | v2 | v4 <- argmin(v2)[k=1] T(f2)`, tbl: fixtureSales,
			want: "zexec: query tree is stuck: line 3 waits on v4", stuck: true},
	}
	for _, c := range cases {
		_, errs := runLevels(t, c.src, c.tbl())
		for _, opt := range allLevels {
			err := errs[opt]
			if err == nil {
				t.Errorf("%s at %v: no error", c.name, opt)
				continue
			}
			if err.Error() != errs[NoOpt].Error() {
				t.Errorf("%s: %v says %q, %v says %q", c.name, opt, err, NoOpt, errs[NoOpt])
			}
			if !strings.HasPrefix(err.Error(), c.want) {
				t.Errorf("%s at %v: %q, want it to start with %q", c.name, opt, err, c.want)
			}
			if got := strings.Contains(err.Error(), "stuck"); got != c.stuck {
				t.Errorf("%s at %v: stuck = %v, want %v (%v)", c.name, opt, got, c.stuck, err)
			}
		}
	}
}

// An error is wrapped in its "zexec:" and "line N:" prefixes once, whether
// it comes from resolving a row or from scoring its task.
func TestErrorPrefixesAppearOnce(t *testing.T) {
	cases := []struct {
		name, src string
		tbl       func() *dataset.Table
	}{
		{name: "resolution", src: zql.Corpus["2.1"], tbl: fixtureAirline},
		{name: "scoring", src: `
NAME | X      | Y       | Z                 | PROCESS
f1   | 'year' | 'sales' | v1 <- 'product'.* | v2 <- argmin(v1)[k=1] nosuch(f1)
*f2  | 'year' | 'sales' | v2                |`, tbl: fixtureSales},
	}
	for _, c := range cases {
		_, errs := runLevels(t, c.src, c.tbl())
		for _, opt := range allLevels {
			err := errs[opt]
			if err == nil {
				t.Errorf("%s at %v: no error", c.name, opt)
				continue
			}
			msg := err.Error()
			if strings.Count(msg, "zexec:") != 1 || strings.Count(msg, "line ") != 1 || !strings.HasPrefix(msg, "zexec: line 3: ") {
				t.Errorf("%s at %v: %q, want one \"zexec: line 3: \" prefix", c.name, opt, msg)
			}
		}
	}
}

// A scatterplot batch reads each unit's own raw Y column: with a Y set, the
// profit slices carry profit points at every level, as at NoOpt, where each
// unit is its own statement.
func TestScatterplotBatchReadsEachUnitsY(t *testing.T) {
	src := `NAME | X | Y | Z | CONSTRAINTS | VIZ
*f1 | 'year' | y1 <- {'sales', 'profit'} | v1 <- 'product'.* | location='US' | scatterplot`
	results, errs := runLevels(t, src, fixtureSales())
	want := ""
	for _, opt := range allLevels {
		if errs[opt] != nil {
			t.Fatalf("%v: %v", opt, errs[opt])
		}
		if got := encodeResult(results[opt]); opt == NoOpt {
			want = got
		} else if got != want {
			t.Errorf("%v answers\n%.400s\nwant (NoOpt)\n%.400s", opt, got, want)
		}
	}
}
