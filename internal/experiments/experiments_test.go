package experiments

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/minisql"
	"repro/internal/workload"
	"repro/internal/zexec"
)

func TestFig71ShapesHold(t *testing.T) {
	rows, err := Fig71(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 2 queries x 4 levels", len(rows))
	}
	byLevel := map[string]map[zexec.OptLevel]OptRow{}
	for _, r := range rows {
		if byLevel[r.Query] == nil {
			byLevel[r.Query] = map[zexec.OptLevel]OptRow{}
		}
		byLevel[r.Query][r.Level] = r
	}
	for q, m := range byLevel {
		// Paper shape: requests decrease monotonically with optimization
		// level, and NoOpt does the most work by a wide margin. Work is
		// judged on rows scanned, which repeats exactly (wall time on a
		// shared machine does not): the row store scans the table once per
		// request, and NoOpt sends one request per visualization.
		if !(m[zexec.NoOpt].Requests > m[zexec.IntraLine].Requests &&
			m[zexec.IntraLine].Requests >= m[zexec.IntraTask].Requests &&
			m[zexec.IntraTask].Requests >= m[zexec.InterTask].Requests) {
			t.Errorf("%s: requests not decreasing: %+v", q, m)
		}
		t.Logf("%s: NoOpt %v (%d rows scanned), Intra-Line %v (%d rows scanned)", q,
			m[zexec.NoOpt].Time, m[zexec.NoOpt].RowsScanned, m[zexec.IntraLine].Time, m[zexec.IntraLine].RowsScanned)
		if m[zexec.NoOpt].RowsScanned <= 2*m[zexec.IntraLine].RowsScanned {
			t.Errorf("%s: NoOpt scanned %d rows, want well over Intra-Line's %d",
				q, m[zexec.NoOpt].RowsScanned, m[zexec.IntraLine].RowsScanned)
		}
	}
	// Table 5.1 with 20 products: NoOpt requests = 20 + 20 + |union| >= 40.
	if got := byLevel["Table 5.1"][zexec.NoOpt].Requests; got < 40 {
		t.Errorf("Table 5.1 NoOpt requests = %d, want >= 40", got)
	}
	if got := byLevel["Table 5.1"][zexec.IntraLine].Requests; got != 3 {
		t.Errorf("Table 5.1 Intra-Line requests = %d, want 3", got)
	}
}

func TestFig72ShapesHold(t *testing.T) {
	rows, err := Fig72(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Time <= 0 || r.Requests <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
}

func TestFig73TaskOrdering(t *testing.T) {
	rows, err := Fig73(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 3 tasks x 2 datasets", len(rows))
	}
	// Paper's finding for real datasets: "since the number of groups is
	// small, the overall time is dominated by the query execution time".
	// Judged on counted work, which repeats exactly (wall time on a shared
	// machine does not): the points the processor scores are a small
	// fraction of the rows the query scanned to produce them.
	const groupShare = 10
	for _, r := range rows {
		t.Logf("%s/%s: %d groups from %d rows scanned; query %v, compute %v, total %v",
			r.Dataset, r.Task, r.Groups, r.RowsScanned, r.Query, r.Compute, r.Total)
		if r.RowsScanned == 0 || int64(r.Groups)*groupShare > r.RowsScanned {
			t.Errorf("%s/%s: %d groups from %d rows scanned, want at most 1/%d of them",
				r.Dataset, r.Task, r.Groups, r.RowsScanned, groupShare)
		}
	}
}

func TestFig74GroupScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("group sweep is slow")
	}
	rows, err := Fig74(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fig74Groups)*3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Representative computation must grow with group count (paper: the
	// computation cost increases much faster than query time). Judged on
	// the points the processor clusters, which repeat exactly; the compute
	// times are only logged.
	var repPoints []int
	for _, r := range rows {
		if r.Task == TaskRepresentative {
			t.Logf("representative over %d groups: %d points, compute %v, query %v", r.Groups, r.Points, r.Compute, r.Query)
			repPoints = append(repPoints, r.Points)
		}
	}
	for i := 1; i < len(repPoints); i++ {
		if repPoints[i] <= repPoints[i-1] {
			t.Errorf("representative work should grow with groups: %v points", repPoints)
		}
	}
}

func TestFig75SelectivityCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("backend sweep is slow")
	}
	rows, err := Fig75(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	// Paper shape: at 10% selectivity the bitmap store wins at every group
	// count, because it tests only the candidate rows of its intersected
	// index bitmaps where the row store tests every row. Judged on rows
	// tested (DB.Counters), which repeat exactly, at the small group counts,
	// where predicate evaluation (the thing the index accelerates) dominates
	// the runtime; the timings the figure plots swing with the machine's
	// load and are only logged.
	type key struct {
		groups int
		sel    string
	}
	scanned := map[key]map[string]int64{}
	for _, r := range rows {
		t.Logf("%s groups=%d sel=%s: %v, %d rows scanned", r.Backend, r.Groups, r.Selectivity, r.Time, r.RowsScanned)
		k := key{r.Groups, r.Selectivity}
		if scanned[k] == nil {
			scanned[k] = map[string]int64{}
		}
		scanned[k][r.Backend] = r.RowsScanned
	}
	for _, g := range []int{20, 100} {
		m := scanned[key{g, "10%"}]
		if m["bitmapstore"] == 0 || m["bitmapstore"] >= m["rowstore"] {
			t.Errorf("groups=%d sel=10%%: the bitmap store tested %d rows, the row store %d: want fewer", g, m["bitmapstore"], m["rowstore"])
		}
	}
}

// TestFig75AllocGuard counts what one execution of Figure 7.5's query
// allocates on every store along the figure's group-count axis
// (Fig75Groups), over ScaleSmall's 200 000 rows, with and without its 10 %
// predicate: testing.AllocsPerRun, not time, so it holds on any machine. A
// sink keeps its groups in chunks of 256 with two allocations each, so a
// bound of a few hundred plus one allocation per 128 groups is met with room;
// a sink that allocates per group fails it — the string-keyed map plans past
// 65 536 combined key codes once fell to took 87 788 allocations at 100 000
// groups.
func TestFig75AllocGuard(t *testing.T) {
	for _, groups := range Fig75Groups {
		tb := workload.GroupSweep(ScaleSmall.sweepRows(), max(groups/10, 2), 10, 13)
		for _, db := range []engine.DB{engine.NewRowStore(tb), engine.NewBitmapStore(tb), engine.NewColumnStore(tb)} {
			for _, where := range []string{"", " WHERE p1 = 'yes'"} {
				q, err := minisql.Parse("SELECT x, SUM(y) AS s, z FROM sweep" + where + " GROUP BY z, x ORDER BY z, x")
				if err != nil {
					t.Fatal(err)
				}
				p, err := db.Prepare(q)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s groups=%d%s", db.Name(), groups, where)
				allocs := testing.AllocsPerRun(2, func() {
					if _, err := p.Execute(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				})
				t.Logf("%s: %.0f allocations an execution", name, allocs)
				if bound := 300 + float64(groups)/128; allocs > bound {
					t.Errorf("%s: %.0f allocations an execution, want <= %.0f", name, allocs, bound)
				}
			}
		}
	}
}

func TestFig75Census(t *testing.T) {
	// Judged on counted work (DB.Counters), which repeats exactly: at 10 %
	// selectivity the bitmap store visits only the candidate rows of its
	// intersected index bitmaps, the row store every row. The timings the
	// figure plots swing with the machine's load and are only logged.
	rows, err := Fig75Census(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	var bit10, row10 BackendRow
	for _, r := range rows {
		t.Logf("%s %s: %v, %d rows scanned", r.Backend, r.Selectivity, r.Time, r.RowsScanned)
		if r.Selectivity == "10%" {
			switch r.Backend {
			case "bitmapstore":
				bit10 = r
			case "rowstore":
				row10 = r
			}
		}
	}
	if bit10.RowsScanned == 0 || bit10.RowsScanned >= row10.RowsScanned {
		t.Errorf("at 10%% selectivity the bitmap store tested %d rows, the row store %d: want fewer", bit10.RowsScanned, row10.RowsScanned)
	}
}

func TestQueryBuilders(t *testing.T) {
	sales := SalesDataset(ScaleSmall)
	if q := Table51Query(sales, 5); len(q) == 0 {
		t.Error("empty 5.1")
	}
	airline := AirlineDataset(ScaleSmall)
	if q := Table72Query(airline, 3); len(q) == 0 {
		t.Error("empty 7.2")
	}
	// Clamping beyond cardinality.
	if q := Table51Query(sales, 100000); len(q) == 0 {
		t.Error("clamped list broken")
	}
}
