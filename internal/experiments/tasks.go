package experiments

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/minisql"
	"repro/internal/vis"
	"repro/internal/workload"
)

// Task identifies one of the three task processors of Section 7.2.
type Task int

// Tasks.
const (
	TaskSimilarity Task = iota
	TaskRepresentative
	TaskOutlier
)

// String names the task as the figures do.
func (t Task) String() string {
	switch t {
	case TaskSimilarity:
		return "Similarity"
	case TaskRepresentative:
		return "Representative"
	case TaskOutlier:
		return "Outlier"
	}
	return "?"
}

// TaskTiming is one bar of Figures 7.3 / 7.4.
type TaskTiming struct {
	Task        Task
	Dataset     string
	Groups      int
	RowsScanned int64 // rows the SQL query scanned (engine.Counters)
	Total       time.Duration
	Query       time.Duration // SQL execution time
	Compute     time.Duration // task-processor computation time
}

// RunTask executes one task processor end to end: fetch every Z-slice
// visualization with one grouped SQL query, then run the processor. This is
// the measurement loop of Section 7.2, which reports total, computation, and
// query-execution times as a function of the number of groups.
func RunTask(db engine.DB, table, x, y, z string, task Task, m vis.Metric, seed int64) (TaskTiming, error) {
	tt := TaskTiming{Task: task, Dataset: table}
	start := time.Now()
	sql := fmt.Sprintf("SELECT %s, AVG(%s) AS y, %s FROM %s GROUP BY %s, %s ORDER BY %s, %s",
		x, y, z, table, z, x, z, x)
	qStart, before := time.Now(), db.Counters().RowsScanned
	res, err := execSQL(db, sql)
	if err != nil {
		return tt, err
	}
	tt.Query = time.Since(qStart)
	tt.RowsScanned = db.Counters().RowsScanned - before

	cStart := time.Now()
	viss := splitByZ(res, x, z, "y")
	tt.Groups = len(viss) * groupsPerVis(viss)
	switch task {
	case TaskSimilarity:
		// Find the visualization most similar to the first one (the "user
		// selected up front" reference of Section 7.2): vectorize every
		// candidate onto the shared domain once, then scan with ℓ2.
		if len(viss) > 1 {
			domain := vis.Domain(viss)
			vecs := make([][]float64, len(viss))
			for i, v := range viss {
				vecs[i] = vis.ZNormalize(v.Vector(domain))
			}
			best, bestD := -1, 0.0
			for i := 1; i < len(vecs); i++ {
				d := vis.Euclidean(vecs[0], vecs[i])
				if best == -1 || d < bestD {
					best, bestD = i, d
				}
			}
			_ = best
		}
	case TaskRepresentative:
		vis.Representative(viss, 10, m, seed)
	case TaskOutlier:
		vis.Outliers(viss, 10, m, seed)
	}
	tt.Compute = time.Since(cStart)
	tt.Total = time.Since(start)
	return tt, nil
}

func groupsPerVis(viss []*vis.Visualization) int {
	if len(viss) == 0 {
		return 0
	}
	return len(viss[0].Points)
}

// splitByZ converts an ordered (z, x, y) result into one visualization per z
// value; rows arrive sorted by z then x.
func splitByZ(res *engine.Result, x, z, yAlias string) []*vis.Visualization {
	xi, yi, zi := res.ColIndex(x), res.ColIndex(yAlias), res.ColIndex(z)
	var out []*vis.Visualization
	var cur *vis.Visualization
	var curZ string
	for _, row := range res.Rows() {
		zv := row[zi].String()
		if cur == nil || zv != curZ {
			cur = &vis.Visualization{XAttr: x, YAttr: yAlias, Slices: []vis.Slice{{Attr: z, Value: zv}}}
			out = append(out, cur)
			curZ = zv
		}
		cur.Points = append(cur.Points, vis.Point{X: row[xi], Y: row[yi].Float()})
	}
	return out
}

// Fig73 reproduces Figure 7.3: the three task processors on the two
// real-world-shaped datasets (census-like and airline-like), total time.
func Fig73(s Scale) ([]TaskTiming, error) {
	var out []TaskTiming
	census := engine.NewRowStore(CensusDataset(s))
	airline := engine.NewRowStore(AirlineDataset(s))
	for _, task := range []Task{TaskSimilarity, TaskRepresentative, TaskOutlier} {
		tt, err := RunTask(census, "census", "age", "wage_per_hour", "occupation", task, vis.DefaultMetric, 7)
		if err != nil {
			return nil, err
		}
		tt.Dataset = "census-data"
		out = append(out, tt)
		tt, err = RunTask(airline, "airline", "year", "ArrDelay", "airport", task, vis.DefaultMetric, 7)
		if err != nil {
			return nil, err
		}
		tt.Dataset = "airline"
		out = append(out, tt)
	}
	return out, nil
}

// Fig74Groups are the group counts Figure 7.4 sweeps.
var Fig74Groups = []int{1000, 10000, 50000, 100000}

// Fig74 reproduces Figure 7.4: the three tasks on synthetic data with the
// number of groups varied (z-cardinality × x-cardinality), row count fixed.
func Fig74(s Scale) ([]TaskTiming, error) {
	var out []TaskTiming
	for _, groups := range Fig74Groups {
		xCard := 10
		zCard := groups / xCard
		tb := workload.GroupSweep(s.sweepRows(), zCard, xCard, 11)
		db := engine.NewRowStore(tb)
		for _, task := range []Task{TaskSimilarity, TaskRepresentative, TaskOutlier} {
			tt, err := RunTask(db, "sweep", "x", "y", "z", task, vis.DefaultMetric, 7)
			if err != nil {
				return nil, err
			}
			tt.Dataset = "synthetic"
			tt.Groups = groups
			out = append(out, tt)
		}
	}
	return out, nil
}

// BackendRow is one bar of Figure 7.5: one back-end at one selectivity and
// group count. RowsScanned and SegmentsSkipped are the engine-counter deltas
// of a single execution, printed side by side so the back-ends' work is
// comparable under one semantic: rows the executor actually visited (the row
// store visits the whole table per scan, the bitmap store its intersected
// candidate set, the column store the segments its zone maps could not prove
// empty — see docs/ARCHITECTURE.md).
type BackendRow struct {
	Backend         string
	Dataset         string
	Selectivity     string // "10%" or "100%"
	Groups          int
	Time            time.Duration
	RowsScanned     int64
	SegmentsSkipped int64
}

// Fig75Groups are the group counts Figure 7.5 sweeps.
var Fig75Groups = []int{20, 100, 10000, 50000, 100000}

// Fig75 reproduces Figure 7.5 (a, b): RowStore (PostgreSQL stand-in) vs
// BitmapStore (RoaringDB) on the canonical aggregate query at 10% and 100%
// selectivity across group counts.
func Fig75(s Scale) ([]BackendRow, error) {
	var out []BackendRow
	for _, groups := range Fig75Groups {
		xCard := 10
		zCard := groups / xCard
		if zCard < 2 {
			zCard = 2
		}
		tb := workload.GroupSweep(s.sweepRows(), zCard, xCard, 13)
		row := engine.NewRowStore(tb)
		bit := engine.NewBitmapStore(tb)
		col := engine.NewColumnStore(tb)
		for _, sel := range []string{"10%", "100%"} {
			sql := "SELECT x, SUM(y) AS s, z FROM sweep GROUP BY z, x ORDER BY z, x"
			if sel == "10%" {
				sql = "SELECT x, SUM(y) AS s, z FROM sweep WHERE p1 = 'yes' GROUP BY z, x ORDER BY z, x"
			}
			for _, db := range []engine.DB{row, bit, col} {
				r, err := bestOf(3, db, sql)
				if err != nil {
					return nil, err
				}
				r.Dataset = "synthetic"
				r.Selectivity = sel
				r.Groups = groups
				out = append(out, r)
			}
		}
	}
	return out, nil
}

// execSQL parses and prepares one statement and runs it as a single plan
// (Plan.Execute): the path every timing in this package measures.
func execSQL(db engine.DB, sql string) (*engine.Result, error) {
	q, err := minisql.Parse(sql)
	if err != nil {
		return nil, err
	}
	p, err := db.Prepare(q)
	if err != nil {
		return nil, err
	}
	return p.Execute()
}

// bestOf runs the query n times (after one warm-up) and returns the fastest
// execution, the standard way to suppress allocator and cache noise in
// micro-comparisons. The per-execution counters are a single run's delta
// (they are deterministic, unlike the timing).
func bestOf(n int, db engine.DB, sql string) (BackendRow, error) {
	if _, err := execSQL(db, sql); err != nil {
		return BackendRow{}, err
	}
	row := BackendRow{Backend: db.Name()}
	before := db.Counters()
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := execSQL(db, sql); err != nil {
			return BackendRow{}, err
		}
		if d := time.Since(start); row.Time == 0 || d < row.Time {
			row.Time = d
		}
	}
	after := db.Counters()
	row.RowsScanned = (after.RowsScanned - before.RowsScanned) / int64(n)
	row.SegmentsSkipped = (after.SegmentsSkipped - before.SegmentsSkipped) / int64(n)
	return row, nil
}

// Fig75Census reproduces Figure 7.5 (c): the same back-end comparison on the
// census-like dataset at both selectivities.
func Fig75Census(s Scale) ([]BackendRow, error) {
	tb := CensusDataset(s)
	row := engine.NewRowStore(tb)
	bit := engine.NewBitmapStore(tb)
	col := engine.NewColumnStore(tb)
	var out []BackendRow
	for _, sel := range []string{"10%", "100%"} {
		sql := "SELECT age, SUM(wage_per_hour) AS s, occupation FROM census GROUP BY occupation, age ORDER BY occupation, age"
		if sel == "10%" {
			// workclass='Federal' selects ~1/6; combine with a relationship
			// predicate for ~10%.
			sql = "SELECT age, SUM(wage_per_hour) AS s, occupation FROM census WHERE workclass = 'Federal' AND marital_status != 'Widowed' GROUP BY occupation, age ORDER BY occupation, age"
		}
		for _, db := range []engine.DB{row, bit, col} {
			r, err := bestOf(3, db, sql)
			if err != nil {
				return nil, err
			}
			r.Dataset = "census"
			r.Selectivity = sel
			r.Groups = tb.Column("occupation").Cardinality() * 70
			out = append(out, r)
		}
	}
	return out, nil
}
