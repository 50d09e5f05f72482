// Package repro's root benchmarks regenerate every evaluation artifact of
// the paper as testing.B benchmarks — one per table/figure (see DESIGN.md's
// experiment index) plus ablations for the design choices it calls out.
// cmd/zbench prints the same experiments as human-readable tables.
package repro

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/minisql"
	"repro/internal/study"
	"repro/internal/vis"
	"repro/internal/workload"
	"repro/internal/zexec"
	"repro/internal/zql"
)

// Shared datasets, built once.
var (
	salesOnce   sync.Once
	salesTable  *dataset.Table
	airOnce     sync.Once
	airTable    *dataset.Table
	censusOnce  sync.Once
	censusTable *dataset.Table
)

// execSQL parses, prepares and runs one statement as a single plan: the
// test shorthand for Plan.Execute over SQL text.
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

func sales() *dataset.Table {
	salesOnce.Do(func() { salesTable = experiments.SalesDataset(experiments.ScaleSmall) })
	return salesTable
}

func airline() *dataset.Table {
	airOnce.Do(func() { airTable = experiments.AirlineDataset(experiments.ScaleSmall) })
	return airTable
}

func census() *dataset.Table {
	censusOnce.Do(func() { censusTable = experiments.CensusDataset(experiments.ScaleSmall) })
	return censusTable
}

var optLevels = []zexec.OptLevel{zexec.NoOpt, zexec.IntraLine, zexec.IntraTask, zexec.InterTask}

func benchZQLAtLevels(b *testing.B, src string, t *dataset.Table, table string) {
	b.Helper()
	q, err := zql.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	db := engine.NewRowStore(t)
	for _, level := range optLevels {
		b.Run(level.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := zexec.Run(q, db, zexec.Options{Table: table, Opt: level, Seed: 7}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig71Top regenerates Figure 7.1 (top): Table 5.1 on synthetic
// sales at each optimization level.
func BenchmarkFig71Top(b *testing.B) {
	benchZQLAtLevels(b, experiments.Table51Query(sales(), 20), sales(), "sales")
}

// BenchmarkFig71Bottom regenerates Figure 7.1 (bottom): Table 5.2.
func BenchmarkFig71Bottom(b *testing.B) {
	benchZQLAtLevels(b, experiments.Table52Query(sales(), 20), sales(), "sales")
}

// BenchmarkFig72Left regenerates Figure 7.2 (left): Table 7.1 on airline data.
func BenchmarkFig72Left(b *testing.B) {
	benchZQLAtLevels(b, experiments.Table71Query(airline(), 10), airline(), "airline")
}

// BenchmarkFig72Right regenerates Figure 7.2 (right): Table 7.2.
func BenchmarkFig72Right(b *testing.B) {
	benchZQLAtLevels(b, experiments.Table72Query(airline(), 10), airline(), "airline")
}

// BenchmarkFig73 regenerates Figure 7.3: the three task processors on the
// census-like and airline-like datasets.
func BenchmarkFig73(b *testing.B) {
	cdb := engine.NewRowStore(census())
	adb := engine.NewRowStore(airline())
	for _, task := range []experiments.Task{experiments.TaskSimilarity, experiments.TaskRepresentative, experiments.TaskOutlier} {
		b.Run("census/"+task.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunTask(cdb, "census", "age", "wage_per_hour", "occupation", task, vis.DefaultMetric, 7); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("airline/"+task.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunTask(adb, "airline", "year", "ArrDelay", "airport", task, vis.DefaultMetric, 7); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig74 regenerates Figure 7.4: tasks vs number of groups.
func BenchmarkFig74(b *testing.B) {
	for _, groups := range []int{1000, 10000, 50000} {
		tb := workload.GroupSweep(100000, groups/10, 10, 11)
		db := engine.NewRowStore(tb)
		for _, task := range []experiments.Task{experiments.TaskSimilarity, experiments.TaskRepresentative, experiments.TaskOutlier} {
			b.Run(fmt.Sprintf("groups=%d/%s", groups, task), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := experiments.RunTask(db, "sweep", "x", "y", "z", task, vis.DefaultMetric, 7); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig75 regenerates Figure 7.5 (a, b): RowStore vs BitmapStore at
// 10% and 100% selectivity across group counts.
func BenchmarkFig75(b *testing.B) {
	for _, groups := range []int{20, 10000, 100000} {
		zCard := groups / 10
		if zCard < 2 {
			zCard = 2
		}
		tb := workload.GroupSweep(100000, zCard, 10, 13)
		stores := []engine.DB{engine.NewRowStore(tb), engine.NewBitmapStore(tb), engine.NewColumnStore(tb)}
		for _, sel := range []string{"10", "100"} {
			sql := "SELECT x, SUM(y) AS s, z FROM sweep GROUP BY z, x ORDER BY z, x"
			if sel == "10" {
				sql = "SELECT x, SUM(y) AS s, z FROM sweep WHERE p1 = 'yes' GROUP BY z, x ORDER BY z, x"
			}
			for _, db := range stores {
				b.Run(fmt.Sprintf("groups=%d/sel=%s%%/%s", groups, sel, db.Name()), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := execSQL(db, sql); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkFig75Census regenerates Figure 7.5 (c) on census-like data.
func BenchmarkFig75Census(b *testing.B) {
	stores := []engine.DB{engine.NewRowStore(census()), engine.NewBitmapStore(census()), engine.NewColumnStore(census())}
	sql := "SELECT age, SUM(wage_per_hour) AS s, occupation FROM census WHERE workclass = 'Federal' AND marital_status != 'Widowed' GROUP BY occupation, age ORDER BY occupation, age"
	for _, db := range stores {
		b.Run(db.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := execSQL(db, sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable82 regenerates Table 8.2: the simulated user study plus its
// ANOVA and Tukey HSD analysis.
func BenchmarkTable82(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := study.Simulate(12, int64(i))
		if _, _, err := sim.Table82(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationIntraLine isolates the intra-line batching decision: the
// same single-row 20-product query compiled as 20 queries vs 1.
func BenchmarkAblationIntraLine(b *testing.B) {
	src := `
NAME | X      | Y         | Z                  | CONSTRAINTS  | VIZ                | PROCESS
*f1  | 'year' | 'revenue' | v1 <- 'product'.%s | country='US' | bar.(y=agg('sum')) |`
	q, err := zql.Parse(fmt.Sprintf(src, productSet(sales(), 20)))
	if err != nil {
		b.Fatal(err)
	}
	db := engine.NewRowStore(sales())
	for _, level := range []zexec.OptLevel{zexec.NoOpt, zexec.IntraLine} {
		b.Run(level.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := zexec.Run(q, db, zexec.Options{Table: "sales", Opt: level}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func productSet(t *dataset.Table, n int) string {
	vals := t.Column("product").DistinctSorted()
	if n > len(vals) {
		n = len(vals)
	}
	out := "{"
	for i := 0; i < n; i++ {
		if i > 0 {
			out += ","
		}
		out += "'" + vals[i].String() + "'"
	}
	return out + "}"
}

// BenchmarkAblationQueryTree isolates inter-task query-tree batching against
// plain intra-task pipelining on Table 5.1, whose second row is independent
// of the first task.
func BenchmarkAblationQueryTree(b *testing.B) {
	q, err := zql.Parse(experiments.Table51Query(sales(), 20))
	if err != nil {
		b.Fatal(err)
	}
	db := engine.NewRowStore(sales())
	for _, level := range []zexec.OptLevel{zexec.IntraTask, zexec.InterTask} {
		b.Run(level.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := zexec.Run(q, db, zexec.Options{Table: "sales", Opt: level}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDistance compares the distance metrics on the similarity
// task: Euclidean (paper default) vs DTW (quadratic) vs KL vs EMD.
func BenchmarkAblationDistance(b *testing.B) {
	db := engine.NewRowStore(airline())
	for _, name := range []string{"euclidean", "dtw", "kl", "emd"} {
		m, err := vis.MetricByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunTask(db, "airline", "year", "ArrDelay", "airport", experiments.TaskRepresentative, m, 7); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationNormalization measures the cost/benefit of z-normalizing
// before distance computation (DESIGN.md: normalization before distance).
func BenchmarkAblationNormalization(b *testing.B) {
	db := engine.NewRowStore(airline())
	for _, name := range []string{"euclidean", "raw-euclidean"} {
		m, _ := vis.MetricByName(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunTask(db, "airline", "year", "ArrDelay", "airport", experiments.TaskOutlier, m, 7); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkZQLParse measures parser throughput over the whole paper corpus.
func BenchmarkZQLParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, src := range zql.Corpus {
			if _, err := zql.Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBitmapIndexBuild measures roaring index construction, the
// BitmapStore's load-time cost.
func BenchmarkBitmapIndexBuild(b *testing.B) {
	tb := sales()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.NewBitmapStore(tb)
	}
}

// batchPlans prepares the 32-query single-table aggregate batch used by the
// shared-scan benchmarks: one slice aggregation per z value, the shape a
// batched ZQL request produces.
func batchPlans(b *testing.B, db engine.DB, tb *dataset.Table, n int) []*engine.Plan {
	b.Helper()
	zvals := tb.Column("z").DistinctSorted()
	if n > len(zvals) {
		n = len(zvals)
	}
	plans := make([]*engine.Plan, n)
	for i := 0; i < n; i++ {
		q, err := minisql.Parse(fmt.Sprintf(
			"SELECT x, SUM(y) AS s FROM sweep WHERE z = '%s' GROUP BY x ORDER BY x", zvals[i].String()))
		if err != nil {
			b.Fatal(err)
		}
		p, err := db.Prepare(q)
		if err != nil {
			b.Fatal(err)
		}
		plans[i] = p
	}
	return plans
}

// BenchmarkBatchVsSequential measures the shared-scan win of ExecuteBatch:
// the same 32-query aggregate batch run as a sequential Execute loop versus
// one ExecuteBatch request, on all three back-ends.
func BenchmarkBatchVsSequential(b *testing.B) {
	tb := workload.GroupSweep(100000, 64, 10, 11)
	for _, db := range []engine.DB{engine.NewRowStore(tb), engine.NewBitmapStore(tb), engine.NewColumnStore(tb)} {
		plans := batchPlans(b, db, tb, 32)
		b.Run(db.Name()+"/Sequential", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, p := range plans {
					if _, err := p.Execute(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(db.Name()+"/ExecuteBatch", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.ExecuteBatch(context.Background(), plans); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColumnVsRowClusteredBatch is the zone-map headline: the same
// 32-query per-slice aggregate batch as BenchmarkBatchVsSequential, but over
// z-clustered data (the layout of per-tenant or time-ordered loads), on the
// row store versus the column store. Each plan's z-equality conjunct proves
// all but its own segments empty, so the column store touches ~1/32 of the
// (plan, segment) space; segskip/op and rows/op report the counters.
func BenchmarkColumnVsRowClusteredBatch(b *testing.B) {
	tb := workload.GroupSweepClustered(100000, 64, 10, 11)
	for _, db := range []engine.DB{engine.NewRowStore(tb), engine.NewColumnStore(tb)} {
		plans := batchPlans(b, db, tb, 32)
		b.Run(db.Name(), func(b *testing.B) {
			before := db.Counters()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.ExecuteBatch(context.Background(), plans); err != nil {
					b.Fatal(err)
				}
			}
			after := db.Counters()
			b.ReportMetric(float64(after.SegmentsSkipped-before.SegmentsSkipped)/float64(b.N), "segskip/op")
			b.ReportMetric(float64(after.RowsScanned-before.RowsScanned)/float64(b.N), "rows/op")
		})
	}
}

// BenchmarkFragmentSweep measures what fragments cost: the same clustered
// 32-query batch as BenchmarkColumnVsRowClusteredBatch on column stores whose
// fragments hold F ∈ {1, 4, 8, 64} segments (the 100 000-row table is 25
// segments: 25, 7, 4 and 1 fragments). Each fragment is a scan job per share
// of the plans, merged at the gather, so on one core the sweep pins that the
// gather's overhead is small. segskip/op and rows/op must not move with F:
// fragments redistribute the scan, they never add work.
func BenchmarkFragmentSweep(b *testing.B) {
	tb := workload.GroupSweepClustered(100000, 64, 10, 11)
	for _, f := range []int{1, 4, 8, 64} {
		prev := engine.SetFragmentSegments(f)
		db := engine.NewColumnStore(tb)
		engine.SetFragmentSegments(prev)
		plans := batchPlans(b, db, tb, 32)
		b.Run(fmt.Sprintf("segments=%d", f), func(b *testing.B) {
			before := db.Counters()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.ExecuteBatch(context.Background(), plans); err != nil {
					b.Fatal(err)
				}
			}
			after := db.Counters()
			b.ReportMetric(float64(after.SegmentsSkipped-before.SegmentsSkipped)/float64(b.N), "segskip/op")
			b.ReportMetric(float64(after.RowsScanned-before.RowsScanned)/float64(b.N), "rows/op")
		})
	}
}

// BenchmarkPrepareOverhead isolates plan preparation (validation, column
// binding, predicate compilation) from execution.
func BenchmarkPrepareOverhead(b *testing.B) {
	tb := sales()
	db := engine.NewRowStore(tb)
	q, err := minisql.Parse("SELECT year, SUM(revenue) AS s FROM sales WHERE country = 'US' GROUP BY year ORDER BY year")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Prepare(q); err != nil {
			b.Fatal(err)
		}
	}
}

// processBenchTable builds a synthetic time-series table for the process-
// phase benchmark: `near` series that track the probe ramp closely plus
// far series oscillating around +/-1 — the shape of a real similarity
// search, where a handful of candidates are close and the bulk is provably
// far. The near series sort first, so the top-k bound tightens immediately
// and the abandoning kernels cut the far candidates off within their first
// DTW rows.
func processBenchTable(groups, near, points int) *dataset.Table {
	t := dataset.NewTable("series", []dataset.Field{
		{Name: "g", Kind: dataset.KindString},
		{Name: "t", Kind: dataset.KindInt},
		{Name: "val", Kind: dataset.KindFloat},
	})
	for g := 0; g < groups; g++ {
		state := uint64(g)*2654435761 + 12345
		next := func() float64 {
			state = state*6364136223846793005 + 1442695040888963407
			return float64(state>>40)/float64(1<<24) - 0.5
		}
		for ts := 0; ts < points; ts++ {
			var val float64
			if g < near {
				val = processBenchProbe(ts, points) + 0.01*next()
			} else {
				val = float64((ts%2)*2-1) + 0.05*next()
			}
			t.AppendRow(
				dataset.SV(fmt.Sprintf("g%04d", g)),
				dataset.IV(int64(ts)),
				dataset.FV(val),
			)
		}
	}
	return t
}

// processBenchProbe is the drawn trend the benchmark searches for: a ramp.
func processBenchProbe(ts, points int) float64 {
	return 4 * float64(ts) / float64(points-1)
}

// BenchmarkProcessParallelVsSequential measures the process-phase executor
// on a top-k similarity workload: argmin(v1)[k=5] D(f1, f2) over 64
// DTW-compared series of 512 points. "sequential" runs at NoOpt, whose
// evaluator is one worker with no pruning; "parallel-pruned" runs at
// Inter-Task: the worker pool plus the bounded heap feeding the
// early-abandoning DTW kernel. The levels also fetch differently, so
// process-ns/op, not ns/op, is the process-phase comparison.
// The abandoned/op metric shows pruning at work; the pruning win holds on a
// single core, and the pool multiplies it on multicore.
func BenchmarkProcessParallelVsSequential(b *testing.B) {
	const groups, near, points = 64, 8, 512
	tbl := processBenchTable(groups, near, points)
	db := engine.NewRowStore(tbl)
	metric, err := vis.MetricByName("dtw")
	if err != nil {
		b.Fatal(err)
	}
	src := `
NAME | X   | Y     | Z           | PROCESS
-f1  |     |       |             |
f2   | 't' | 'val' | v1 <- 'g'.* | v2 <- argmin(v1)[k=5] D(f1, f2)
*f3  | 't' | 'val' | v2          |`
	q, err := zql.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	probe := make([]float64, points)
	for i := range probe {
		probe[i] = processBenchProbe(i, points)
	}
	run := func(b *testing.B, mutate func(o *zexec.Options)) {
		opts := zexec.Options{
			Table:  "series",
			Opt:    zexec.InterTask,
			Metric: metric,
			Seed:   42,
			Inputs: map[string]*vis.Visualization{"f1": vis.FromFloats(probe)},
		}
		mutate(&opts)
		var process time.Duration
		var abandoned int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := zexec.Run(q, db, opts)
			if err != nil {
				b.Fatal(err)
			}
			process += res.Stats.ProcessTime
			abandoned += res.Stats.Process.DistAbandoned
		}
		b.ReportMetric(float64(process.Nanoseconds())/float64(b.N), "process-ns/op")
		b.ReportMetric(float64(abandoned)/float64(b.N), "abandoned/op")
	}
	b.Run("sequential", func(b *testing.B) {
		run(b, func(o *zexec.Options) { o.Opt = zexec.NoOpt })
	})
	b.Run("parallel-pruned", func(b *testing.B) {
		run(b, func(o *zexec.Options) {})
	})
}
