package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/compact"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/minisql"
	"repro/internal/workload"
	"repro/internal/zexec"
	"repro/internal/zpack"
	"repro/internal/zql"
)

// perfReport is the schema of the BENCH_<n>.json files committed at the repo
// root: a machine-readable perf trajectory point, regenerated with
//
//	zbench -json BENCH_<n>.json
//
// The numbers are environment-dependent (goMaxProcs records how many cores
// the sweep actually had); the committed files exist so PRs that claim a
// speedup carry the measurement they were made on.
type perfReport struct {
	GeneratedBy string          `json:"generatedBy"`
	GoMaxProcs  int             `json:"goMaxProcs"`
	Workload    perfWorkload    `json:"workload"`
	Batch       []perfBatch     `json:"batch"`
	Process     []perfProcess   `json:"process"`
	Planner     []perfPlanner   `json:"planner,omitempty"`
	Compaction  *perfCompaction `json:"compaction,omitempty"`
}

// perfCompaction is the before/after of background compaction on a zpack
// file that took a large unsorted append: the same shared-scan batch timed
// over the dirty file and over the re-clustered generation. The segment-skip
// delta is the whole point of the compactor; the latency delta is what it
// buys the user.
type perfCompaction struct {
	BaseRows     int `json:"baseRows"`     // clustered rows the file started with
	AppendedRows int `json:"appendedRows"` // shuffled rows appended on top
	// Cols are the cluster columns the rewrite picked from the batch's own
	// skip provenance; Unsorted counts segments out of primary-column order.
	Cols           []string `json:"cols"`
	UnsortedBefore int      `json:"unsortedBefore"`
	UnsortedAfter  int      `json:"unsortedAfter"`
	CompactNs      int64    `json:"compactNs"`
	// Appended is the batch over the dirty file, Compacted over the rewritten
	// generation — same plans, same store kind, same iteration count.
	Appended  perfBatch `json:"appended"`
	Compacted perfBatch `json:"compacted"`
}

// perfWorkload pins the dataset and batch shape the numbers were taken on.
type perfWorkload struct {
	Rows      int  `json:"rows"`
	ZCard     int  `json:"zCard"`
	XCard     int  `json:"xCard"`
	Plans     int  `json:"plans"`
	Clustered bool `json:"clustered"`
	Segments  int  `json:"segments"`
}

// perfBatch is one backend's latency for the whole 32-plan shared-scan batch.
// Counters are per batch (identical across shard counts by construction:
// sharding redistributes the scan, it never adds work).
type perfBatch struct {
	Backend         string `json:"backend"`
	Shards          int    `json:"shards,omitempty"`
	Iters           int    `json:"iters"`
	BatchNsBest     int64  `json:"batchNsBest"`
	BatchNsMedian   int64  `json:"batchNsMedian"`
	RowsScanned     int64  `json:"rowsScannedPerBatch"`
	SegmentsSkipped int64  `json:"segmentsSkippedPerBatch"`
}

// perfPlanner is one backend × planning-toggle cell of the mixed-workload
// sweep: the same prepared query mix — mis-ordered conjunctions (an expensive
// LIKE over a float column written first, the selective clustered equality
// last), single categorical equalities, and no-WHERE scan aggregates —
// executed sequentially, as a latency-shaped A/B of the conjunct planner.
// Results are byte-identical across every cell; only the time moves.
type perfPlanner struct {
	Backend          string `json:"backend"`
	Planning         bool   `json:"planning"`
	Iters            int    `json:"iters"`
	WorkloadNsBest   int64  `json:"workloadNsBest"`
	WorkloadNsMedian int64  `json:"workloadNsMedian"`
	PlansReordered   int64  `json:"plansReordered"`
}

// perfProcess is one end-to-end ZQL run (fetch + process phase) over the same
// table, splitting out the process-phase time the executor reports.
type perfProcess struct {
	Query         string `json:"query"`
	Shards        int    `json:"shards"`
	Iters         int    `json:"iters"`
	TotalNsBest   int64  `json:"totalNsBest"`
	ProcessNsBest int64  `json:"processNsBest"`
}

// perfBatchPlans is batchPlans from the root benchmarks, minus testing.B: one
// per-slice aggregate per z value, the shape a batched ZQL request produces.
func perfBatchPlans(db engine.DB, zvals []string, n int) ([]*engine.Plan, error) {
	if n > len(zvals) {
		n = len(zvals)
	}
	plans := make([]*engine.Plan, n)
	for i := 0; i < n; i++ {
		q, err := minisql.Parse(fmt.Sprintf(
			"SELECT x, SUM(y) AS s FROM sweep WHERE z = '%s' GROUP BY x ORDER BY x", zvals[i]))
		if err != nil {
			return nil, err
		}
		p, err := db.Prepare(q)
		if err != nil {
			return nil, err
		}
		plans[i] = p
	}
	return plans, nil
}

// timeBatch runs the batch iters times (after one warmup) and returns
// best/median wall time plus per-batch counter deltas.
func timeBatch(db engine.DB, plans []*engine.Plan, iters int) (perfBatch, error) {
	if _, err := db.ExecuteBatch(context.Background(), plans); err != nil {
		return perfBatch{}, err
	}
	before := db.Counters()
	times := make([]time.Duration, iters)
	for i := range times {
		start := time.Now()
		if _, err := db.ExecuteBatch(context.Background(), plans); err != nil {
			return perfBatch{}, err
		}
		times[i] = time.Since(start)
	}
	after := db.Counters()
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return perfBatch{
		Iters:           iters,
		BatchNsBest:     times[0].Nanoseconds(),
		BatchNsMedian:   times[iters/2].Nanoseconds(),
		RowsScanned:     (after.RowsScanned - before.RowsScanned) / int64(iters),
		SegmentsSkipped: (after.SegmentsSkipped - before.SegmentsSkipped) / int64(iters),
	}, nil
}

// plannerWorkloadSQL renders the mixed workload over the sweep table: four
// mis-ordered conjunctions (the planner's win case), two selective
// equalities, and two full-scan aggregates (shapes the planner must not
// slow down).
func plannerWorkloadSQL(zvals []string) []string {
	sqls := make([]string, 0, 8)
	for i := 0; i < 4; i++ {
		sqls = append(sqls, fmt.Sprintf(
			"SELECT x, SUM(y) AS s FROM sweep WHERE y LIKE '%%%d%%' AND z = '%s' AND x < 5 GROUP BY x ORDER BY x",
			i+1, zvals[(i*7)%len(zvals)]))
	}
	for i := 0; i < 2; i++ {
		sqls = append(sqls, fmt.Sprintf(
			"SELECT x, SUM(y) AS s FROM sweep WHERE z = '%s' GROUP BY x ORDER BY x", zvals[(i*11+3)%len(zvals)]))
	}
	sqls = append(sqls,
		"SELECT x, COUNT(*) AS c FROM sweep GROUP BY x ORDER BY x",
		"SELECT x, AVG(y) AS a FROM sweep GROUP BY x ORDER BY x")
	return sqls
}

// runPlannerSweep times the mixed workload on each backend with the conjunct
// planner on and off, appending one perfPlanner row per cell.
func runPlannerSweep(rep *perfReport, tb *dataset.Table, zvals []string) error {
	const iters = 9
	sqls := plannerWorkloadSQL(zvals)
	cells := []struct {
		backend  string
		planning bool
		db       engine.DB
	}{
		{"row", false, engine.NewRowStore(tb)},
		{"row", true, engine.NewRowStore(tb)},
		{"column", false, engine.NewColumnStore(tb)},
		{"column", true, engine.NewColumnStore(tb)},
	}
	for _, c := range cells {
		c.db.(engine.Planner).SetPlanning(c.planning)
		plans := make([]*engine.Plan, len(sqls))
		for i, sql := range sqls {
			q, err := minisql.Parse(sql)
			if err != nil {
				return err
			}
			p, err := c.db.Prepare(q)
			if err != nil {
				return err
			}
			plans[i] = p
		}
		// Sequential Execute, not ExecuteBatch: the sweep measures per-query
		// predicate evaluation order, not shared-scan amortization.
		run := func() error {
			for _, p := range plans {
				if _, err := p.Execute(); err != nil {
					return err
				}
			}
			return nil
		}
		if err := run(); err != nil { // warmup
			return err
		}
		times := make([]time.Duration, iters)
		for i := range times {
			start := time.Now()
			if err := run(); err != nil {
				return err
			}
			times[i] = time.Since(start)
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		row := perfPlanner{
			Backend:          c.backend,
			Planning:         c.planning,
			Iters:            iters,
			WorkloadNsBest:   times[0].Nanoseconds(),
			WorkloadNsMedian: times[iters/2].Nanoseconds(),
			PlansReordered:   c.db.Counters().PlansReordered,
		}
		rep.Planner = append(rep.Planner, row)
	}
	return nil
}

// perfProcessZQL is the process-phase probe: a top-k trend search over every
// z slice, so both the shared scan (fetch) and the task processor (process)
// do real work.
const perfProcessZQL = `
NAME | X   | Y   | Z           | PROCESS
f1   | 'x' | 'y' | v1 <- 'z'.* | v2 <- argmax(v1)[k=3] T(f1)
*f2  | 'x' | 'y' | v2          |`

// runPerfJSON measures the sharded batch sweep and the process phase and
// writes the report to path.
func runPerfJSON(path string) error {
	const rows, zCard, xCard, nplans, iters = 100000, 64, 10, 32, 15
	tb := workload.GroupSweepClustered(rows, zCard, xCard, 11)
	zvals := make([]string, 0, zCard)
	for _, v := range tb.Column("z").DistinctSorted() {
		zvals = append(zvals, v.String())
	}

	rep := perfReport{
		GeneratedBy: "zbench -json",
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Workload: perfWorkload{
			Rows: rows, ZCard: zCard, XCard: xCard, Plans: nplans,
			Clustered: true,
			Segments:  engine.NewMemSource(tb).NumSegments(),
		},
	}

	// Batch latency: the row store is the shared-scan baseline, the unsharded
	// column store adds zone-map skipping, and the sharded sweep adds
	// scatter-gather parallelism on top.
	type cfg struct {
		backend string
		shards  int
		db      engine.DB
	}
	cfgs := []cfg{
		{"row", 0, engine.NewRowStore(tb)},
		{"column", 0, engine.NewColumnStore(tb)},
	}
	for _, n := range []int{1, 2, 4, 8} {
		cfgs = append(cfgs, cfg{"sharded", n, engine.NewShardedStore(n, tb)})
	}
	for _, c := range cfgs {
		plans, err := perfBatchPlans(c.db, zvals, nplans)
		if err != nil {
			return err
		}
		pb, err := timeBatch(c.db, plans, iters)
		if err != nil {
			return err
		}
		pb.Backend = c.backend
		pb.Shards = c.shards
		rep.Batch = append(rep.Batch, pb)
	}

	// Planner mixed workload: the query mix a real session produces when the
	// user (or a query generator) writes conjuncts in an unlucky order.
	if err := runPlannerSweep(&rep, tb, zvals); err != nil {
		return err
	}

	// Compaction before/after: what re-clustering an append-dirtied file does
	// to the same batch's segment skipping and latency.
	if err := runCompactionSweep(&rep, zvals); err != nil {
		return err
	}

	// Process phase: the same ZQL run unsharded and sharded; processNs is the
	// task-processor slice of the total.
	q, err := zql.Parse(perfProcessZQL)
	if err != nil {
		return err
	}
	for _, n := range []int{1, 4} {
		db := engine.NewShardedStore(n, tb)
		pp := perfProcess{Query: "argmax-topk-trend", Shards: n, Iters: 5}
		for i := 0; i < pp.Iters+1; i++ {
			start := time.Now()
			res, err := zexec.Run(q, db, zexec.Options{Table: "sweep", Opt: zexec.InterTask, Seed: 42})
			if err != nil {
				return err
			}
			total := time.Since(start).Nanoseconds()
			if i == 0 { // warmup
				continue
			}
			if pp.TotalNsBest == 0 || total < pp.TotalNsBest {
				pp.TotalNsBest = total
			}
			if ns := res.Stats.ProcessTime.Nanoseconds(); pp.ProcessNsBest == 0 || ns < pp.ProcessNsBest {
				pp.ProcessNsBest = ns
			}
		}
		rep.Process = append(rep.Process, pp)
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d batch configs, %d process runs, GOMAXPROCS=%d)\n",
		path, len(rep.Batch), len(rep.Process), rep.GoMaxProcs)
	return nil
}

// runCompactionSweep builds a zpack file that is 30% clustered history and
// 70% shuffled append (live ingest at its worst), times the per-z batch over
// it, re-clusters it the way the background compactor would — cluster
// columns picked from the batch's own skip provenance — and times the same
// batch over the new generation.
func runCompactionSweep(rep *perfReport, zvals []string) error {
	const baseRows, tailRows, zCard, xCard, nplans, iters = 30000, 70000, 64, 10, 32, 15
	dir, err := os.MkdirTemp("", "zbench-compact")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "sweep.zpack")
	if err := zpack.Build(path, workload.GroupSweepClustered(baseRows, zCard, xCard, 11)); err != nil {
		return err
	}
	w, err := zpack.OpenAppend(path)
	if err != nil {
		return err
	}
	if err := w.AppendTable(workload.GroupSweep(tailRows, zCard, xCard, 12), nil); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}

	pc := perfCompaction{BaseRows: baseRows, AppendedRows: tailRows}
	r1, err := zpack.Open(path)
	if err != nil {
		return err
	}
	db1 := engine.NewColumnStoreFromSource(r1)
	plans, err := perfBatchPlans(db1, zvals, nplans)
	if err != nil {
		r1.Close()
		return err
	}
	if pc.Appended, err = timeBatch(db1, plans, iters); err != nil {
		r1.Close()
		return err
	}
	pc.Appended.Backend = "zpack"
	// The batch itself generated the skip provenance the compactor picks its
	// cluster columns from — the same evidence loop the server uses.
	prov := db1.Stats(r1.Table().Name).SkipProvenance
	r1.Close()

	start := time.Now()
	res, err := compact.File(path, compact.Options{Provenance: prov})
	if err != nil {
		return err
	}
	pc.CompactNs = time.Since(start).Nanoseconds()
	pc.Cols = res.Cols
	pc.UnsortedBefore = res.UnsortedBefore

	r2, err := zpack.Open(path)
	if err != nil {
		return err
	}
	defer r2.Close()
	if pc.UnsortedAfter, err = compact.Unsorted(r2, res.Cols[0]); err != nil {
		return err
	}
	db2 := engine.NewColumnStoreFromSource(r2)
	if plans, err = perfBatchPlans(db2, zvals, nplans); err != nil {
		return err
	}
	if pc.Compacted, err = timeBatch(db2, plans, iters); err != nil {
		return err
	}
	pc.Compacted.Backend = "zpack"
	rep.Compaction = &pc
	return nil
}
