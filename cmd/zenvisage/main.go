// Command zenvisage runs ZQL queries over CSV files or the built-in demo
// datasets and renders the resulting visualizations as ASCII charts — the
// command-line analog of the paper's web front-end.
//
// Usage:
//
//	zenvisage -demo sales -query query.zql
//	zenvisage -data mydata.csv -table mytable -query - < query.zql
//	zenvisage -demo housing -recommend year:SoldPrice:state
//
// The ZQL syntax is the paper's tables rendered in ASCII; see the package
// documentation of internal/zql and the examples/ directory.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"strconv"
	"strings"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/frontend"
	"repro/internal/recommend"
	"repro/internal/render"
	"repro/internal/trace"
	"repro/internal/vis"
	"repro/internal/workload"
	"repro/internal/zexec"
	"repro/internal/zql"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("zenvisage: ")
	var (
		dataPath  = flag.String("data", "", "CSV file to load")
		tableName = flag.String("table", "data", "table name for -data")
		demo      = flag.String("demo", "", "built-in demo dataset: sales, airline, census, housing")
		queryPath = flag.String("query", "", "ZQL query file ('-' for stdin)")
		backend   = flag.String("backend", "row", "storage back-end: row, bitmap, column, or auto (another name for column)")
		optLevel  = flag.String("opt", "intertask", "optimization level: noopt, intraline, intratask, intertask (or o0..o3)")
		metric    = flag.String("metric", "euclidean", "distance metric D: euclidean, dtw, kl, emd (raw- prefix skips normalization)")
		recFlag   = flag.String("recommend", "", "recommendation request x:y:z instead of a query")
		taskFlag  = flag.String("task", "", "drag-and-drop task button: similar, dissimilar, representative, outliers, rising, falling")
		xFlag     = flag.String("x", "", "x-axis attribute for -task")
		yFlag     = flag.String("y", "", "y-axis attribute for -task")
		zFlag     = flag.String("z", "", "category (z-axis) attribute for -task")
		drawFlag  = flag.String("draw", "", "drawn trend for -task similar/dissimilar, comma-separated y values")
		kFlag     = flag.Int("k", 5, "top-k for -task")
		maxCharts = flag.Int("charts", 8, "maximum charts rendered per output collection")
		seed      = flag.Int64("seed", 42, "seed for R (k-means) determinism")
		pworkers  = flag.Int("process-workers", 0, "process-phase worker goroutines (0 = auto: sequential at -opt noopt, GOMAXPROCS otherwise)")
		noPrune   = flag.Bool("no-prune", false, "disable top-k pruning in the process phase (results are identical either way)")
		showStats = flag.Bool("stats", true, "print execution statistics")
		explain   = flag.String("explain", "", "print the query's span tree: 'plan' (plan only, no execution) or 'analyze' (execute, then show stage timings)")
	)
	flag.Parse()

	tbl, err := loadTable(*dataPath, *tableName, *demo)
	if err != nil {
		log.Fatal(err)
	}
	db, err := newStore(*backend, tbl)
	if err != nil {
		log.Fatal(err)
	}
	m, err := vis.MetricByName(*metric)
	if err != nil {
		log.Fatal(err)
	}

	if *recFlag != "" {
		if err := runRecommend(db, tbl.Name, *recFlag, m, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}

	var src string
	var inputs map[string]*vis.Visualization
	switch {
	case *taskFlag != "":
		var err error
		src, inputs, err = buildTaskQuery(*taskFlag, *xFlag, *yFlag, *zFlag, *drawFlag, *kFlag)
		if err != nil {
			log.Fatal(err)
		}
	case *queryPath != "":
		var err error
		src, err = readQuery(*queryPath)
		if err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatal("provide -query FILE (or '-' for stdin), -task NAME, or -recommend x:y:z")
	}
	q, err := zql.Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	opt, err := zexec.OptLevelByName(*optLevel)
	if err != nil {
		log.Fatal(err)
	}
	if *explain != "" && *explain != "plan" && *explain != "analyze" {
		log.Fatalf("bad -explain %q (want plan or analyze)", *explain)
	}
	ctx := context.Background()
	var tr *trace.Trace
	if *explain != "" {
		tr = trace.New("query", "")
		ctx = trace.WithSpan(ctx, tr.Root)
	}
	res, err := zexec.RunContext(ctx, q, db, zexec.Options{
		Table:              tbl.Name,
		Opt:                opt,
		Metric:             m,
		Seed:               *seed,
		Inputs:             inputs,
		ProcessParallelism: *pworkers,
		ProcessNoPrune:     *noPrune,
		PlanOnly:           *explain == "plan",
	})
	if err != nil {
		log.Fatal(err)
	}
	if tr != nil {
		tr.Root.End()
		fmt.Print(tr.Tree().Render())
		if *explain == "plan" {
			return // plan only: no results to draw
		}
		fmt.Println()
	}
	for i, out := range res.Outputs {
		fmt.Printf("== output %d: %d visualization(s) ==\n", i+1, out.Len())
		n := out.Len()
		if n > *maxCharts {
			n = *maxCharts
		}
		fmt.Print(render.Gallery(out.Vis[:n], render.Config{}))
		if out.Len() > n {
			fmt.Printf("... and %d more (raise -charts to see them)\n", out.Len()-n)
		}
	}
	if *showStats {
		fmt.Printf("\nstats: %d SQL queries in %d requests; %d rows scanned; query time %v, process time %v\n",
			res.Stats.SQLQueries, res.Stats.Requests, res.Stats.RowsScanned, res.Stats.QueryTime, res.Stats.ProcessTime)
		if res.Stats.SegmentsSkipped > 0 {
			fmt.Printf("zone maps: %d segments skipped\n", res.Stats.SegmentsSkipped)
		}
		p := res.Stats.Process
		fmt.Printf("process: %d tuples scored; %d distance calls, %d abandoned by pruning\n",
			p.Tuples, p.DistCalls, p.DistAbandoned)
	}
}

func loadTable(dataPath, tableName, demo string) (*dataset.Table, error) {
	switch {
	case dataPath != "" && demo != "":
		return nil, fmt.Errorf("use either -data or -demo, not both")
	case dataPath != "":
		return dataset.ReadCSVFile(tableName, dataPath)
	case demo == "sales":
		return workload.Sales(workload.SalesConfig{Rows: 50000, Products: 24, Years: 10, Cities: 10, Seed: 1}), nil
	case demo == "airline":
		return workload.Airline(workload.AirlineConfig{Rows: 50000, Airports: 20, Years: 10, Seed: 2}), nil
	case demo == "census":
		return workload.Census(workload.CensusConfig{Rows: 50000, Seed: 3}), nil
	case demo == "housing":
		return workload.Housing(workload.HousingConfig{Cities: 100, States: 10, Years: 12, Seed: 4}), nil
	case demo != "":
		return nil, fmt.Errorf("unknown -demo %q (want sales, airline, census, or housing)", demo)
	default:
		return nil, fmt.Errorf("provide -data FILE or -demo NAME")
	}
}

// newStore builds the store a -backend name selects: the row store (the
// paper's PostgreSQL stand-in), the roaring-bitmap store (its RoaringDB), or
// the column executor zserved serves, which "auto" names too. This is the one
// place the row and bitmap names resolve; the server serves only the column
// executor.
func newStore(backend string, t *dataset.Table) (engine.DB, error) {
	switch backend {
	case "row":
		return engine.NewRowStore(t), nil
	case "bitmap":
		return engine.NewBitmapStore(t), nil
	case "column", "auto":
		return engine.NewColumnStore(t), nil
	}
	return nil, fmt.Errorf("unknown -backend %q (want row, bitmap, column, or auto)", backend)
}

func readQuery(path string) (string, error) {
	if path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

func runRecommend(db engine.DB, table, spec string, m vis.Metric, seed int64) error {
	var x, y, z string
	if n, err := fmt.Sscanf(spec, "%s", &spec); n != 1 || err != nil {
		return fmt.Errorf("bad -recommend spec")
	}
	parts := splitColon(spec)
	if len(parts) != 3 {
		return fmt.Errorf("-recommend wants x:y:z, got %q", spec)
	}
	x, y, z = parts[0], parts[1], parts[2]
	recs, err := recommend.Diverse(db, recommend.Request{Table: table, X: x, Y: y, Z: z, Seed: seed}, m)
	if err != nil {
		return err
	}
	fmt.Printf("== %d recommended (most diverse) trends for %s vs %s by %s ==\n", len(recs), y, x, z)
	for _, r := range recs {
		fmt.Printf("[cluster of %d]\n%s", r.ClusterSize, render.Chart(r.Vis, render.Config{}))
	}
	return nil
}

// buildTaskQuery translates the CLI's task flags through the drag-and-drop
// front-end logic into ZQL.
func buildTaskQuery(task, x, y, z, draw string, k int) (string, map[string]*vis.Visualization, error) {
	kind, err := frontend.TaskByName(task)
	if err != nil {
		return "", nil, err
	}
	spec := frontend.Spec{X: x, Y: y, Z: z, K: k, Task: kind}
	if draw != "" {
		for _, part := range strings.Split(draw, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return "", nil, fmt.Errorf("bad -draw value %q", part)
			}
			spec.Drawn = append(spec.Drawn, f)
		}
	}
	src, raw, err := spec.ToZQL()
	if err != nil {
		return "", nil, err
	}
	var inputs map[string]*vis.Visualization
	if raw != nil {
		inputs = make(map[string]*vis.Visualization, len(raw))
		for name, ys := range raw {
			inputs[name] = vis.FromFloats(ys)
		}
	}
	return src, inputs, nil
}

func splitColon(s string) []string {
	var parts []string
	cur := ""
	for _, r := range s {
		if r == ':' {
			parts = append(parts, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	return append(parts, cur)
}
