package zexec

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/compact"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/vis"
	"repro/internal/zpack"
	"repro/internal/zql"
)

// buildZpack serializes a fixture table to a temporary .zpack file.
func buildZpack(t *testing.T, tbl *dataset.Table) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), tbl.Name+".zpack")
	if err := zpack.Build(path, tbl); err != nil {
		t.Fatal(err)
	}
	return path
}

// The golden corpus is the differential oracle for the process-phase
// executor: every script under testdata/zql runs at every optimization level
// (NoOpt is the sequential, unpruned reference), on all three store
// back-ends, and with the worker pool forced on and pruning toggled — and
// every configuration must render byte-identically to the checked-in golden
// file.
//
// Regenerate goldens (from the row-store O0 oracle) after an intentional
// result change:
//
//	go test ./internal/zexec -run TestGoldenCorpus -update

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from the row-store NoOpt oracle")

// goldenCase binds one script to its dataset fixture and user inputs.
type goldenCase struct {
	file   string
	table  func() *dataset.Table
	inputs map[string]*vis.Visualization
}

func drawnInput() map[string]*vis.Visualization {
	return map[string]*vis.Visualization{
		"f1": vis.FromFloats([]float64{0, 1, 2, 3, 4, 5}),
	}
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{file: "similarity_topk.zql", table: fixtureSales, inputs: drawnInput()},
		{file: "dissimilarity_topk.zql", table: fixtureSales, inputs: drawnInput()},
		{file: "representative.zql", table: fixtureSales},
		{file: "outlier_two_level.zql", table: fixtureSales},
		{file: "threshold_rising.zql", table: fixtureSales},
		{file: "threshold_falling.zql", table: fixtureSales},
		{file: "multirow_pipeline.zql", table: fixtureSales},
		{file: "order_all.zql", table: fixtureSales},
		{file: "multi_output.zql", table: fixtureSales, inputs: drawnInput()},
		{file: "axis_loop.zql", table: fixtureSales, inputs: drawnInput()},
		{file: "inner_sum.zql", table: fixtureSales},
		{file: "set_algebra.zql", table: fixtureSales},
		{file: "subset_topk.zql", table: fixtureSales},
		{file: "airline_dissimilar.zql", table: fixtureAirline},
		{file: "airline_rising.zql", table: fixtureAirline},
	}
}

// goldenVariant is one executor configuration of the differential matrix.
type goldenVariant struct {
	name   string
	opts   func(o *Options)
	procs  int  // GOMAXPROCS for the run when > 0: the process worker count
	noPlan bool // pin written conjunct order: the planner-off baseline
	traced bool // run under a live span tree: tracing must not move a byte
}

func goldenVariants() []goldenVariant {
	vars := []goldenVariant{
		{name: "noopt", opts: func(o *Options) { o.Opt = NoOpt }},
		{name: "intraline", opts: func(o *Options) { o.Opt = IntraLine }},
		{name: "intratask", opts: func(o *Options) { o.Opt = IntraTask }},
		{name: "intertask", opts: func(o *Options) { o.Opt = InterTask }},
		// Force the worker pool on even on one core, and exercise the
		// pruned/unpruned pair explicitly.
		{name: "intertask-par4", opts: func(o *Options) { o.Opt = InterTask }, procs: 4},
		{name: "intertask-par4-noprune", opts: func(o *Options) {
			o.Opt = InterTask
			o.ProcessNoPrune = true
		}, procs: 4},
		// The conjunct planner reorders compiled WHERE legs at Prepare time;
		// running the corpus with it switched off must still render the same
		// bytes at both ends of the optimization ladder.
		{name: "noopt-noplan", opts: func(o *Options) { o.Opt = NoOpt }, noPlan: true},
		{name: "intertask-noplan", opts: func(o *Options) { o.Opt = InterTask }, noPlan: true},
		// Tracing threads spans through the whole execution path; it is
		// observation only and must never change a rendered byte.
		{name: "intertask-traced", opts: func(o *Options) { o.Opt = InterTask }, traced: true},
		{name: "noopt-traced", opts: func(o *Options) { o.Opt = NoOpt }, traced: true},
	}
	return vars
}

// encodeResult renders a result deterministically for byte comparison:
// outputs with full point data, then bindings in sorted name order. SQLLog
// is deliberately excluded — the SQL issued differs by design across levels;
// the paper's invariant is that results don't.
func encodeResult(res *Result) string {
	var b strings.Builder
	for i, out := range res.Outputs {
		fmt.Fprintf(&b, "output %d (%d visualizations)\n", i+1, out.Len())
		for _, v := range out.Vis {
			b.WriteString("  ")
			b.WriteString(v.Label())
			if v.VizType != "" {
				b.WriteString(" viz=")
				b.WriteString(v.VizType)
			}
			b.WriteByte('\n')
			b.WriteString("   ")
			for _, p := range v.Points {
				fmt.Fprintf(&b, " (%s, %s)", p.X.String(), strconv.FormatFloat(p.Y, 'g', -1, 64))
			}
			b.WriteByte('\n')
		}
	}
	names := make([]string, 0, len(res.Bindings))
	for n := range res.Bindings {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "bind %s = %s\n", n, strings.Join(res.Bindings[n], ", "))
	}
	return b.String()
}

func runGolden(t *testing.T, src string, db engine.DB, gc goldenCase, mutate func(o *Options)) string {
	return runGoldenCtx(t, src, db, gc, mutate, false)
}

func runGoldenCtx(t *testing.T, src string, db engine.DB, gc goldenCase, mutate func(o *Options), traced bool) string {
	t.Helper()
	q, err := zql.Parse(src)
	if err != nil {
		t.Fatalf("parse %s: %v", gc.file, err)
	}
	opts := Options{Table: gc.table().Name, Seed: 42, Inputs: gc.inputs}
	mutate(&opts)
	ctx := context.Background()
	if traced {
		tr := trace.New("query", "")
		ctx = trace.WithSpan(ctx, tr.Root)
		defer func() {
			tr.Root.End()
			// The tree must actually record execution — a trivially empty
			// trace would make this variant vacuous.
			if tree := tr.Tree(); len(tree.Root.Children) == 0 {
				t.Errorf("traced run of %s produced an empty span tree", gc.file)
			}
		}()
	}
	res, err := RunContext(ctx, q, db, opts)
	if err != nil {
		t.Fatalf("run %s: %v", gc.file, err)
	}
	for _, stmt := range res.SQLLog {
		goldenSQL[stmt] = true
	}
	return encodeResult(res)
}

// goldenSQL collects every SQL statement the corpus issues, at any level on
// any back-end. testdata/golden_corpus.sql is its checked-in copy: package
// engine replays that file against its boxed reference executor (it cannot
// import this package), so a statement missing from the file is a statement
// the engine's differential does not cover.
var goldenSQL = map[string]bool{}

const goldenSQLPath = "testdata/golden_corpus.sql"

func checkGoldenSQL(t *testing.T) {
	stmts := make([]string, 0, len(goldenSQL))
	for stmt := range goldenSQL {
		stmts = append(stmts, stmt)
	}
	sort.Strings(stmts)
	if *updateGolden {
		if err := os.WriteFile(goldenSQLPath, []byte(strings.Join(stmts, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	file, err := os.ReadFile(goldenSQLPath)
	if err != nil {
		t.Fatalf("missing SQL log (run with -update to generate): %v", err)
	}
	have := make(map[string]bool)
	for _, line := range strings.Split(string(file), "\n") {
		have[line] = true
	}
	for _, stmt := range stmts {
		if !have[stmt] {
			t.Errorf("%s lacks a statement the corpus issues (run with -update): %s", goldenSQLPath, stmt)
		}
	}
}

func TestGoldenCorpus(t *testing.T) {
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(strings.TrimSuffix(gc.file, ".zql"), func(t *testing.T) {
			srcBytes, err := os.ReadFile(filepath.Join("testdata", "zql", gc.file))
			if err != nil {
				t.Fatal(err)
			}
			src := string(srcBytes)
			goldenPath := filepath.Join("testdata", "zql", strings.TrimSuffix(gc.file, ".zql")+".golden")
			tbl := gc.table()
			if *updateGolden {
				got := runGolden(t, src, engine.NewRowStore(tbl), gc, func(o *Options) { o.Opt = NoOpt })
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run with -update to generate): %v", err)
			}
			// The zpack backend runs the corpus over a lazily-loaded
			// on-disk build of the same table: the round-trip property
			// test of the persistent format.
			pack, err := zpack.Open(buildZpack(t, tbl))
			if err != nil {
				t.Fatal(err)
			}
			defer pack.Close()
			// The compacted variant re-clusters the same build (z-order on
			// auto-picked columns) before serving it: a physical row reorder
			// must never move a rendered byte. Fixture measures are exact
			// binary floats, so even aggregate sums are order-invariant.
			cpath := buildZpack(t, tbl)
			if _, err := compact.File(cpath, compact.Options{}); err != nil {
				t.Fatal(err)
			}
			cpack, err := zpack.Open(cpath)
			if err != nil {
				t.Fatal(err)
			}
			defer cpack.Close()
			backends := map[string]engine.DB{
				"row":    engine.NewRowStore(tbl),
				"bitmap": engine.NewBitmapStore(tbl),
				"column": engine.NewColumnStore(tbl),
				"zpack":  engine.NewColumnStoreFromSource(pack),
				// Same corpus over the re-clustered generation.
				"zpack-compacted": engine.NewColumnStoreFromSource(cpack),
				// Fragmented variants: 3 deliberately uneven fragments
				// (explicit cuts rather than fixed-size ones) over the
				// in-memory source and the same zpack reader. Scatter-gather
				// must render the corpus byte-identically to the one-fragment
				// scan at every opt level.
				"column-shard3": engine.NewColumnStoreAt(engine.NewMemSource(tbl), unevenCuts(engine.NewMemSource(tbl).NumSegments())...),
				"zpack-shard3":  engine.NewColumnStoreAt(pack, unevenCuts(pack.NumSegments())...),
				// What the server builds for the names "column" and "auto",
				// and the auto store cut into three even fragments.
				"auto":        engine.NewColumnStoreFromSource(engine.NewMemSource(tbl)),
				"auto-shard3": engine.NewColumnStoreAt(engine.NewMemSource(tbl), evenCuts(engine.NewMemSource(tbl).NumSegments())...),
			}
			for _, backend := range []string{"row", "bitmap", "column", "zpack", "zpack-compacted", "column-shard3", "zpack-shard3", "auto", "auto-shard3"} {
				db := backends[backend]
				for _, gv := range goldenVariants() {
					t.Run(backend+"/"+gv.name, func(t *testing.T) {
						if gv.procs > 0 {
							defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gv.procs))
						}
						if gv.noPlan {
							p := db.(engine.Planner)
							p.SetPlanning(false)
							defer p.SetPlanning(true)
						}
						got := runGoldenCtx(t, src, db, gc, gv.opts, gv.traced)
						if got != string(want) {
							t.Errorf("result differs from golden\n--- got ---\n%s\n--- want ---\n%s", clip(got), clip(string(want)))
						}
					})
				}
			}
		})
	}
	checkGoldenSQL(t)
}

// unevenCuts returns two lopsided interior cut points for three fragments:
// the first quarter, then the half, leaving the last fragment twice the size
// of the middle one. On the single-segment fixtures this degenerates to
// [0, 0] — two empty fragments plus one full one — which is exactly the edge
// the gather's identity-merge must handle.
func unevenCuts(nseg int) []int {
	return []int{nseg / 4, nseg / 2}
}

// evenCuts cuts nseg segments into three fragments as equal as integer
// division allows.
func evenCuts(nseg int) []int {
	return []int{nseg / 3, 2 * nseg / 3}
}

// clip keeps failure output readable for big results.
func clip(s string) string {
	const max = 4000
	if len(s) <= max {
		return s
	}
	return s[:max] + "\n... (clipped)"
}
