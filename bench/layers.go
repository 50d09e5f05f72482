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
	"repro/internal/frontend"
	"repro/internal/minisql"
	"repro/internal/server"
	"repro/internal/vis"
	"repro/internal/workload"
	"repro/internal/zexec"
	"repro/internal/zpack"
	"repro/internal/zql"
)

const (
	// The traced pass runs the head of the workload's query list twice, as the
	// server would and then stage by stage: each time at most tracedMax
	// requests, and past tracedMin only while a sixth of the window's length
	// lasts (a staged task_cold request costs three scans of ~0.1 s).
	tracedMax = 200
	tracedMin = 12
)

// span is one timed call into a layer's public functions. Spans live in
// memory until the pass ends; a span's self time is its duration minus its
// children's.
type span struct {
	Name    string `json:"name"`
	Request int    `json:"request"` // index in the workload's list; -1 for once-per-run calls
	Parent  int    `json:"parent"`  // index into the span list; -1 for a root
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) start(name string, parent, request int) int {
	t.spans = append(t.spans, span{Name: name, Request: request, Parent: parent, StartNs: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

// end closes a span and returns its duration in nanoseconds.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id]
	s.EndNs = int64(time.Since(t.t0))
	return float64(s.EndNs - s.StartNs)
}

// durations returns the durations, in nanoseconds, of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs))
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	for i := range t.spans {
		t.spans[i].SelfNs = t.spans[i].EndNs - t.spans[i].StartNs
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].SelfNs -= s.EndNs - s.StartNs
		}
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// allocDelta brackets a call with runtime.MemStats readings.
type allocDelta struct{ m0 runtime.MemStats }

func (a *allocDelta) begin() { runtime.ReadMemStats(&a.m0) }

func (a *allocDelta) end() (bytes, mallocs float64) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc - a.m0.TotalAlloc), float64(m1.Mallocs - a.m0.Mallocs)
}

// largestCollection picks the materialised collection the vis calls run
// over: the one with the most visualizations, by name on a tie.
func largestCollection(res *zexec.Result) []*vis.Visualization {
	names := make([]string, 0, len(res.Collections))
	for name := range res.Collections {
		names = append(names, name)
	}
	sort.Strings(names)
	var best []*vis.Visualization
	for _, name := range names {
		if vs := res.Collections[name].Vis; len(vs) > len(best) {
			best = vs
		}
	}
	return best
}

// tracedPass is the in-process traced run: one goroutine calls each layer's
// public functions over the head of the workload's query list, a span around
// every call. It never overlaps the timed window, and adds nothing to the
// program: spans and counters come from this file's side of each call.
func tracedPass(ctx context.Context, env *benchEnv, w *traffic, orc *oracle, dataPath string, seconds float64, m map[string]float64) error {
	// The engine sizes its scan pool by GOMAXPROCS; give it what the server
	// child had, now that the child is gone.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(env.serverProcs))
	tr := &tracer{t0: time.Now()}
	var mem allocDelta
	t := orc.table
	m["dataset.csv_load_s"] = orc.loadS

	// Once per run: store construction and the zpack life cycle, on a
	// scratch file.
	id := tr.start("engine.NewAutoStore", -1, -1)
	auto := engine.NewAutoStore(env.serverProcs, t)
	m["engine.build_s"] = tr.end(id) / 1e9

	scratch := filepath.Join(env.runDir, "traced.zpack")
	defer os.Remove(scratch)
	id = tr.start("zpack.Build", -1, -1)
	if err := zpack.Build(scratch, t); err != nil {
		return err
	}
	m["zpack.build_s"] = tr.end(id) / 1e9
	st, err := os.Stat(scratch)
	if err != nil {
		return err
	}
	csvBytes := float64(env.csvBytes) * float64(t.NumRows()) / float64(env.rows) // appended rows never were CSV
	m["zpack.bytes_per_csv_byte"] = float64(st.Size()) / csvBytes

	id = tr.start("zpack.Open", -1, -1)
	rd, err := zpack.Open(scratch)
	if err != nil {
		return err
	}
	m["zpack.open_ms"] = tr.end(id) / 1e6
	rd.Close()

	wr, err := zpack.OpenAppend(scratch)
	if err != nil {
		return err
	}
	extra := workload.Sales(salesConfig(5*appendRows, env.seed+2))
	for b := 0; b < 5; b++ {
		rows := make([]dataset.Row, appendRows)
		for i := range rows {
			rows[i] = extra.Row(b*appendRows + i)
		}
		id = tr.start("zpack.Writer.Append+Flush", -1, -1)
		if err := wr.Append(rows); err != nil {
			return err
		}
		if err := wr.Flush(); err != nil {
			return err
		}
		tr.end(id)
	}
	if err := wr.Close(); err != nil {
		return err
	}
	m["zpack.append_flush_ms"] = median(tr.durations("zpack.Writer.Append+Flush")) / 1e6

	id = tr.start("compact.File", -1, -1)
	if _, err := compact.File(scratch, compact.Options{Cols: []string{"product"}}); err != nil {
		return err
	}
	m["compact.file_s"] = tr.end(id) / 1e9
	if rd, err = zpack.Open(scratch); err != nil {
		return err
	}
	unsorted, err := compact.Unsorted(rd, "product")
	rd.Close()
	if err != nil {
		return err
	}
	m["compact.unsorted_segments_after"] = float64(unsorted)

	// The stores the requests run over: the serving stack as zserved
	// assembles it (cache, coalescer, session) and a bare store of the same
	// kind for the staged calls.
	cfg := server.Config{Backend: "auto", Seed: serverSeed, CacheEntries: cacheEntries, Shards: env.serverProcs}
	reg := server.NewRegistry()
	var (
		ds     *server.Dataset
		bare   engine.DB     = auto
		served *zpack.Reader // nil over CSV
	)
	if w.zpack {
		cfg.Backend = "column"
		if ds, err = reg.AddZpack(datasetName, dataPath, cfg); err != nil {
			return err
		}
		if served, err = zpack.Open(dataPath); err != nil {
			return err
		}
		defer served.Close()
		bare = engine.NewColumnStoreFromSource(served)
		if env.serverProcs > 1 {
			bare = engine.NewShardedStoreFromSource(env.serverProcs, served)
		}
	} else if ds, err = reg.AddTable(t, cfg); err != nil {
		return err
	}
	sess := ds.Session()

	// head calls fn on the leading queries of the list until the budget rule
	// stops it, and returns how many it ran.
	head := func(fn func(i int, spec frontend.Spec) error) (float64, error) {
		n, t0 := 0, time.Now()
		budget := time.Duration(seconds / 6 * float64(time.Second))
		for i := range w.ops {
			if w.ops[i].isAdd {
				continue
			}
			if n >= tracedMax || (n >= tracedMin && time.Since(t0) > budget) {
				break
			}
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			if err := fn(i, w.ops[i].spec); err != nil {
				return 0, err
			}
			n++
		}
		return float64(n), nil
	}

	// First the request as the server handles it, minus HTTP, after the same
	// warm-up the server got.
	var encAlloc []float64
	request := func(i int, spec frontend.Spec) error {
		root := tr.start("client.request", -1, i)
		id := tr.start("frontend.Spec.ToZQL", root, i)
		text, inputs, err := spec.ToZQL()
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.start("client.Session.QueryContext", root, i)
		res, err := sess.QueryContext(ctx, text, inputs, zexec.InterTask)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.start("server.EncodeResult+json.Marshal", root, i)
		mem.begin()
		_, err = json.Marshal(server.EncodeResult(res))
		b, _ := mem.end()
		tr.end(id)
		tr.end(root)
		encAlloc = append(encAlloc, b)
		return err
	}
	for i := 0; i < w.warmup; i++ {
		o := &w.ops[i%len(w.ops)]
		if o.isAdd {
			continue
		}
		text, inputs, err := o.spec.ToZQL()
		if err != nil {
			return err
		}
		if _, err := sess.QueryContext(ctx, text, inputs, zexec.InterTask); err != nil {
			return err
		}
	}
	if _, err := head(request); err != nil {
		return err
	}

	// Then the same requests stage by stage over the bare store.
	var (
		runAlloc, runMallocs, engAlloc     []float64
		stmts, distCalls, skipped, scanned float64
		runNs, planNs, queryNs, processNs  float64
		loads0                             int64
	)
	if served != nil {
		loads0 = served.SegmentLoads()
	}
	replayed, err := head(func(i int, spec frontend.Spec) error {
		text, inputs, err := spec.ToZQL()
		if err != nil {
			return err
		}
		root := tr.start("bench.replay", -1, i)
		id := tr.start("zql.Parse", root, i)
		q, err := zql.Parse(text)
		tr.end(id)
		if err != nil {
			return err
		}
		opts := zexec.Options{Table: datasetName, Opt: zexec.InterTask, Seed: serverSeed, PlanOnly: true}
		if len(inputs) > 0 {
			opts.Inputs = map[string]*vis.Visualization{}
			for name, ys := range inputs {
				opts.Inputs[name] = vis.FromFloats(ys)
			}
		}
		id = tr.start("zexec.RunContext(PlanOnly)", root, i)
		_, err = zexec.RunContext(ctx, q, bare, opts)
		planNs += tr.end(id)
		if err != nil {
			return err
		}
		if q, err = zql.Parse(text); err != nil { // a fresh AST for the full run
			return err
		}
		opts.PlanOnly = false
		id = tr.start("zexec.RunContext", root, i)
		mem.begin()
		run, err := zexec.RunContext(ctx, q, bare, opts)
		b, n := mem.end()
		runNs += tr.end(id)
		if err != nil {
			return err
		}
		runAlloc, runMallocs = append(runAlloc, b), append(runMallocs, n)
		queryNs += float64(run.Stats.QueryTime)
		processNs += float64(run.Stats.ProcessTime)

		plans := make([]*engine.Plan, len(run.SQLLog))
		for j, stmt := range run.SQLLog {
			id = tr.start("minisql.Parse", root, i)
			mq, err := minisql.Parse(stmt)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("replaying SQLLog: %w", err)
			}
			id = tr.start("engine.DB.Prepare", root, i)
			plans[j], err = bare.Prepare(mq)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("replaying SQLLog: %w", err)
			}
		}
		stmts += float64(len(plans))
		c0 := bare.Counters()
		id = tr.start("engine.DB.ExecuteBatch", root, i)
		mem.begin()
		_, err = bare.ExecuteBatch(ctx, plans)
		b, _ = mem.end()
		tr.end(id)
		if err != nil {
			return fmt.Errorf("replaying SQLLog: %w", err)
		}
		engAlloc = append(engAlloc, b)
		c1 := bare.Counters()
		skipped += float64(c1.SegmentsSkipped - c0.SegmentsSkipped)
		scanned += float64(c1.SegmentsScanned - c0.SegmentsScanned)

		if vs := largestCollection(run); len(vs) >= 2 {
			id = tr.start("vis.Distance", root, i)
			for _, v := range vs[1:] {
				vis.Distance(vs[0], v, vis.DefaultMetric)
			}
			tr.end(id)
			distCalls += float64(len(vs) - 1)
			id = tr.start("vis.Representative", root, i)
			vis.Representative(vs, 10, vis.DefaultMetric, serverSeed)
			tr.end(id)
			id = tr.start("vis.Outliers", root, i)
			vis.Outliers(vs, 10, vis.DefaultMetric, serverSeed)
			tr.end(id)
		}
		tr.end(root)
		return nil
	})
	if err != nil {
		return err
	}

	p50 := func(name string) float64 { return median(tr.durations(name)) }
	mean := func(xs []float64) float64 { return sum(xs) / float64(len(xs)) }
	m["frontend.to_zql_us"] = p50("frontend.Spec.ToZQL") / 1e3
	m["zql.parse_us"] = p50("zql.Parse") / 1e3
	m["zexec.plan_ms"] = p50("zexec.RunContext(PlanOnly)") / 1e6
	m["zexec.run_ms"] = p50("zexec.RunContext") / 1e6
	m["zexec.alloc_kb_per_req"] = mean(runAlloc) / 1000
	m["zexec.allocs_per_req"] = mean(runMallocs)
	m["minisql.parse_us_per_stmt"] = ratio(sum(tr.durations("minisql.Parse")), stmts) / 1e3
	m["engine.prepare_us_per_plan"] = ratio(sum(tr.durations("engine.DB.Prepare")), stmts) / 1e3
	m["engine.execute_ms"] = p50("engine.DB.ExecuteBatch") / 1e6
	m["engine.alloc_kb_per_req"] = mean(engAlloc) / 1000
	m["engine.skip_ratio"] = ratio(skipped, skipped+scanned)
	m["zpack.segment_loads_per_req"] = 0
	if served != nil {
		m["zpack.segment_loads_per_req"] = float64(served.SegmentLoads()-loads0) / replayed
	}
	m["vis.distance_ns_per_call"] = ratio(sum(tr.durations("vis.Distance")), distCalls)
	m["vis.representative_ms"] = p50("vis.Representative") / 1e6
	m["vis.outliers_ms"] = p50("vis.Outliers") / 1e6
	m["server.encode_ms"] = p50("server.EncodeResult+json.Marshal") / 1e6
	m["server.encode_alloc_kb_per_req"] = mean(encAlloc) / 1000
	m["client.session_query_ms"] = p50("client.request") / 1e6
	// What of a bare run no staged call covers: resolution, SQL generation
	// and materialisation inside zexec.
	m["bench.unattributed_pct"] = 100 * (runNs - planNs - queryNs - processNs) / runNs
	return tr.write(filepath.Join(env.root, outDir, "trace-"+w.name+".json"))
}
