package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/frontend"
	"repro/internal/server"
	"repro/internal/workload"
)

const (
	datasetName = "sales"
	appendRows  = 256 // rows per POST /append
	// appendBatches bounds the distinct append bodies generated up front; a
	// window that outlasts them sends them again, which a sales table allows.
	appendBatches = 400
	queriesPerAdd = 4
	// Dataset shape: the seed only changes the rows drawn, never the domains,
	// so every seed gives the same number of slices, years and segments.
	salesProducts = 500
	salesYears    = 20
	salesCities   = 50
	firstYear     = 2006
)

func salesConfig(rows int, seed int64) workload.SalesConfig {
	return workload.SalesConfig{Rows: rows, Products: salesProducts, Years: salesYears, Cities: salesCities, Seed: seed}
}

// op is one operation of a workload's list: a /spec query or an append.
type op struct {
	path  string
	body  []byte
	spec  frontend.Spec // queries only: the same request for the in-process oracle and traced pass
	batch int           // appends only: index into traffic.batches
	isAdd bool
}

// traffic is one workload: a fixed, seeded operation list walked cyclically by one client.
type traffic struct {
	name string
	// zpack workloads serve a file the program's own `zpack build` wrote;
	// compacted ones also run `zpack compact -cols product` during set-up.
	zpack, compacted bool
	warmup           int
	ops              []op
	oracle           []int           // indices into ops checked against the in-process oracle
	batches          [][]dataset.Row // ingest_mix: rows of each append body
}

func specOp(s frontend.Spec) op {
	sj := server.SpecJSON{X: s.X, Y: s.Y, Z: s.Z, Task: s.Task.String(), K: s.K, Drawn: s.Drawn}
	for _, f := range s.Filters {
		sj.Filters = append(sj.Filters, server.FilterJSON{Attr: f.Attr, Op: f.Op, Value: f.Value})
	}
	body, err := json.Marshal(server.SpecRequest{Dataset: datasetName, Spec: sj})
	if err != nil {
		panic(err) // plain structs of strings and finite floats
	}
	return op{path: "/spec", body: body, spec: s}
}

// drawnTrend is the sketched polyline of the similarity tasks: a rising line
// with seeded jitter, one point per year.
func drawnTrend(rng *rand.Rand) []float64 {
	ys := make([]float64, salesYears)
	for i := range ys {
		ys[i] = float64(i) + rng.Float64()
	}
	return ys
}

var processTasks = []frontend.TaskKind{
	frontend.TaskSimilarity, frontend.TaskDissimilarity, frontend.TaskRepresentative,
	frontend.TaskOutlier, frontend.TaskRisingTrends,
}

func taskSpec(task frontend.TaskKind, y string, drawn []float64, filters ...frontend.Filter) frontend.Spec {
	s := frontend.Spec{X: "year", Y: y, Z: "product", Task: task, K: 10, Filters: filters}
	if task == frontend.TaskSimilarity || task == frontend.TaskDissimilarity {
		s.Drawn = drawn
	}
	return s
}

// drillOps are selective drill-downs: one category, a year range, one
// measure. 10 categories x 210 ranges x 2 measures = 4200 distinct requests,
// shuffled by the seed and cut to n.
func drillOps(rng *rand.Rand, n int) []op {
	var ops []op
	for c := 0; c < 10; c++ {
		for lo := 0; lo < salesYears; lo++ {
			for hi := lo; hi < salesYears; hi++ {
				for _, y := range []string{"revenue", "profit"} {
					ops = append(ops, specOp(frontend.Spec{X: "year", Y: y, Z: "product", Filters: []frontend.Filter{
						{Attr: "category", Op: "=", Value: "category" + strconv.Itoa(c)},
						{Attr: "year", Op: ">=", Value: strconv.Itoa(firstYear + lo)},
						{Attr: "year", Op: "<=", Value: strconv.Itoa(firstYear + hi)},
					}}))
				}
			}
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops[:n]
}

// appendBody renders rows as POST /append cells in schema order. Numeric
// cells are written as the CSV wrote them, so integral floats reach the
// int-sniffed columns (size, weight) as integers.
func appendBody(rows []dataset.Row) []byte {
	cells := make([][]json.RawMessage, len(rows))
	for i, row := range rows {
		cells[i] = make([]json.RawMessage, len(row))
		for j, v := range row {
			if v.Kind == dataset.KindString {
				cells[i][j] = json.RawMessage(strconv.Quote(v.S))
			} else {
				cells[i][j] = json.RawMessage(v.String())
			}
		}
	}
	body, err := json.Marshal(map[string]any{"rows": cells})
	if err != nil {
		panic(err)
	}
	return body
}

func firstN(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func newWorkload(name string, seed int64) (*traffic, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &traffic{name: name}
	switch name {
	case "explore_hot":
		drawn := drawnTrend(rng)
		tasks := append([]frontend.TaskKind{frontend.TaskNone}, processTasks...)
		for _, task := range tasks {
			for _, y := range []string{"revenue", "profit"} {
				w.ops = append(w.ops, specOp(taskSpec(task, y, drawn)))
			}
		}
		rng.Shuffle(len(w.ops), func(i, j int) { w.ops[i], w.ops[j] = w.ops[j], w.ops[i] })
		w.warmup = 2 * len(w.ops) // one cold pass fills the cache, one hot pass
		w.oracle = firstN(len(w.ops))
	case "task_cold":
		// weight >= a for a in [0,80) and size < b for b in (50,100]: 4000
		// distinct pairs keeping 30-100 % of the rows, so each request is a
		// full scan whose answer still has every product.
		drawn := drawnTrend(rng)
		pairs := rng.Perm(4000)
		for i, p := range pairs {
			w.ops = append(w.ops, specOp(taskSpec(processTasks[i%len(processTasks)], "revenue", drawn,
				frontend.Filter{Attr: "weight", Op: ">=", Value: strconv.Itoa(p % 80)},
				frontend.Filter{Attr: "size", Op: "<", Value: strconv.Itoa(51 + p/80)})))
		}
		w.warmup = 2 * len(processTasks)
		w.oracle = firstN(len(processTasks))
	case "drill_zpack":
		w.zpack, w.compacted = true, true
		w.ops = drillOps(rng, 4000)
		w.warmup = 24
		w.oracle = firstN(4)
	case "ingest_mix":
		w.zpack = true
		extra := workload.Sales(salesConfig(appendRows*appendBatches, seed+1))
		queries := drillOps(rng, queriesPerAdd*appendBatches)
		for b := 0; b < appendBatches; b++ {
			rows := make([]dataset.Row, appendRows)
			for i := range rows {
				rows[i] = extra.Row(b*appendRows + i)
			}
			w.batches = append(w.batches, rows)
			w.ops = append(w.ops, op{path: "/datasets/" + datasetName + "/append", body: appendBody(rows), batch: b, isAdd: true})
			w.ops = append(w.ops, queries[b*queriesPerAdd:(b+1)*queriesPerAdd]...)
		}
		w.warmup = 5 * (1 + queriesPerAdd)
		w.oracle = []int{1, 2, 3, 4}
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return w, nil
}
