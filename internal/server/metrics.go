package server

import (
	"net/http"
	"reflect"
	rtmetrics "runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obsv"
	"repro/internal/trace"
)

// metrics is the server's Prometheus-format instrumentation (GET /metrics),
// built on the dependency-free internal/obsv library. Three kinds of series
// coexist:
//
//   - request-path instruments (the http vec, the latency histogram) updated
//     inline as requests are served;
//   - per-dataset series, one per tagged field of DatasetStats and the
//     structs nested in it, emitted from the snapshot /stats serves, so
//     /metrics and /stats can never disagree;
//   - the Go runtime's own collector figures (zen_go_*), read from
//     runtime/metrics once per scrape.
//
// Every series carries the zen_ prefix; per-dataset series carry a dataset
// label, so one scrape covers the whole registry.
type metrics struct {
	obsv *obsv.Registry

	// scrape serializes renders, so every zen_go_ series of one render comes
	// from the one runtime/metrics read into rt, and every per-dataset series
	// from the one snapshot per dataset in ds, that the render starts with.
	scrape sync.Mutex
	rt     []rtmetrics.Sample
	reg    *Registry
	ds     []datasetSnap

	// requests counts finished HTTP requests by endpoint and status code.
	requests *obsv.CounterVec
	// latency observes query execution seconds by endpoint and effective
	// optimization level.
	latency *obsv.HistogramVec
	// stages observes per-stage seconds, fed from the same span trees that
	// back EXPLAIN ANALYZE and the slow-query log — so a histogram spike and
	// a slow-log entry always tell the same story. Span names are a small
	// fixed set, keeping label cardinality bounded.
	stages *obsv.HistogramVec
}

// datasetSnap is one dataset's figures as a scrape reads them.
type datasetSnap struct {
	name  string
	stats reflect.Value // a DatasetStats
}

// newMetrics builds the registry's metric families over reg. reg's dataset
// list is consulted at scrape time, so datasets registered (or swapped by an
// append) after startup are covered automatically.
func newMetrics(reg *Registry) *metrics {
	o := obsv.NewRegistry()
	m := &metrics{
		obsv: o,
		reg:  reg,
		requests: o.NewCounterVec("zen_http_requests_total",
			"HTTP requests finished, by endpoint and status code.",
			[]string{"endpoint", "code"}),
		latency: o.NewHistogramVec("zen_query_duration_seconds",
			"ZQL execution latency by endpoint and optimization level.",
			[]string{"endpoint", "opt"}, nil),
		stages: o.NewHistogramVec("zen_stage_duration_seconds",
			"Per-stage request time from span trees (queue.wait, prepare, scan, process, ...).",
			[]string{"stage"}, nil),
	}
	o.NewCollector("zen_build_info",
		"Build metadata; the value is always 1.", "gauge",
		func(emit func(obsv.Sample)) {
			emit(obsv.Sample{Labels: []obsv.Label{
				{Key: "version", Value: Version()},
				{Key: "go_version", Value: GoVersion()},
			}, Value: 1})
		})
	o.NewGaugeFunc("zen_ready",
		"1 when the registry passes readiness (/readyz), else 0.",
		func() float64 {
			if reg.Ready() {
				return 1
			}
			return 0
		})
	for _, f := range datasetSeries(reflect.TypeFor[DatasetStats](), nil) {
		o.NewCollector(f.name, f.help, f.typ, func(emit func(obsv.Sample)) {
			for _, ds := range m.ds {
				f.collect(ds, emit)
			}
		})
	}
	for i, g := range []struct{ name, help, typ, sample string }{
		{"zen_go_gc_percent", "GC percent in force (the process's GOGC; -1 = off).", "gauge", "/gc/gogc:percent"},
		{"zen_go_heap_live_bytes", "Heap bytes the last GC cycle marked live.", "gauge", "/gc/heap/live:bytes"},
		{"zen_go_heap_allocs_bytes_total", "Heap bytes allocated since the process started.", "counter", "/gc/heap/allocs:bytes"},
		{"zen_go_heap_allocs_objects_total", "Heap objects allocated since the process started.", "counter", "/gc/heap/allocs:objects"},
		{"zen_go_gc_cycles_total", "Completed GC cycles.", "counter", "/gc/cycles/total:gc-cycles"},
		{"zen_go_gc_cpu_seconds_total", "CPU seconds the collector has spent.", "counter", "/cpu/classes/gc/total:cpu-seconds"},
	} {
		m.rt = append(m.rt, rtmetrics.Sample{Name: g.sample})
		o.NewCollector(g.name, g.help, g.typ, func(emit func(obsv.Sample)) {
			switch v := m.rt[i].Value; v.Kind() {
			case rtmetrics.KindUint64:
				// Signed: the GC percent reads as the runtime's int32, -1 when off.
				emit(obsv.Sample{Value: float64(int64(v.Uint64()))})
			case rtmetrics.KindFloat64:
				emit(obsv.Sample{Value: v.Float64()})
			}
		})
	}
	return m
}

// statSeries is one per-dataset family, declared by a tagged field of
// DatasetStats or of a struct nested in it (see DatasetStats).
type statSeries struct {
	name, help, typ string
	index           []int   // the field, from DatasetStats
	div             float64 // 1e3 for a field in ms served in seconds, else 1
}

// datasetSeries walks t, DatasetStats or a struct nested in it at index,
// and returns the series its tagged fields declare, in field order.
func datasetSeries(t reflect.Type, index []int) []statSeries {
	var out []statSeries
	for i := range t.NumField() {
		f := t.Field(i)
		at := append(slices.Clip(index), i)
		if tag, ok := f.Tag.Lookup("metric"); ok {
			name, typ, _ := strings.Cut(tag, ",")
			typ, unit, _ := strings.Cut(typ, ",")
			div := 1.0
			if unit == "ms" {
				div = 1e3
			}
			out = append(out, statSeries{name, f.Tag.Get("help"), typ, at, div})
			continue
		}
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct {
			out = append(out, datasetSeries(ft, at)...)
		}
	}
	return out
}

// collect emits the series' samples for one dataset's snapshot: none when
// a nil pointer lies on the way to the field, one per element of a slice.
func (f statSeries) collect(ds datasetSnap, emit func(obsv.Sample)) {
	v, err := ds.stats.FieldByIndexErr(f.index)
	if err != nil {
		return
	}
	base := obsv.Label{Key: "dataset", Value: ds.name}
	if v.Kind() != reflect.Slice {
		emit(obsv.Sample{Labels: []obsv.Label{base}, Value: float64(v.Int()) / f.div})
		return
	}
	for i := range v.Len() {
		e := v.Index(i)
		s := obsv.Sample{Labels: []obsv.Label{base}}
		for j := range e.NumField() {
			if key, ok := e.Type().Field(j).Tag.Lookup("label"); ok {
				s.Labels = append(s.Labels, obsv.Label{Key: key, Value: e.Field(j).String()})
			} else {
				s.Value = float64(e.Field(j).Int()) / f.div
			}
		}
		emit(s)
	}
}

// ServeHTTP renders the exposition after reading the runtime's figures and
// taking one snapshot of each dataset's.
func (m *metrics) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m.scrape.Lock()
	defer m.scrape.Unlock()
	rtmetrics.Read(m.rt)
	for _, d := range m.reg.List() {
		m.ds = append(m.ds, datasetSnap{d.Name(), reflect.ValueOf(d.Stats())})
	}
	m.obsv.ServeHTTP(w, r)
	m.ds = nil // hold no dataset past its scrape
}

// observeRequest records one finished HTTP request.
func (m *metrics) observeRequest(endpoint string, code int) {
	m.requests.With(endpoint, strconv.Itoa(code)).Inc()
}

// observeQuery records one ZQL execution's wall time.
func (m *metrics) observeQuery(endpoint, opt string, seconds float64) {
	m.latency.With(endpoint, opt).Observe(seconds)
}

// observeStages feeds the stage histogram from a finished request's span
// tree. Each span (including the root "request") contributes one observation
// under its name; names are a small fixed vocabulary, so cardinality stays
// bounded no matter what queries run.
func (m *metrics) observeStages(tree *trace.Tree) {
	if tree == nil || tree.Root == nil {
		return
	}
	trace.Walk(tree.Root, func(n *trace.Node) {
		m.stages.With(n.Name).Observe(float64(n.DurUs) / 1e6)
	})
}
