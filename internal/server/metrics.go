package server

import (
	"net/http"
	rtmetrics "runtime/metrics"
	"strconv"
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
//   - scrape-time collectors that read the per-dataset counters the serving
//     stack already keeps (store counters, cache stats, coalescer stats, skip
//     provenance), so /metrics and /stats can never disagree;
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
	d *Dataset
	s DatasetStats
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
	perDataset := func(name, help, typ string, fn func(d *Dataset, s DatasetStats, emit func(v float64, labels ...obsv.Label))) {
		o.NewCollector(name, help, typ, func(emit func(obsv.Sample)) {
			for _, ds := range m.ds {
				base := obsv.Label{Key: "dataset", Value: ds.d.Name()}
				fn(ds.d, ds.s, func(v float64, labels ...obsv.Label) {
					emit(obsv.Sample{Labels: append([]obsv.Label{base}, labels...), Value: v})
				})
			}
		})
	}
	perDataset("zen_dataset_table_bytes",
		"Memory the dataset's column arrays (off the Go heap) and dictionaries (on it) hold (dataset.Table.SizeBytes).", "gauge",
		func(d *Dataset, _ DatasetStats, emit func(float64, ...obsv.Label)) {
			emit(float64(d.Table().SizeBytes()))
		})
	perDataset("zen_dataset_resident_bytes",
		"Memory the dataset's loaded column data holds: the blocks in place now, at memory width.", "gauge",
		func(d *Dataset, _ DatasetStats, emit func(float64, ...obsv.Label)) {
			emit(float64(d.ResidentBytes()))
		})
	perDataset("zen_rows_scanned_total",
		"Rows the store scanned (cache hits scan nothing).", "counter",
		func(_ *Dataset, s DatasetStats, emit func(float64, ...obsv.Label)) {
			emit(float64(s.RowsScanned))
		})
	perDataset("zen_segments_scanned_total",
		"Zone-map segments the column store visited.", "counter",
		func(_ *Dataset, s DatasetStats, emit func(float64, ...obsv.Label)) {
			emit(float64(s.SegmentsScanned))
		})
	perDataset("zen_segments_skipped_total",
		"Zone-map segments proved empty and never scanned.", "counter",
		func(_ *Dataset, s DatasetStats, emit func(float64, ...obsv.Label)) {
			emit(float64(s.SegmentsSkipped))
		})
	perDataset("zen_segments_loaded_total",
		"Distinct segments each snapshot of the dataset materialized, summed (zpack: read from disk).", "counter",
		func(_ *Dataset, s DatasetStats, emit func(float64, ...obsv.Label)) {
			emit(float64(s.SegmentLoads))
		})
	perDataset("zen_blocks_released_total",
		"Blocks in place in the snapshots idle sweeps released (zpack), read again by the next scan that needs them.", "counter",
		func(_ *Dataset, s DatasetStats, emit func(float64, ...obsv.Label)) {
			emit(float64(s.BlocksReleased))
		})
	perDataset("zen_segment_skip_provenance_total",
		"Segment skips attributed to the (column, metadata kind) that proved them empty.", "counter",
		func(_ *Dataset, s DatasetStats, emit func(float64, ...obsv.Label)) {
			for _, e := range s.SkipProvenance {
				emit(float64(e.Count),
					obsv.Label{Key: "column", Value: e.Column},
					obsv.Label{Key: "via", Value: e.Via})
			}
		})
	perDataset("zen_cache_hits_total",
		"Result-cache hits.", "counter",
		func(_ *Dataset, s DatasetStats, emit func(float64, ...obsv.Label)) {
			emit(float64(s.Cache.Hits))
		})
	perDataset("zen_cache_misses_total",
		"Result-cache misses.", "counter",
		func(_ *Dataset, s DatasetStats, emit func(float64, ...obsv.Label)) {
			emit(float64(s.Cache.Misses))
		})
	perDataset("zen_cache_evictions_total",
		"Result-cache evictions, including probation drops and wholesale invalidation on append.", "counter",
		func(_ *Dataset, s DatasetStats, emit func(float64, ...obsv.Label)) {
			emit(float64(s.Cache.Evictions))
		})
	perDataset("zen_cache_oversize_total",
		"Results never cached because one alone exceeded the whole byte budget.", "counter",
		func(_ *Dataset, s DatasetStats, emit func(float64, ...obsv.Label)) {
			emit(float64(s.Cache.Oversize))
		})
	perDataset("zen_cache_entries",
		"Result-cache entries currently held.", "gauge",
		func(_ *Dataset, s DatasetStats, emit func(float64, ...obsv.Label)) {
			emit(float64(s.Cache.Entries))
		})
	perDataset("zen_cache_bytes",
		"Bytes of result vectors the result cache currently pins.", "gauge",
		func(_ *Dataset, s DatasetStats, emit func(float64, ...obsv.Label)) {
			emit(float64(s.Cache.Bytes))
		})
	perDataset("zen_coalesce_submissions_total",
		"Engine submissions admitted through the coalescing queue.", "counter",
		func(_ *Dataset, s DatasetStats, emit func(float64, ...obsv.Label)) {
			emit(float64(s.Coalesce.Submissions))
		})
	perDataset("zen_coalesce_batches_total",
		"Engine batches that served the submissions.", "counter",
		func(_ *Dataset, s DatasetStats, emit func(float64, ...obsv.Label)) {
			emit(float64(s.Coalesce.Batches))
		})
	perDataset("zen_coalesce_coalesced_total",
		"Submissions that shared an engine batch with at least one other.", "counter",
		func(_ *Dataset, s DatasetStats, emit func(float64, ...obsv.Label)) {
			emit(float64(s.Coalesce.Coalesced))
		})
	perDataset("zen_queue_depth",
		"Submissions parked at the admission queue right now.", "gauge",
		func(_ *Dataset, s DatasetStats, emit func(float64, ...obsv.Label)) {
			emit(float64(s.Coalesce.QueueDepth))
		})
	perDataset("zen_requests_shed_total",
		"Submissions rejected with 429 because the admission queue was full.", "counter",
		func(_ *Dataset, s DatasetStats, emit func(float64, ...obsv.Label)) {
			emit(float64(s.Coalesce.Shed))
		})
	perDataset("zen_request_timeouts_total",
		"Executions cut short by their request context (504 or 499).", "counter",
		func(_ *Dataset, s DatasetStats, emit func(float64, ...obsv.Label)) {
			emit(float64(s.HTTP.Timeouts))
		})
	perDataset("zen_scan_pool_busy",
		"Scan jobs (a fragment for a share of a batch's plans) running now.", "gauge",
		func(_ *Dataset, s DatasetStats, emit func(float64, ...obsv.Label)) {
			emit(float64(s.Pool.Busy))
		})
	perDataset("zen_scan_pool_capacity",
		"The scan workers one batch may use.", "gauge",
		func(_ *Dataset, s DatasetStats, emit func(float64, ...obsv.Label)) {
			emit(float64(s.Pool.Capacity))
		})
	perDataset("zen_compactions_total",
		"Successful background/manual compactions (zpack datasets).", "counter",
		func(_ *Dataset, s DatasetStats, emit func(float64, ...obsv.Label)) {
			if s.Compaction != nil {
				emit(float64(s.Compaction.Compactions))
			}
		})
	perDataset("zen_compaction_failures_total",
		"Compactions that failed; the old generation kept serving.", "counter",
		func(_ *Dataset, s DatasetStats, emit func(float64, ...obsv.Label)) {
			if s.Compaction != nil {
				emit(float64(s.Compaction.Failures))
			}
		})
	perDataset("zen_compaction_rows_rewritten_total",
		"Rows rewritten into re-clustered generations.", "counter",
		func(_ *Dataset, s DatasetStats, emit func(float64, ...obsv.Label)) {
			if s.Compaction != nil {
				emit(float64(s.Compaction.RowsRewritten))
			}
		})
	perDataset("zen_compaction_generation",
		"Compacted generation serving now (0 = file as loaded).", "gauge",
		func(_ *Dataset, s DatasetStats, emit func(float64, ...obsv.Label)) {
			if s.Compaction != nil {
				emit(float64(s.Compaction.Generation))
			}
		})
	perDataset("zen_compaction_unsorted_segments",
		"Segments out of primary-cluster-column order (what the compactor thresholds on).", "gauge",
		func(_ *Dataset, s DatasetStats, emit func(float64, ...obsv.Label)) {
			if s.Compaction != nil {
				emit(float64(s.Compaction.UnsortedSegments))
			}
		})
	perDataset("zen_compaction_last_duration_seconds",
		"Wall time of the most recent successful compaction.", "gauge",
		func(_ *Dataset, s DatasetStats, emit func(float64, ...obsv.Label)) {
			if s.Compaction != nil {
				emit(float64(s.Compaction.LastDurationMs) / 1e3)
			}
		})
	perDataset("zen_process_tuples_total",
		"Process-phase tuples scored.", "counter",
		func(_ *Dataset, s DatasetStats, emit func(float64, ...obsv.Label)) {
			emit(float64(s.Process.Tuples))
		})
	perDataset("zen_process_dist_abandoned_total",
		"Distance calls the pruning kernels abandoned early.", "counter",
		func(_ *Dataset, s DatasetStats, emit func(float64, ...obsv.Label)) {
			emit(float64(s.Process.DistAbandoned))
		})
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

// ServeHTTP renders the exposition after reading the runtime's figures and
// taking one snapshot of each dataset's.
func (m *metrics) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m.scrape.Lock()
	defer m.scrape.Unlock()
	rtmetrics.Read(m.rt)
	for _, d := range m.reg.List() {
		m.ds = append(m.ds, datasetSnap{d, d.Stats()})
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
