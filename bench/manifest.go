package main

// The benchmark's names. BENCHMARK.json at the repository root lists the same
// workloads and metrics (plus each end-to-end metric's bound); manifest_test.go
// fails when the two drift apart.

type metricDef struct {
	Name string
	Unit string
}

// workloadNames are the workloads newWorkload builds; BENCHMARK.json and
// README.md say why each exists.
var workloadNames = []string{"explore_hot", "task_cold", "drill_zpack", "ingest_mix"}

// endToEndDefs are the gated metrics, emitted with --trace 0: what a user of
// zserved pays that repeats within its bound on this box (README.md, "Bounds
// and the measured noise floor").
var endToEndDefs = []metricDef{
	{"server_rss_p25_mb", "MB"},
	{"setup_s", "s"},
}

// speedDefs are the four time-derived metrics of the window. They did not
// repeat within a tenth, so they are reported ungated, first among the
// per-layer metrics, and printed on every run.
var speedDefs = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"server_cpu_ms_per_req", "ms"},
}

// perLayerDefs are emitted with --trace 1. A metric with no meaning on a
// workload (append latency on a read-only one, segment loads over a CSV) is
// reported as 0 there.
var perLayerDefs = append(append([]metricDef(nil), speedDefs...), []metricDef{
	// Observed from outside the server during the window: the stats block of
	// each response and GET /stats before and after.
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_evictions_per_req", "count"},
	{"server.response_kb_per_req", "kB"},
	{"server.latency_p99_ms", "ms"},
	{"server.append_p50_ms", "ms"},
	{"server.post_append_query_p50_ms", "ms"},
	{"server.http_overhead_ms", "ms"},
	{"zexec.query_ms", "ms"},
	{"zexec.process_ms", "ms"},
	{"zexec.sql_queries_per_req", "count"},
	{"zexec.sql_requests_per_req", "count"},
	{"engine.rows_scanned_per_req", "count"},
	{"engine.segments_skipped_per_req", "count"},
	{"vis.dist_calls_per_req", "count"},
	{"vis.dist_abandoned_ratio", "ratio"},
	// Measured in-process by the traced pass (layers.go).
	{"frontend.to_zql_us", "us"},
	{"zql.parse_us", "us"},
	{"zexec.plan_ms", "ms"},
	{"zexec.run_ms", "ms"},
	{"zexec.alloc_kb_per_req", "kB"},
	{"zexec.allocs_per_req", "count"},
	{"minisql.parse_us_per_stmt", "us"},
	{"engine.prepare_us_per_plan", "us"},
	{"engine.execute_ms", "ms"},
	{"engine.alloc_kb_per_req", "kB"},
	{"engine.skip_ratio", "ratio"},
	{"zpack.segment_loads_per_req", "count"},
	{"vis.distance_ns_per_call", "ns"},
	{"vis.representative_ms", "ms"},
	{"vis.outliers_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.encode_alloc_kb_per_req", "kB"},
	{"client.session_query_ms", "ms"},
	{"bench.unattributed_pct", "%"},
	// Set-up and space, once per traced run.
	{"dataset.csv_load_s", "s"},
	{"engine.build_s", "s"},
	{"zpack.build_s", "s"},
	{"zpack.open_ms", "ms"},
	{"zpack.append_flush_ms", "ms"},
	{"zpack.bytes_per_csv_byte", "ratio"},
	{"compact.file_s", "s"},
	{"compact.unsorted_segments_after", "count"},
	{"bench.datagen_s", "s"},
}...)
