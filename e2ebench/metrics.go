package main

// metricDef is one reported metric.
type metricDef struct {
	name, unit string
	endToEnd   bool
}

// metricDefs lists every metric in report order. BENCHMARK.json names the
// same metrics (TestBenchmarkJSONMatchesMetrics).
var metricDefs = []metricDef{
	{"setup_s", "s", true},
	{"throughput_tps", "1/s", true},
	{"latency_p50_ms", "ms", true},
	{"latency_p99_ms", "ms", true},
	{"peak_rss_mb", "MB", true},

	{"setup.quadtree_ms", "ms", false},
	{"setup.history_ms", "ms", false},
	{"setup.batch_s", "s", false},
	{"setup.partition_ms", "ms", false},
	{"setup.load_ms", "ms", false},
	{"setup.install_ms", "ms", false},
	{"busdata.preprocess_us", "us", false},
	{"quadtree.path_us", "us", false},
	{"dfs.append_us", "us", false},
	{"core.route_us", "us", false},
	{"cep.event_us", "us", false},
	{"sqlstore.insert_us", "us", false},
	{"baseline.single_thread_tps", "1/s", false},
	{"ledger.run_cpu_us_per_trace", "us", false},
	{"ledger.unattributed_frac", "ratio", false},
	{"runtime.alloc_bytes_per_trace", "B", false},
	{"runtime.gc_cpu_frac", "ratio", false},
	{"storm.BusReader.proc_ns", "ns", false},
	{"storm.PreProcess.proc_ns", "ns", false},
	{"storm.AreaTracker.proc_ns", "ns", false},
	{"storm.BusStopsTracker.proc_ns", "ns", false},
	{"storm.Splitter.proc_ns", "ns", false},
	{"storm.EsperBolt.proc_ns", "ns", false},
	{"storm.EventsStorer.proc_ns", "ns", false},
	{"storm.PreProcess.batch_fill", "tuples/batch", false},
	{"storm.AreaTracker.batch_fill", "tuples/batch", false},
	{"storm.BusStopsTracker.batch_fill", "tuples/batch", false},
	{"storm.Splitter.batch_fill", "tuples/batch", false},
	{"storm.EsperBolt.batch_fill", "tuples/batch", false},
	{"storm.EventsStorer.batch_fill", "tuples/batch", false},
	{"storm.dropped", "count", false},
	{"storm.errors", "count", false},
	{"storm.replays", "count", false},
	{"failed_frac", "ratio", false},
	{"core.fanout", "events/trace", false},
	{"core.engine_skew", "ratio", false},
	{"cep.detect_per_event", "ratio", false},
	{"cep.detection_drift", "ratio", false},
	{"bench.gen_late_p99_us", "us", false},
	{"bench.backlog_max", "traces", false},
	{"bench.latency_samples", "count", false},
	{"telemetry.storer_e2e_p99_ms", "ms", false},
	{"tcp.bytes_per_trace", "B", false},
	{"epoch.checkpoints", "count", false},
	{"bench.trace_overhead_frac", "ratio", false},
}
