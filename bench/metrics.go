package main

// metricDef declares one metric the benchmark emits. BENCHMARK.json repeats
// this table for the driver; bench_test.go checks the two agree.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the base a run may worsen by
}

// endToEnd is what a user of the system sees; the same set on every
// workload, measured with tracing off.
//
// The bounds are wider than the issue's 0.10-0.15 because this shared 2-core
// box is not that steady, and the review of this table that asked for 0.15
// was answered with measurements, in BASELINE.md. The box has calm hours, in
// which ten runs of a workload spread by 3-5%; hours in which they spread by
// 10-17%; and hours in which it swings by a fifth from one minute to the
// next, the same on all four workloads. A slow minute slows the mean and the
// 10th, 25th, 50th and 95th percentile of a run's latencies alike, so no
// estimator inside a run removes it, nor does a longer list or a smaller
// window. The driver refuses a benchmark whose own spread across seeds
// exceeds a bound, so the timings take the widest bound it allows. What
// could be removed was removed: the graph no longer differs between seeds
// (that alone was a tenth on analytics), and -repeat repeats one seed.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "qps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "teps", unit: "edges/s", better: "higher", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "latency_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.20},
}

// errorRate is the seventh end-to-end metric: failed ÷ attempted of the
// result line, with an absolute bound of 0. It is judged by -compare and
// printed with the others, but BENCHMARK.json cannot list it: the driver
// takes a bound as a share of the parent's median, which is 0 here, and reads
// failed and attempted from the result line itself.
var errorRate = metricDef{name: "error_rate", unit: "fraction", better: "lower", bound: 0}

// perLayer is the breakdown from the traced run; the prefix of a name is the
// module it measures. A count that a layer did not produce on a workload is
// reported as 0.
var perLayer = []metricDef{
	{name: "facade.submit_us_p50", unit: "us", better: "lower"},
	{name: "facade.execute_ms_p50", unit: "ms", better: "lower"},
	{name: "facade.collect_us_p50", unit: "us", better: "lower"},
	{name: "facade.collect_share", unit: "fraction", better: "lower"},
	{name: "facade.cpu_ms_per_query", unit: "ms", better: "lower"},
	{name: "facade.cpu_utilization", unit: "fraction", better: "lower"},
	{name: "facade.alloc_mb_per_query", unit: "MB", better: "lower"},
	{name: "facade.gc_cpu_fraction", unit: "fraction", better: "lower"},
	{name: "facade.trace_overhead", unit: "fraction", better: "lower"},

	{name: "rt.msgs_per_query", unit: "count", better: "lower"},
	{name: "rt.bytes_per_query", unit: "bytes", better: "lower"},
	{name: "rt.control_msgs_per_query", unit: "count", better: "lower"},
	{name: "rt.coll_msgs_per_query", unit: "count", better: "lower"},

	{name: "mailbox.records_per_query", unit: "count", better: "lower"},
	{name: "mailbox.hops_per_record", unit: "ratio", better: "lower"},
	{name: "mailbox.records_per_envelope", unit: "ratio", better: "higher"},
	{name: "mailbox.envelope_bytes_p50", unit: "bytes", better: "higher"},
	{name: "mailbox.flushes_per_query", unit: "count", better: "lower"},
	{name: "mailbox.pool_hit_rate", unit: "fraction", better: "higher"},

	{name: "termination.waves_per_query", unit: "count", better: "lower"},
	{name: "termination.retests_per_query", unit: "count", better: "lower"},

	{name: "core.pushed_per_query", unit: "count", better: "lower"},
	{name: "core.executed_per_query", unit: "count", better: "lower"},
	{name: "core.pushed_per_s", unit: "1/s", better: "higher"},
	{name: "core.useful_visit_ratio", unit: "ratio", better: "higher"},
	{name: "core.ghost_filter_rate", unit: "fraction", better: "higher"},
	{name: "core.queue_depth_p50", unit: "count", better: "lower"},

	{name: "algos.bfs.p50_ms", unit: "ms", better: "lower"},
	{name: "algos.bfs_do.p50_ms", unit: "ms", better: "lower"},
	{name: "algos.sssp.p50_ms", unit: "ms", better: "lower"},
	{name: "algos.cc.p50_ms", unit: "ms", better: "lower"},
	{name: "algos.kcore.p50_ms", unit: "ms", better: "lower"},
	{name: "algos.pagerank.p50_ms", unit: "ms", better: "lower"},
	{name: "algos.pagerank.ms_per_iter", unit: "ms", better: "lower"},

	{name: "engine.in_flight_mean", unit: "count", better: "higher"},
	{name: "engine.waiting_mean", unit: "count", better: "lower"},
	{name: "engine.query_ms_p50", unit: "ms", better: "lower"},
	{name: "engine.query_ms_p99", unit: "ms", better: "lower"},
	{name: "engine.rejected", unit: "count", better: "lower"},
	{name: "engine.cancelled", unit: "count", better: "lower"},

	{name: "ooc.parked_per_query", unit: "count", better: "lower"},
	{name: "ooc.unparked_per_query", unit: "count", better: "lower"},
	{name: "ooc.park_rate", unit: "fraction", better: "lower"},
	{name: "ooc.demand_fetches_per_query", unit: "count", better: "lower"},
	{name: "ooc.prefetches_per_query", unit: "count", better: "higher"},
	{name: "ooc.prefetch_dropped_rate", unit: "fraction", better: "lower"},

	{name: "pagecache.hit_rate", unit: "fraction", better: "higher"},
	{name: "pagecache.misses_per_query", unit: "count", better: "lower"},
	{name: "pagecache.stalls_per_query", unit: "count", better: "lower"},
	{name: "pagecache.evictions_per_query", unit: "count", better: "lower"},
	{name: "pagecache.read_mb_per_query", unit: "MB", better: "lower"},
	{name: "pagecache.retries", unit: "count", better: "lower"},
}

// drillMetrics are per-layer metrics too, but measured by the drills: one
// layer's public API timed alone, independent of the workload. A traced
// single-workload run reports them after perLayer; the all-workloads run
// measures them once.
var drillMetrics = []metricDef{
	{name: "generators.edges_per_s", unit: "edges/s", better: "higher"},
	{name: "partition.build_s", unit: "s", better: "lower"},
	{name: "partition.max_over_mean_edges", unit: "ratio", better: "lower"},
	{name: "core.ghost_build_s", unit: "s", better: "lower"},
	{name: "ooc.externalize_s", unit: "s", better: "lower"},
	{name: "engine.start_s", unit: "s", better: "lower"},
	{name: "mailbox.route_ns_per_record", unit: "ns", better: "lower"},
	{name: "termination.wave_us", unit: "us", better: "lower"},
	{name: "algos.triangles.s12_ms", unit: "ms", better: "lower"},
	{name: "engine.trivial_query_us", unit: "us", better: "lower"},
	{name: "engine.concurrent_over_serial_bfs", unit: "ratio", better: "lower"},
	{name: "pagecache.hit_ns", unit: "ns", better: "lower"},
	{name: "pagecache.miss_evict_ns", unit: "ns", better: "lower"},
}

// metricValue is one measured value as the result line prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects measured values by name and renders them against a
// table, so a value the table does not declare, or one it declares that was
// never measured, is a programming error caught at once.
type metricSet map[string]float64

// render keeps the values of the table's metrics; missing returns the names
// the table declares that the set lacks.
func (s metricSet) render(defs []metricDef) (out map[string]metricValue, missing []string) {
	out = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := s[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, missing
}
