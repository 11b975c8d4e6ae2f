package main

// metricDef is one metric the benchmark reports. The tables below are the
// benchmark's contract with BENCHMARK.json at the repository root; the
// smoke test fails when the two drift apart.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, printed by the
// unprofiled run of every workload. Bound is the share of the baseline
// median by which a metric may worsen before a change counts as a
// regression. The times take 0.25, the widest a bound may be: on the
// shared 2-vCPU host they were measured on, the host's own speed drifts by
// up to 1.6× over minutes, and their spread over ten runs reached 24% (see
// README.md). Peak memory does not drift with the host; its spread reached
// 7%.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"runs_per_s", "1/s", "higher", 0.25},
	{"run_p50_ms", "ms", "lower", 0.25},
	{"max_rss_mb", "MB", "lower", 0.15},
}

// perLayer are the profiled pass's metrics. Metrics that do not apply to a
// workload (server spans on a sweep, scaling off fig13-random) read 0.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out,
			metricDef{Name: l + ".self_s", Unit: "s", Better: "lower"},
			metricDef{Name: l + ".incl_s", Unit: "s", Better: "lower"})
	}
	return append(out, []metricDef{
		{Name: "cpu.total_s", Unit: "s", Better: "lower"},
		{Name: "cpu.util", Unit: "ratio", Better: "higher"},
		{Name: "mobisense.busy_frac", Unit: "ratio", Better: "higher"},
		{Name: "mobisense.run_p90_ms", Unit: "ms", Better: "lower"},
		{Name: "mobisense.timed_runs", Unit: "count", Better: "higher"},
		{Name: "mobisense.scaling_eff", Unit: "ratio", Better: "higher"},
		{Name: "mobisense.expand_ms", Unit: "ms", Better: "lower"},
		{Name: "core.msgs_per_run", Unit: "count", Better: "lower"},
		{Name: "floor.placements_per_run", Unit: "count", Better: "lower"},
		{Name: "coverage.samples_per_run", Unit: "count", Better: "lower"},
		{Name: "coverage.us_per_sample", Unit: "us", Better: "lower"},
		{Name: "store.bytes_per_run", Unit: "bytes", Better: "lower"},
		{Name: "store.readback_ms", Unit: "ms", Better: "lower"},
		{Name: "server.submit_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "server.cache_hit_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "server.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "server.records_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "server.traces_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "server.job_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "server.job_p90_ms", Unit: "ms", Better: "lower"},
		{Name: "server.jobs_per_s", Unit: "1/s", Better: "higher"},
		{Name: "server.sse_events_per_job", Unit: "count", Better: "lower"},
		{Name: "server.http_requests", Unit: "count", Better: "higher"},
		{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower"},
		{Name: "runtime.alloc_mb_per_run", Unit: "MB", Better: "lower"},
		{Name: "runtime.mallocs_per_run", Unit: "count", Better: "lower"},
		{Name: "trace.overhead", Unit: "ratio", Better: "higher"},
	}...)
}()
