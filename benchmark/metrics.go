package main

// The metric tables. BENCHMARK.json at the root of the repo lists the same
// names, units, directions and bounds (metrics_test.go holds the two
// together); README.md says what each one means.

// MetricSpec names one metric.
type MetricSpec struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: the share by which it may worsen
}

// endToEnd are the metrics that carry a regression bound. The driver wants
// one list for all workloads, every run reporting every metric on it and none
// ever reading 0, and accepts the benchmark only if each metric's run-to-run
// spread stays inside its bound on every workload. So the list holds what has
// one meaning on all five workloads and repeats on a shared host: the set-up
// time the contract requires, and speedup, a median of ratios of reps that ran
// side by side, which repeats within 1-3 % whatever the host does. The
// absolute times, abs_speedup, rps and peak RSS of the issue move with the
// host by 15-45 % on the memory-bound workload and were demoted to layer
// metrics, as the issue asks for a metric that does not repeat within a tenth
// (README.md, "Repeatability").
var endToEnd = []MetricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"speedup", "x", "higher", 0.10},
}

// perLayer are the metrics without a bound: the demoted end-to-end ones
// first, each reported by the workloads the README lists for it, then the
// single layers'. Every traced run's result line carries all of them; one
// that the workload does not measure reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []MetricSpec {
	lo := func(name, unit string) MetricSpec { return MetricSpec{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) MetricSpec { return MetricSpec{Name: name, Unit: unit, Better: "higher"} }
	specs := []MetricSpec{
		lo("seq_ms", "ms"),
		lo("spec_ms", "ms"),
		hi("abs_speedup", "x"),
		hi("rps", "1/s"),
		lo("req_p50_ms", "ms"),
		lo("req_p95_ms", "ms"),
		lo("peak_rss_mb", "MB"),

		lo("bench.native_ms", "ms"),
		lo("bench.seq_tax_x", "x"),

		lo("mem.read_word_ns", "ns"),
		lo("mem.write_word_ns", "ns"),
		lo("mem.read_words_ns_per_word", "ns"),
		lo("mem.write_words_ns_per_word", "ns"),
		lo("mem.equal_words_ns_per_word", "ns"),
		lo("mem.registry_contains_ns", "ns"),
		lo("mem.stamps_mark_ns", "ns"),
		lo("mem.alloc_free_ns", "ns"),
		lo("mem.alloc_reset_us", "us"),
	}
	for _, b := range []string{"bitmap", "chain", "openaddr"} {
		for _, op := range []string{"load_ns", "store_ns", "load_range_ns_per_word",
			"store_range_ns_per_word", "validate_ns_per_word", "commit_ns_per_word",
			"finalize_ns_per_word"} {
			specs = append(specs, lo("gbuf."+b+"."+op, "ns"))
		}
	}
	return append(specs,
		lo("lbuf.regvar_set_get_ns", "ns"),
		lo("lbuf.frame_push_pop_ns", "ns"),
		lo("predict.predict_observe_ns", "ns"),
		lo("vclock.span_ns", "ns"),

		lo("core.load_ns", "ns"),
		lo("core.store_ns", "ns"),
		lo("core.load_range_ns_per_word", "ns"),
		lo("core.store_range_ns_per_word", "ns"),
		lo("core.checkpoint_ns", "ns"),
		lo("core.spec_load_ns", "ns"),
		lo("core.spec_store_ns", "ns"),
		lo("core.spec_load_range_ns_per_word", "ns"),
		lo("core.spec_store_range_ns_per_word", "ns"),
		lo("core.fork_join_us", "us"),
		lo("core.fork_join_rollback_us", "us"),
		lo("core.fork_refused_ns", "ns"),
		lo("core.run_empty_us", "us"),
		lo("core.recycle_us", "us"),
		lo("core.new_close_ms", "ms"),

		lo("mutls.for_us_per_chunk", "us"),
		lo("mutls.pipeline_us_per_token", "us"),
		lo("mutls.tree_us_per_task", "us"),
		lo("mutls.reduce_us_per_group", "us"),
		hi("mutls.chunk_overlap_share", "ratio"),
		lo("mutls.chunk_gap_us_p50", "us"),

		hi("stats.commits", "count"),
		lo("stats.rollbacks", "count"),
		hi("stats.commit_share", "ratio"),
		lo("stats.read_set_peak", "count"),
		lo("stats.write_set_peak", "count"),
		lo("stats.words_committed", "count"),
		lo("stats.conflicts", "count"),
		hi("stats.crit_work_share", "ratio"),
		lo("stats.crit_idle_share", "ratio"),
		lo("stats.crit_overhead_share", "ratio"),
		hi("stats.spec_work_share", "ratio"),
		lo("stats.spec_idle_share", "ratio"),
		lo("stats.spec_wasted_share", "ratio"),
		lo("stats.spec_overhead_share", "ratio"),

		lo("pool.acquire_us", "us"),
		lo("pool.release_us", "us"),
		lo("pool.acquire_release_us", "us"),
		lo("pool.degraded_share", "ratio"),
		lo("pool.rejected", "count"),
		hi("pool.max_claimed_cpus", "count"),

		lo("serve.healthz_us", "us"),
		lo("serve.handler_min_us", "us"),
		lo("serve.http_min_us", "us"),
		lo("serve.req_p50_ms.x3p1", "ms"),
		lo("serve.req_p50_ms.mandelbrot", "ms"),
		lo("serve.req_p50_ms.matmult", "ms"),
		lo("serve.req_p99_ms", "ms"),
		lo("serve.spec_req_p50_ms", "ms"),
		lo("serve.degraded_req_p50_ms", "ms"),
		hi("serve.server_wall_share", "ratio"),
		lo("serve.retries", "count"),
		lo("serve.shed", "count"),

		hi("host.par_x", "x"),
		hi("host.clean_share", "ratio"),
		lo("host.spin_ms", "ms"),
		lo("trace.overhead_share", "ratio"),
	)
}

// workloads names the five workloads and why each is in the benchmark, in one
// line; the README has the long form.
var workloads = []struct{ Name, Why string }{
	{"loop-compute", "mandelbrot 192x192x3000 through mutls.For: time is in the kernel, so only fork/join hand-off, idle and chunk scheduling can be lost; a gbuf or mem change must not move it"},
	{"loop-memory", "stencil 32768x24 through mutls.Pipeline: 792 tiny speculations per run with read and write sets, so gbuf range ops, mem word runs, predict and fork/join frequency dominate"},
	{"tree-mixed", "fft 32768 through mutls.Tree, mixed model: few forks with very large read/write sets (32k words validated and committed in one serial section)"},
	{"loop-rollback", "loop-compute with RollbackProb 0.25: squash, re-execution and wasted work beside success, so a commit path made faster at the rollback path's cost is caught"},
	{"serve-closed", "in-process /run service, one closed-loop client per core, seeded mix of three 0.2-4 ms kernels: pool, serve and HTTP are most of the latency, the kernels little"},
}
