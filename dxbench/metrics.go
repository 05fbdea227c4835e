package main

// The metric catalogue. BENCHMARK.json at the repository root lists the
// same names and units; TestCatalogueMatchesBenchmarkJSON keeps the two
// in step.

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator or the daemon sees,
// measured over timed passes with tracing off.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"dx_speedup", "ratio"},
	{"alloc_mb", "MB"},
	{"max_rss_mb", "MB"},
	{"job_p50_ms", "ms"},
	{"job_p95_ms", "ms"},
}

// modules are the dx100/internal packages host time and allocations
// are charged to (a nested package such as workloads/pattern counts
// toward its parent). TestModulesCoverInternal keeps the list complete,
// so no simulator frame is charged to "other".
var modules = []string{
	"sim", "dram", "cache", "cpu", "dx100", "prefetch", "loopir",
	"memspace", "workloads", "exp", "serve", "sample", "obs", "amodel",
}

var modes = []string{"baseline", "dmp", "dx100"}

// stallBuckets are the simprof cycle-attribution buckets
// (prof.BucketNames), reported as shares of core cycles.
var stallBuckets = []string{"busy", "spin", "rob_full", "lq_sq_full", "dep_indirect", "dram_bound", "other"}

// perLayerMetrics lists the per-layer metrics in report order.
func perLayerMetrics() []metricDef {
	var d []metricDef
	add := func(name, unit string) { d = append(d, metricDef{name, unit}) }
	for _, m := range modules {
		add(m+".host_s", "s")
	}
	add("runtime.gc_s", "s")
	add("other.host_s", "s")
	add("profile.total_s", "s")
	for _, m := range modules {
		add(m+".alloc_mb", "MB")
	}
	add("other.alloc_mb", "MB")
	add("profile.alloc_mb", "MB")
	for _, m := range modes {
		add("exp.ns_per_cycle."+m, "ns/cycle")
		add("sim.cycles."+m, "cycles")
		add("sim.ff_skip_frac."+m, "ratio")
		add("cpu.instructions."+m, "count")
		add("cpu.spin_frac."+m, "ratio")
	}
	for _, b := range stallBuckets {
		add("cpu.stall."+b, "ratio")
	}
	add("dram.requests", "count")
	add("dram.ns_per_req", "ns")
	add("dram.row_hit", "ratio")
	add("dram.bw_util", "ratio")
	add("cache.l1d_mpki", "MPKI")
	add("cache.llc_hit", "ratio")
	add("dx100.instructions", "count")
	add("dx100.words_per_instr", "words")
	add("dx100.coalesce", "ratio")
	add("dx100.tile_util", "ratio")
	add("prefetch.issued", "count")
	add("prefetch.l2_hit", "ratio")
	add("workloads.build_s", "s")
	add("loopir.check_s", "s")
	add("exp.warmup_s", "s")
	add("exp.encode_s", "s")
	add("sample.detail_s", "s")
	add("sample.functional_s", "s")
	add("sample.windows", "count")
	add("sample.detailed_frac", "ratio")
	add("serve.queue_wait_ms", "ms")
	add("serve.hit_ms", "ms")
	add("serve.hit_ratio", "ratio")
	add("serve.sim_runs", "count")
	add("serve.heap_mb", "MB")
	add("trace.overhead_s", "s")
	return d
}
