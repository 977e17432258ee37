package main

// metric is one named number the benchmark reports. The tables below
// are the source of BENCHMARK.json's metric lists (a test keeps the two
// equal); Moves records, for a per-layer metric, which end-to-end
// metric it should move and on which workload, so a later change can
// say in advance what it expects to see.
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening, as a share of the median
	Moves  string  // per-layer only
}

// endToEnd is reported by every untraced run, on every workload. An
// "operation" is one harness.Run on suite and finegrain (its latency is
// its median over the run's rounds) and one request answered without
// simulation, Submit→Result, on serve. README.md defines each metric per
// workload. The operation p99 is a per-layer metric: on serve it is set
// by hypervisor preemptions of the host's virtual CPUs and moved by more
// than the largest bound from one run to the next.
var endToEnd = []metric{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "pool_wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "max_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	movesSim    = "suite wall_s, ops_per_s, pool_wall_s; finegrain wall_s, ops_per_s less; serve op_p50_ms unmoved"
	movesRT     = "finegrain wall_s, ops_per_s; the per-policy slices of suite"
	movesHit    = "serve op_p50_ms"
	movesMiss   = "serve wall_s, ops_per_s"
	movesExact  = "identical under a simulator-speed change; a model change moves them, and host time with them"
	movesModel  = "only on a model change"
	movesGo     = "max_rss_mb and wall_s, mostly on finegrain and serve"
	movesServeC = "serve wall_s, ops_per_s, op_p50_ms (counts, exact for a given seed)"
)

// perLayer is reported by every traced run, on every workload; a layer
// a workload does not exercise reads 0.
var perLayer = []metric{
	{Name: "harness.run_s.snuca", Unit: "s", Better: "lower", Moves: "suite and finegrain wall_s (S-NUCA slice)"},
	{Name: "harness.run_s.rnuca", Unit: "s", Better: "lower", Moves: "suite and finegrain wall_s (R-NUCA slice)"},
	{Name: "harness.run_s.tdnuca", Unit: "s", Better: "lower", Moves: "suite and finegrain wall_s (TD-NUCA slice)"},
	{Name: "harness.pool_busy_ratio", Unit: "ratio", Better: "higher", Moves: "pool_wall_s on every workload"},
	{Name: "harness.pool_tail_s", Unit: "s", Better: "lower", Moves: "pool_wall_s on every workload"},
	{Name: "workgen.expand_s", Unit: "s", Better: "lower", Moves: "finegrain and serve setup_s"},

	{Name: "cpu.machine", Unit: "%", Better: "lower", Moves: movesSim},
	{Name: "cpu.cache", Unit: "%", Better: "lower", Moves: movesSim},
	{Name: "cpu.noc", Unit: "%", Better: "lower", Moves: movesSim},
	{Name: "cpu.vm", Unit: "%", Better: "lower", Moves: movesSim},
	{Name: "machine.host_ns_per_access", Unit: "ns", Better: "lower", Moves: movesSim},

	{Name: "sim.accesses", Unit: "count", Better: "lower", Moves: movesExact},
	{Name: "sim.tasks", Unit: "count", Better: "lower", Moves: movesExact},
	{Name: "sim.cycles", Unit: "cycles", Better: "lower", Moves: movesExact},
	{Name: "machine.l1_misses", Unit: "count", Better: "lower", Moves: movesExact},
	{Name: "machine.llc_accesses", Unit: "count", Better: "lower", Moves: movesExact},
	{Name: "machine.llc_misses", Unit: "count", Better: "lower", Moves: movesExact},
	{Name: "machine.bypass_accesses", Unit: "count", Better: "lower", Moves: movesExact},
	{Name: "machine.dram_accesses", Unit: "count", Better: "lower", Moves: movesExact},
	{Name: "machine.invalidations", Unit: "count", Better: "lower", Moves: movesExact},
	{Name: "machine.flush_ops", Unit: "count", Better: "lower", Moves: movesExact},
	{Name: "noc.messages", Unit: "count", Better: "lower", Moves: movesExact},
	{Name: "noc.byte_hops", Unit: "count", Better: "lower", Moves: movesExact},
	{Name: "noc.queue_cycles", Unit: "cycles", Better: "lower", Moves: movesExact},
	{Name: "vm.tlb_misses", Unit: "count", Better: "lower", Moves: movesExact},
	{Name: "core.rrt_lookups", Unit: "count", Better: "lower", Moves: movesExact},
	{Name: "core.register_failures", Unit: "count", Better: "lower", Moves: movesExact},

	{Name: "cpu.taskrt", Unit: "%", Better: "lower", Moves: movesRT},
	{Name: "cpu.core", Unit: "%", Better: "lower", Moves: movesRT},
	{Name: "cpu.rnuca", Unit: "%", Better: "lower", Moves: movesRT},
	{Name: "cpu.policy", Unit: "%", Better: "lower", Moves: movesRT},
	{Name: "taskrt.host_us_per_task", Unit: "us", Better: "lower", Moves: movesRT},

	{Name: "model.td_speedup_geomean", Unit: "ratio", Better: "higher", Moves: movesModel},
	{Name: "model.r_speedup_geomean", Unit: "ratio", Better: "higher", Moves: movesModel},
	{Name: "model.td_speedup_paper_error", Unit: "ratio", Better: "lower", Moves: movesModel + "; measured at 1/128 scale against harness.Fig8PaperTDAvg"},

	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower", Moves: movesGo},
	{Name: "runtime.alloc_bytes_per_op", Unit: "B", Better: "lower", Moves: movesGo},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: movesGo},
	{Name: "cpu.runtime_gc", Unit: "%", Better: "lower", Moves: movesGo},

	{Name: "op_p99_ms", Unit: "ms", Better: "lower", Moves: movesHit + "; on suite and finegrain, their slowest run"},
	{Name: "client.submit_p50_ms", Unit: "ms", Better: "lower", Moves: movesHit},
	{Name: "client.result_p50_ms", Unit: "ms", Better: "lower", Moves: movesHit},
	{Name: "cpu.serve", Unit: "%", Better: "lower", Moves: movesHit},
	{Name: "cpu.client", Unit: "%", Better: "lower", Moves: movesHit},
	{Name: "cpu.net_http", Unit: "%", Better: "lower", Moves: movesHit},
	{Name: "cpu.encoding_json", Unit: "%", Better: "lower", Moves: movesHit},
	{Name: "serve.payload_bytes", Unit: "B", Better: "lower", Moves: movesHit},

	{Name: "client.await_p50_ms", Unit: "ms", Better: "lower", Moves: movesMiss},
	{Name: "serve.miss_p50_ms", Unit: "ms", Better: "lower", Moves: movesMiss},
	{Name: "serve.miss_p99_ms", Unit: "ms", Better: "lower", Moves: movesMiss},
	{Name: "harness.direct_run_p50_ms", Unit: "ms", Better: "lower", Moves: movesMiss + "; serve.miss_p50_ms minus this is serve's own cost per miss"},

	{Name: "serve.completed", Unit: "count", Better: "lower", Moves: movesServeC},
	{Name: "serve.coalesced", Unit: "count", Better: "higher", Moves: movesServeC},
	{Name: "serve.cache_hits", Unit: "count", Better: "higher", Moves: movesServeC},
	{Name: "serve.cache_misses", Unit: "count", Better: "lower", Moves: movesServeC},
	{Name: "serve.cache_evictions", Unit: "count", Better: "lower", Moves: movesServeC},
	{Name: "serve.rejected", Unit: "count", Better: "lower", Moves: movesServeC},
	{Name: "client.retries", Unit: "count", Better: "lower", Moves: movesServeC},

	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Moves: "none: the cost of tracing itself"},
}
