package main

// metrics.go names every workload and metric. BENCHMARK.json at the
// repository root declares the same names, units, directions and
// bounds; the smoke test fails when the two disagree.

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadNames in the order the suite runs them.
var workloadNames = []string{
	"lulesh_discover", "lulesh_persist", "cholesky_kernel", "hpcg_mpi",
	"serve_small", "serve_replay",
}

// A "unit" below is one solve of an application workload or one graph
// request of a serve workload. Every time is in seconds of the reference
// box with idle neighbours (calib.go) and is the median over the run's
// calibrated units or rounds. Every bound is the widest the contract
// allows: a bound has to be three times the spread between identical
// runs to tell a regression from the neighbours.
var endToEndMetrics = []metricDecl{
	// Everything before the first timed unit: input generation,
	// reference solution, construction, warm-up. Median of setupReps.
	{"setup_s", "s", "lower", 0.25},
	// Time of one unit: runtime construction -> RunTask return -> Close;
	// serve: closed-loop request sent -> done read.
	{"solve_s", "s", "lower", 0.25},
	// Task executions per second: per unit, over solve_s; serve: closed
	// loop, tasks x repeat of a slice's verified graphs over its time.
	{"tasks_per_s", "1/s", "higher", 0.25},
	// Verified units per second: 1/solve_s; serve: closed loop, a
	// slice's graphs over its time, generation and checking included.
	{"graphs_per_s", "1/s", "higher", 0.25},
	// Resident set: median of the samples taken every 10 ms while the
	// timed units run.
	{"rss_mb", "MB", "lower", 0.25},
}

// perLayerMetrics is the part of the ledger that is defined on all six
// workloads: isolation timings are measured in every traced run on the
// same generated inputs, counts are read from the layers' exported
// counters (0 where a layer is not on the workload's path), and traced
// times are given as shares of the unit time. Times that exist for one
// kind of workload only (rt.work_s, serve.latency_p99_ms, ...) are in
// the ledger the traced run prints and writes, not here.
var perLayerMetrics = []metricDecl{
	{Name: "graph.discover_ns_per_task", Unit: "ns", Better: "lower"},
	{Name: "graph.replay_ns_per_task", Unit: "ns", Better: "lower"},
	{Name: "graph.compile_ns_per_task", Unit: "ns", Better: "lower"},
	{Name: "graph.compiled_iter_ns_per_task", Unit: "ns", Better: "lower"},
	{Name: "graph.edges_per_task", Unit: "count", Better: "lower"},
	{Name: "graph.dedup_share", Unit: "ratio", Better: "higher"},
	{Name: "graph.pruned_share", Unit: "ratio", Better: "higher"},
	{Name: "graph.redirect_nodes", Unit: "count", Better: "lower"},
	{Name: "graph.replayed_share", Unit: "ratio", Better: "higher"},
	{Name: "sched.push_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.steal_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.steals_per_ktask", Unit: "count", Better: "lower"},
	{Name: "sched.steal_fails_per_ktask", Unit: "count", Better: "lower"},
	{Name: "sched.parks_per_ktask", Unit: "count", Better: "lower"},
	{Name: "sched.wakes_per_ktask", Unit: "count", Better: "lower"},
	{Name: "rt.drain_ns_per_task", Unit: "ns", Better: "lower"},
	{Name: "rt.frozen_replay_ns_per_task", Unit: "ns", Better: "lower"},
	{Name: "rt.throttle_stalls_per_ktask", Unit: "count", Better: "lower"},
	{Name: "rt.fused_per_ktask", Unit: "count", Better: "higher"},
	{Name: "rt.allocs_per_task", Unit: "count", Better: "lower"},
	{Name: "rt.alloc_bytes_per_task", Unit: "B", Better: "lower"},
	{Name: "rt.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "rt.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "rt.discovery_share", Unit: "ratio", Better: "lower"},
	{Name: "rt.breakdown_residual_share", Unit: "ratio", Better: "lower"},
	{Name: "rt.parallel_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "rt.compiled_iterations", Unit: "count", Better: "higher"},
	{Name: "apps.speedup_vs_parfor", Unit: "ratio", Better: "higher"},
	{Name: "apps.result_error", Unit: "ratio", Better: "lower"},
	{Name: "mpi.sends_per_solve", Unit: "count", Better: "lower"},
	{Name: "mpi.collectives_per_solve", Unit: "count", Better: "lower"},
	{Name: "mpi.bytes_per_solve", Unit: "B", Better: "lower"},
	{Name: "mpi.pingpong_us", Unit: "us", Better: "lower"},
	{Name: "mpi.allreduce_us", Unit: "us", Better: "lower"},
	{Name: "mpi.overlap_ratio", Unit: "ratio", Better: "higher"},
	{Name: "values.lower_ns_per_task", Unit: "ns", Better: "lower"},
	{Name: "serve.decode_us", Unit: "us", Better: "lower"},
	{Name: "serve.validate_us", Unit: "us", Better: "lower"},
	{Name: "serve.admit_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.tenant_run_us", Unit: "us", Better: "lower"},
	{Name: "serve.encode_us", Unit: "us", Better: "lower"},
	{Name: "serve.wire_residual_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.events_per_graph", Unit: "count", Better: "lower"},
	{Name: "serve.bytes_in_per_graph", Unit: "B", Better: "lower"},
	{Name: "serve.bytes_out_per_graph", Unit: "B", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.latency_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.backlog_end", Unit: "count", Better: "lower"},
	{Name: "cpath.disc_share", Unit: "ratio", Better: "lower"},
	{Name: "cpath.zero_disc_speedup", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// ledgerUnits gives the units of the workload-specific ledger entries.
var ledgerUnits = map[string]string{
	"rt.discovery_s":              "s",
	"rt.work_s":                   "s",
	"rt.overhead_s":               "s",
	"rt.idle_s":                   "s",
	"apps.serial_s":               "s",
	"apps.parfor_s":               "s",
	"mpi.comm_s":                  "s",
	"serve.wire_residual_us":      "us",
	"serve.server_elapsed_p50_ms": "ms",
	"serve.latency_p99_ms":        "ms",
	"serve.gen_lateness_p95_ms":   "ms",
	"cpath.tinf_ms":               "ms",
	"failed_share":                "ratio",
	// Compiled frozen iterations per graph with the profiler on: above
	// zero means the instruments did not push replay off the compiled
	// path.
	"trace.compiled_iterations": "count",
}

func unitOf(name string) string {
	for _, set := range [][]metricDecl{endToEndMetrics, perLayerMetrics} {
		for _, m := range set {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ledgerUnits[name]
}

// procs is the thread budget, GOMAXPROCS of every run: one. The two
// vCPUs of the reference box deliver one core between them (two
// spinning threads take twice as long as one), so a second busy thread
// adds no work done, only dependence on where the host places it:
// two-thread solve times had no floor, one-thread times have a sharp
// one. Workers, ranks and clients become goroutines that take turns on
// the one P; what is measured is the work the stack does, not its
// overlap (README.md, "Thread budget").
const procs = 1
