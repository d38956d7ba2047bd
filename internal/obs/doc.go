// Package obs is the runtime's always-on observability layer: a
// sharded metrics registry, ring-buffered span tracing, and a live
// introspection HTTP endpoint. It is threaded through graph, sched,
// rt, mpi and fault, and designed so that the default configuration
// (counters on, spans off) costs a few nanoseconds per task and the
// fully disabled path costs only a nil/flag check per hook.
//
// # Tiers
//
// The registry has two switches:
//
//   - metrics (Enabled, on by default): the pre-registered counters
//     below, plus gauges and collector-backed series. Hot-path cost is
//     one flag check and one plain increment of owner-private memory
//     per hook (the increment is batched; see below).
//   - timing (TimingOn, off by default, Options.Spans): span tracing
//     into per-worker ring buffers and the latency histograms. This
//     tier takes timestamps, so it is opt-in; Options.SpanSample
//     bounds its cost for long runs (record 1 in N task-body spans).
//
// Options.Disable turns everything off (the benchmark baseline); every
// hook then degenerates to a single branch.
//
// # Shard layout and memory ordering
//
// Counters and histogram buckets live in per-slot cache-padded shards:
// one shard per worker, one for the producer (deque slot Workers), and
// one "external" shard for unowned contexts (detach-event callbacks,
// MPI completion goroutines, wakers). The external shard is
// multi-writer and uses real atomic adds; Registry.Add and
// out-of-range IncSlot calls route there.
//
// Owner slots batch. Go's atomic.Int64.Store compiles to XCHG on
// amd64 — a full barrier, as expensive as LOCK XADD — so there is no
// cheap "single-writer atomic store" to lean on. Instead each shard
// keeps a plain, owner-private pending array: IncSlot/AddSlot are
// fully inlined plain increments that no other goroutine ever reads.
// Pending deltas are published into the shard's atomic counters by
// flush(), which runs at scheduler cold points:
//
//   - MaybeFlush on deque-miss paths (every ~256 pended ops),
//   - FlushSlot when a worker parks and when the producer leaves
//     Taskwait,
//   - FlushAll in Close, after the workers have joined.
//
// Readers merge only the atomic arrays, so merged reads are torn-free
// and monotone; they are exact after Close (and producer-slot-exact
// after Taskwait), and may lag a busy worker by at most ~256 events
// in a live /metrics scrape.
//
// # Pre-registered series (exposed on /metrics, Prometheus text format)
//
// Counters backed by registry shards:
//
//	taskdep_tasks_submitted_total    tasks discovered by the producer
//	taskdep_tasks_executed_total     terminal completions (bodies ran)
//	taskdep_tasks_skipped_total      poison-cone / abort skips
//	taskdep_tasks_aborted_total      failed tasks (panic or Do error)
//	taskdep_replay_hits_total        persistent replay re-instantiations
//	taskdep_replay_compiled_iterations_total  persistent iterations replayed off a compiled schedule
//	taskdep_deque_pushes_total       scheduler queue publications
//	taskdep_deque_pops_total         own-deque and global-FIFO pops
//	taskdep_deque_steals_total       successful Chase–Lev steals
//	taskdep_deque_steal_fails_total  full victim sweeps that found nothing
//	taskdep_parks_total              worker/producer park transitions
//	taskdep_wakes_total              successful wake deliveries
//	taskdep_throttle_stalls_total    producer stalls at a throttle limit
//	taskdep_mpi_sends_total          point-to-point sends posted
//	taskdep_mpi_recvs_total          receives posted
//	taskdep_mpi_collectives_total    collectives posted
//	taskdep_mpi_bytes_sent_total     send+collective payload bytes
//	taskdep_mpi_bytes_recvd_total    receive payload bytes
//	taskdep_faults_injected_total    faults manufactured by fault.Inject
//	taskdep_tasks_fused_total        successors kept by their finisher (the hand-over's chained slot)
//	taskdep_phase_discovery_ns_total    ns in discovery (submit -> deps resolved), cpath tier
//	taskdep_phase_ready_wait_ns_total   ns tasks sat ready before running, cpath tier
//	taskdep_phase_execute_ns_total      ns in task bodies, cpath tier
//	taskdep_phase_release_ns_total      ns releasing successors after finish, cpath tier
//
// The taskdep_phase_* series are populated only when critical-path
// profiling (rt.Config.CPath, internal/cpath) is enabled.
//
// Counters backed by graph collectors (registered by rt, values from
// the graph's own discovery counters — zero added hot-path cost):
//
//	taskdep_edges_created_total      precedence edges materialized
//	taskdep_edges_deduped_total      duplicates pruned by optimization (b)
//	taskdep_edges_redirected_total   redirect nodes (optimization c)
//	taskdep_edges_pruned_total       edges to already-completed predecessors
//	taskdep_windows_ended_total      drained windows whose frontier was forgotten
//	taskdep_tasks_reused_total       tasks carved from an ended window's memory
//
// Gauges (registered by rt):
//
//	taskdep_graph_live_tasks         discovered but not yet terminal
//	taskdep_graph_ready_tasks        ready or running
//	taskdep_sched_pending_tasks      queued across all deques
//	taskdep_detached_tasks           detached tasks awaiting Fulfill
//	taskdep_failure_epoch            current failure window
//
// Histograms (log₂ buckets, nanoseconds; timing tier):
//
//	taskdep_task_body_ns             task body latency (sampled)
//	taskdep_discovery_batch_ns       SubmitBatch chunk latency
//	taskdep_replay_copy_ns           persistent replay copy latency (sampled)
//	taskdep_taskwait_ns              taskwait window latency
//
// # Spans
//
// Span events (complete spans and instants carrying task ID, key-set
// hash and iteration) cover discovery batches, task bodies, replay
// copies, taskwait/close windows and poison-cone drains. They are
// stamped in nanoseconds since the origin New is given (a runtime
// passes its profile's epoch, so spans share the task records' time
// line), recorded into fixed-capacity per-slot rings allocated only
// when spans are on (wraparound keeps the newest events), and written
// by WriteChrome — the one Chrome trace-event writer, for spans and
// profile task records alike. Load the /spans output in Perfetto
// (ui.perfetto.dev).
//
// # Endpoint
//
// Registry.Handler serves /metrics, /spans, /graphz and net/http/pprof
// under /debug/pprof/. Serve binds it to an address; rt starts it when
// Config.Obs.Addr is set.
package obs
