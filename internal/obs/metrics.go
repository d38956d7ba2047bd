package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter identifies a pre-registered shard-backed counter.
type Counter int

const (
	CTasksSubmitted Counter = iota
	CTasksExecuted
	CTasksSkipped
	CTasksAborted
	CReplayHits
	CReplayCompiled
	CDequePush
	CDequePop
	CDequeSteal
	CDequeStealFail
	CParks
	CWakes
	CThrottleStalls
	CMPISends
	CMPIRecvs
	CMPICollectives
	CMPIBytesSent
	CMPIBytesRecvd
	CFaultsInjected
	CTasksFused
	// Per-phase time attribution (internal/cpath): cumulative
	// nanoseconds each lifecycle phase consumed, summed over finished
	// tasks. Zero unless critical-path profiling is enabled.
	CPhaseDiscoveryNs
	CPhaseReadyWaitNs
	CPhaseExecuteNs
	CPhaseReleaseNs
	NumCounters // sentinel, not a counter
)

// counterNames are the Prometheus series names, index-aligned with the
// Counter constants. doc.go enumerates them with meanings.
var counterNames = [NumCounters]string{
	CTasksSubmitted:   "taskdep_tasks_submitted_total",
	CTasksExecuted:    "taskdep_tasks_executed_total",
	CTasksSkipped:     "taskdep_tasks_skipped_total",
	CTasksAborted:     "taskdep_tasks_aborted_total",
	CReplayHits:       "taskdep_replay_hits_total",
	CReplayCompiled:   "taskdep_replay_compiled_iterations_total",
	CDequePush:        "taskdep_deque_pushes_total",
	CDequePop:         "taskdep_deque_pops_total",
	CDequeSteal:       "taskdep_deque_steals_total",
	CDequeStealFail:   "taskdep_deque_steal_fails_total",
	CParks:            "taskdep_parks_total",
	CWakes:            "taskdep_wakes_total",
	CThrottleStalls:   "taskdep_throttle_stalls_total",
	CMPISends:         "taskdep_mpi_sends_total",
	CMPIRecvs:         "taskdep_mpi_recvs_total",
	CMPICollectives:   "taskdep_mpi_collectives_total",
	CMPIBytesSent:     "taskdep_mpi_bytes_sent_total",
	CMPIBytesRecvd:    "taskdep_mpi_bytes_recvd_total",
	CFaultsInjected:   "taskdep_faults_injected_total",
	CTasksFused:       "taskdep_tasks_fused_total",
	CPhaseDiscoveryNs: "taskdep_phase_discovery_ns_total",
	CPhaseReadyWaitNs: "taskdep_phase_ready_wait_ns_total",
	CPhaseExecuteNs:   "taskdep_phase_execute_ns_total",
	CPhaseReleaseNs:   "taskdep_phase_release_ns_total",
}

// counterHelp are the # HELP strings, index-aligned with the Counter
// constants (Prometheus exposition format requires HELP before TYPE).
var counterHelp = [NumCounters]string{
	CTasksSubmitted:   "Tasks discovered (submitted to the graph), including redirect nodes.",
	CTasksExecuted:    "Task bodies run to completion.",
	CTasksSkipped:     "Tasks drained without executing (poisoned cone of a failure or abort).",
	CTasksAborted:     "Task bodies that failed (error return or panic).",
	CReplayHits:       "Persistent-region task re-instantiations (replay iterations).",
	CReplayCompiled:   "Persistent-region iterations replayed off a compiled flat schedule (every iteration but the recorded ones).",
	CDequePush:        "Tasks pushed onto work-stealing deques.",
	CDequePop:         "Tasks popped from the owner's deque.",
	CDequeSteal:       "Successful steals from another worker's deque.",
	CDequeStealFail:   "Steal attempts that found the victim deque empty or lost the race.",
	CParks:            "Worker park events (no work found).",
	CWakes:            "Worker wake-ups.",
	CThrottleStalls:   "Producer stalls at the discovery throttle.",
	CMPISends:         "MPI point-to-point sends initiated.",
	CMPIRecvs:         "MPI point-to-point receives initiated.",
	CMPICollectives:   "MPI collective operations.",
	CMPIBytesSent:     "Bytes sent over MPI point-to-point operations.",
	CMPIBytesRecvd:    "Bytes received over MPI point-to-point operations.",
	CFaultsInjected:   "Faults injected by the fault-injection test harness.",
	CTasksFused:       "Released successors a finishing executor kept to run next instead of queuing them.",
	CPhaseDiscoveryNs: "Nanoseconds spent in the discovery phase (submit to deps-resolved), summed over finished tasks.",
	CPhaseReadyWaitNs: "Nanoseconds tasks spent ready but not yet running, summed over finished tasks.",
	CPhaseExecuteNs:   "Nanoseconds spent executing task bodies, summed over finished tasks.",
	CPhaseReleaseNs:   "Nanoseconds spent releasing successors after task completion, summed over finished tasks.",
}

// Name returns the Prometheus series name for c.
func (c Counter) Name() string {
	if c < 0 || c >= NumCounters {
		return "taskdep_unknown_total"
	}
	return counterNames[c]
}

// Help returns the # HELP text for c.
func (c Counter) Help() string {
	if c < 0 || c >= NumCounters {
		return "Unknown counter."
	}
	return counterHelp[c]
}

// Histo identifies a pre-registered log₂-bucketed latency histogram.
type Histo int

const (
	HTaskBodyNs Histo = iota
	HDiscoveryBatchNs
	HReplayCopyNs
	HTaskwaitNs
	NumHistos // sentinel, not a histogram
)

var histoNames = [NumHistos]string{
	HTaskBodyNs:       "taskdep_task_body_ns",
	HDiscoveryBatchNs: "taskdep_discovery_batch_ns",
	HReplayCopyNs:     "taskdep_replay_copy_ns",
	HTaskwaitNs:       "taskdep_taskwait_ns",
}

// histoHelp are the # HELP strings for the log2-bucketed histograms.
var histoHelp = [NumHistos]string{
	HTaskBodyNs:       "Task body execution latency in nanoseconds (sampled, log2 buckets).",
	HDiscoveryBatchNs: "SubmitBatch discovery latency in nanoseconds (log2 buckets).",
	HReplayCopyNs:     "Persistent replay per-task re-instantiation latency in nanoseconds (sampled, log2 buckets).",
	HTaskwaitNs:       "Taskwait drain latency in nanoseconds (log2 buckets).",
}

// Name returns the Prometheus series name for h.
func (h Histo) Name() string {
	if h < 0 || h >= NumHistos {
		return "taskdep_unknown_ns"
	}
	return histoNames[h]
}

// Help returns the # HELP text for h.
func (h Histo) Help() string {
	if h < 0 || h >= NumHistos {
		return "Unknown histogram."
	}
	return histoHelp[h]
}

// shard holds one slot's counters and histogram buckets. Owner slots
// are single-writer: only the owning goroutine (worker w for slot w,
// the producer for slot Workers) writes. Hot-path increments land in
// pend — plain owner-private memory that readers never touch, so they
// cost ordinary ALU ops instead of the sequentially-consistent XCHG an
// atomic store compiles to on amd64. Pending deltas drain into the
// atomic array (what mergers read) every flushEvery events and at the
// scheduler's natural quiescence points (park, taskwait, close). The
// trailing pad keeps adjacent shards off the same cache line.
type shard struct {
	c    [NumCounters]atomic.Int64
	h    [NumHistos]histShard
	tick uint64 // span sampling clock, owner-only plain field

	pend    [NumCounters]int64 // owner-private pending deltas
	pendOps uint32             // events since the last flush
	_       [64]byte
}

// flushEvery bounds how far the atomic counters lag the owner's
// pending deltas under sustained load.
const flushEvery = 256

// flush drains the pending deltas into the atomic counters. Owner-only
// (or quiescent, for FlushAll).
//
//go:noinline
func (sh *shard) flush() {
	sh.pendOps = 0
	for c := range sh.pend {
		if n := sh.pend[c]; n != 0 {
			sh.pend[c] = 0
			sh.c[c].Add(n)
		}
	}
}

// Options configures observability for a runtime. The zero value is
// the always-on default: metrics enabled, spans off, no HTTP endpoint.
type Options struct {
	// Disable turns the whole layer off (counters, histograms and
	// spans). Every hook then costs only a flag check.
	Disable bool
	// Spans enables the timing tier: span tracing plus latency
	// histograms. Off by default because it takes timestamps; the span
	// rings are allocated only when it is on.
	Spans bool
	// SpanSample records 1 in SpanSample task-body and replay-copy
	// spans (coarse spans — batches, taskwait — are always recorded
	// when Spans is on). Rounded up to a power of two so the hot-path
	// check is a mask; 0 or 1 records every span.
	SpanSample int
	// Addr, when non-empty, makes rt serve the introspection endpoint
	// (/metrics, /graphz, /spans, /debug/pprof/) on this address,
	// e.g. "localhost:9123".
	Addr string
}

// GaugeFunc is a callback-backed gauge sampled at scrape time.
type GaugeFunc func() float64

// CounterFunc is a callback-backed monotone counter sampled at scrape
// time (used for series whose source already keeps its own counters,
// like graph discovery stats).
type CounterFunc func() int64

type namedGauge struct {
	name string
	help string
	f    GaugeFunc
}

type namedCounter struct {
	name string
	help string
	f    CounterFunc
}

// Registry is the sharded metrics + span store for one runtime. All
// methods are safe on a nil receiver (no-ops), so callers can keep an
// unconditional hook and drop the registry pointer to disable it.
type Registry struct {
	on     bool // metrics tier
	timing bool // spans + histograms tier
	origin time.Time

	shards []shard // nSlots owner shards + 1 trailing external shard
	ext    *shard  // == &shards[len-1]; multi-writer, real atomic adds

	sampleMask uint64 // span sampling modulus (power of two) minus one
	rings      []ring // nSlots owner rings + 1 external ring; nil with spans off
	extMu      sync.Mutex
	drain      sync.Mutex // serializes span readers

	collMu   sync.Mutex
	gauges   []namedGauge
	counters []namedCounter
}

// New creates a registry with slots owner shards (callers pass
// workers+1: worker slots 0..W-1 plus the producer slot W) and one
// external shard for everything else. Span and histogram timestamps are
// nanoseconds since origin; the span rings are allocated only when
// opt.Spans is on.
func New(slots int, origin time.Time, opt Options) *Registry {
	if slots < 1 {
		slots = 1
	}
	sample := opt.SpanSample
	if sample < 1 {
		sample = 1
	}
	r := &Registry{
		on:         !opt.Disable,
		timing:     !opt.Disable && opt.Spans,
		origin:     origin,
		shards:     make([]shard, slots+1),
		sampleMask: uint64(ceilPow2(sample)) - 1,
	}
	r.ext = &r.shards[slots]
	if r.timing {
		r.rings = make([]ring, slots+1)
		for i := range r.rings {
			r.rings[i].ev = make([]evSlot, spanBuf)
		}
	}
	return r
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Enabled reports whether the metrics tier is on.
func (r *Registry) Enabled() bool { return r != nil && r.on }

// TimingOn reports whether the timing tier (spans + histograms) is on.
func (r *Registry) TimingOn() bool { return r != nil && r.timing }

// Slots returns the number of owner slots (excluding the external
// shard), or 0 for a nil registry.
func (r *Registry) Slots() int {
	if r == nil {
		return 0
	}
	return len(r.shards) - 1
}

// nowNs is the span/histogram clock: nanoseconds since the origin
// (monotonic).
func (r *Registry) nowNs() int64 { return int64(time.Since(r.origin)) }

// ownShard maps a slot to its shard; out-of-range slots (e.g. -1 for
// contexts with no owned slot) route to the external multi-writer
// shard. The returned bool is true for owner (single-writer) shards.
func (r *Registry) ownShard(slot int) (*shard, bool) {
	if slot >= 0 && slot < len(r.shards)-1 {
		return &r.shards[slot], true
	}
	return r.ext, false
}

// IncSlot adds 1 to counter c on slot's shard. For valid slots the
// caller must be the slot's owning goroutine (the same ownership
// contract as the scheduler's deques); any other caller passes -1.
// The guard stays under the inlining budget so the disabled path
// compiles to a branch at the call site.
func (r *Registry) IncSlot(slot int, c Counter) {
	if r == nil || !r.on {
		return
	}
	// Open-coded so the whole enabled path inlines: plain increments on
	// the owner's private pending block (a call here — even an outlined
	// flush — would blow the inlining budget, so draining happens at
	// MaybeFlush points), atomics only for unowned callers.
	if uint(slot) < uint(len(r.shards)-1) {
		sh := &r.shards[slot]
		sh.pend[c]++
		sh.pendOps++
		return
	}
	r.ext.c[c].Add(1)
}

// AddSlot adds n to counter c on slot's shard (same ownership contract
// as IncSlot; open-coded for the same inlining reason).
func (r *Registry) AddSlot(slot int, c Counter, n int64) {
	if r == nil || !r.on {
		return
	}
	if uint(slot) < uint(len(r.shards)-1) {
		sh := &r.shards[slot]
		sh.pend[c] += n
		sh.pendOps++
		return
	}
	r.ext.c[c].Add(n)
}

// FlushSlot drains slot's pending counter deltas into the merged view.
// Owner-only; the runtime calls it at park, taskwait and throttle
// boundaries.
func (r *Registry) FlushSlot(slot int) {
	if r == nil {
		return
	}
	if uint(slot) < uint(len(r.shards)-1) {
		r.shards[slot].flush()
	}
}

// MaybeFlush is FlushSlot gated on the pending-event count: a cheap
// periodic drain the scheduler calls from already-outlined per-task
// code (pop misses, batch boundaries) so /metrics lags a busy worker
// by at most ~flushEvery events without taxing the increment path.
func (r *Registry) MaybeFlush(slot int) {
	if r == nil {
		return
	}
	if uint(slot) < uint(len(r.shards)-1) {
		sh := &r.shards[slot]
		if sh.pendOps >= flushEvery {
			sh.flush()
		}
	}
}

// FlushAll drains every slot's pending deltas. The caller must
// guarantee no owner is concurrently writing (workers joined, producer
// quiescent) — Close and Taskwait-style barriers qualify.
func (r *Registry) FlushAll() {
	if r == nil {
		return
	}
	for i := range r.shards {
		r.shards[i].flush()
	}
}

// Add adds n to counter c on the external shard. Safe from any
// goroutine.
func (r *Registry) Add(c Counter, n int64) {
	if r == nil || !r.on {
		return
	}
	r.ext.c[c].Add(n)
}

// Counter returns the merged value of c across all shards. Each shard
// is monotone, so the merge is a consistent-past snapshot; it is exact
// once the runtime is quiescent (after Taskwait/Close).
func (r *Registry) Counter(c Counter) int64 {
	if r == nil {
		return 0
	}
	var total int64
	for i := range r.shards {
		total += r.shards[i].c[c].Load()
	}
	return total
}

// Counters returns all merged counter values, index-aligned with the
// Counter constants.
func (r *Registry) Counters() [NumCounters]int64 {
	var out [NumCounters]int64
	if r == nil {
		return out
	}
	for i := range r.shards {
		for c := Counter(0); c < NumCounters; c++ {
			out[c] += r.shards[i].c[c].Load()
		}
	}
	return out
}

// ObserveSlot records a nanosecond value into histogram h on slot's
// shard (ownership contract as IncSlot). Gated on the timing tier.
func (r *Registry) ObserveSlot(slot int, h Histo, ns int64) {
	if r == nil || !r.timing {
		return
	}
	r.observeSlot(slot, h, ns)
}

//go:noinline
func (r *Registry) observeSlot(slot int, h Histo, ns int64) {
	s, owned := r.ownShard(slot)
	s.h[h].observe(ns, owned)
}

// Histogram returns the merged snapshot of h across all shards.
func (r *Registry) Histogram(h Histo) HistSnapshot {
	var out HistSnapshot
	if r == nil {
		return out
	}
	for i := range r.shards {
		out.MergeFrom(r.shards[i].h[h].snapshot())
	}
	return out
}

// RegisterGauge registers a callback-backed gauge exposed on /metrics.
// An optional help string becomes the series' # HELP line.
func (r *Registry) RegisterGauge(name string, f GaugeFunc, help ...string) {
	if r == nil || f == nil {
		return
	}
	r.collMu.Lock()
	r.gauges = append(r.gauges, namedGauge{name, firstOf(help), f})
	r.collMu.Unlock()
}

// RegisterCounterFunc registers a callback-backed monotone counter
// exposed on /metrics (for sources with their own counters, e.g.
// graph discovery stats — zero added hot-path cost). An optional help
// string becomes the series' # HELP line.
func (r *Registry) RegisterCounterFunc(name string, f CounterFunc, help ...string) {
	if r == nil || f == nil {
		return
	}
	r.collMu.Lock()
	r.counters = append(r.counters, namedCounter{name, firstOf(help), f})
	r.collMu.Unlock()
}

func firstOf(help []string) string {
	if len(help) > 0 {
		return help[0]
	}
	return ""
}

// WriteMetrics writes every registered series in Prometheus text
// exposition format — # HELP, then # TYPE, then samples, per the
// exposition conventions — shard-backed counters, callback counters,
// gauges, then histograms.
func (r *Registry) WriteMetrics(w io.Writer) error {
	if r == nil {
		return nil
	}
	merged := r.Counters()
	for c := Counter(0); c < NumCounters; c++ {
		if err := writeSeries(w, c.Name(), c.Help(), "counter", fmt.Sprintf("%d", merged[c])); err != nil {
			return err
		}
	}
	r.collMu.Lock()
	counters := append([]namedCounter(nil), r.counters...)
	gauges := append([]namedGauge(nil), r.gauges...)
	r.collMu.Unlock()
	sort.Slice(counters, func(i, j int) bool { return counters[i].name < counters[j].name })
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].name < gauges[j].name })
	for _, nc := range counters {
		if err := writeSeries(w, nc.name, nc.help, "counter", fmt.Sprintf("%d", nc.f())); err != nil {
			return err
		}
	}
	for _, ng := range gauges {
		if err := writeSeries(w, ng.name, ng.help, "gauge", fmt.Sprintf("%g", ng.f())); err != nil {
			return err
		}
	}
	for h := Histo(0); h < NumHistos; h++ {
		if err := r.Histogram(h).writeProm(w, h.Name(), h.Help()); err != nil {
			return err
		}
	}
	return nil
}

// writeSeries emits one single-sample series with its HELP and TYPE
// metadata lines (HELP first, as the exposition format specifies; an
// empty help skips the HELP line rather than emitting a blank one).
func writeSeries(w io.Writer, name, help, typ, value string) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %s\n", name, typ, name, value)
	return err
}
