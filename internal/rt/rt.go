package rt

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"taskdep/internal/cpath"
	"taskdep/internal/fault"
	"taskdep/internal/graph"
	"taskdep/internal/obs"
	"taskdep/internal/sched"
	"taskdep/internal/trace"
	"taskdep/internal/verify"
)

// Config parametrizes a Runtime. Every knob has one form: a top-level
// field, or a field of CPath (critical-path profiler) or Obs
// (observability). NewRuntime validates ranges and enum values and
// applies defaults.
type Config struct {
	// Workers is the number of worker goroutines ("cores"). The producer
	// is an additional goroutine (the caller of Submit), matching the
	// paper's single-producer model. Default 1.
	Workers int

	// Policy selects depth-first (default, MPC-OMP-like) or
	// breadth-first scheduling.
	Policy sched.Policy
	// Opts enables TDG discovery optimizations (b) and (c).
	Opts graph.Opt
	// ThrottleReady bounds ready tasks (GCC/LLVM-style); 0 = unbounded.
	// The producer stops producing and starts consuming when either
	// window is exceeded ("task creation throttling", paper §2).
	ThrottleReady int64
	// ThrottleTotal bounds live tasks, ready or not (MPC-OMP's extra
	// threshold for dependent tasks); 0 = unbounded.
	//
	// Both windows bound discovery — descriptors allocated, edges held —
	// and so apply to the submissions that discover: plain windows and a
	// persistent region's recording iterations. A replayed iteration
	// discovers and allocates nothing (its whole recording is live from
	// the moment it begins, and the compiled schedule keeps no ready
	// gauge), so Submit inside one never throttles.
	ThrottleTotal int64
	// Profile, if non-nil, receives breakdown/trace events. It must be
	// created with at least Workers+1 slots; slot Workers is the
	// producer, counted from NewRuntime on: work in the bodies it runs,
	// idle while it parks, overhead otherwise, discovery included. Its
	// epoch is the time origin of spans and critical-path stamps too;
	// without a profile that origin is NewRuntime's call.
	Profile *trace.Profile
	// Verify enables the TDG verifier (internal/verify). Off: zero
	// overhead. Observe: dependence declarations are recorded at
	// submission, persistent replays are checked for structural
	// divergence (a lying Adaptive `changed` callback makes Persistent
	// return ErrReplayDivergence), and Runtime.Verify runs
	// the full audit on demand. Full: additionally audits at every
	// Taskwait (see Runtime.LastVerifyReport). Verify mode materializes
	// normally-pruned edges (graph.OptKeepPrunedEdges) and retains all
	// task descriptors, so it is a debugging mode, not a production
	// default.
	Verify verify.Mode
	// Inject, if non-nil, is a deterministic fault-injection harness
	// applied before every task body (see fault.Inject) — test/benchmark
	// machinery for the failure domain, nil in production. Must not be
	// shared between runtimes.
	Inject *fault.Inject
	// CPath configures the online critical-path profiler
	// (internal/cpath): phase attribution, live T1/T-infinity and the
	// discovery share of the critical path, what-if projections, and the
	// /criticalpath endpoint. Zero value: off, zero overhead.
	CPath CPathOptions
	// Obs configures the observability layer (internal/obs): the zero
	// value keeps the sharded counters on (near-zero overhead), spans
	// off, and no HTTP endpoint. Set Obs.Spans for span tracing +
	// latency histograms, Obs.Addr to serve /metrics, /graphz, /spans
	// and /debug/pprof/, and Obs.Disable to turn everything off.
	Obs obs.Options
}

// Runtime executes dependent tasks discovered by a single producer (see
// the package documentation for which methods are the producer's).
type Runtime struct {
	cfg Config
	g   *graph.Graph
	s   *sched.Scheduler

	// obs is the metrics + span registry, always non-nil (Config.Obs
	// selects its tiers); obsSrv is the optional introspection endpoint.
	obs    *obs.Registry
	obsSrv *obs.Server

	// cp is the online critical-path profiler; nil unless
	// Config.CPath.Enable, so every hook below is one nil check when
	// profiling is off.
	cp *cpath.Profiler

	wg       sync.WaitGroup
	shutdown atomic.Bool

	// replay is the schedule a persistent region's body is being re-run
	// against (a gated iteration): Submit re-instantiates its next task
	// and Taskwait waits for what it has released. Nil otherwise.
	// Producer-only.
	replay *graph.Compiled
	// inPersistent guards against nested Persistent, Record and Replay
	// calls; outside a replayed iteration it means the region is recording.
	inPersistent bool
	// compiled is the active replay schedule, non-nil only while
	// replayCompiled runs a Recording. Workers load it in finish to
	// route recorded tasks' terminal transitions through the compiled
	// CSR release instead of the generic graph walk.
	compiled atomic.Pointer[graph.Compiled]
	// waitTarget is the live count the producer's Taskwait waits for: 0,
	// or inside a replayed body the number of positions not yet released,
	// which cannot finish before their Submit. The finisher that brings
	// the live gauge there wakes the producer.
	waitTarget atomic.Int64

	iter atomic.Int32 // current persistent iteration, for trace records

	detached atomic.Int64 // detached tasks awaiting Fulfill

	// throttleOn is whether either throttle window is nonzero, so
	// completions know the producer may be parked on a counter transition
	// rather than a queue publication.
	throttleOn bool

	// ver records dependence declarations for the TDG verifier; nil
	// unless Config.Verify != verify.Off.
	ver       *verify.Recorder
	lastAudit atomic.Pointer[verify.Report]

	// Producer-only staging buffers, reused across Submit, SubmitBatch
	// and TaskLoop calls so steady-state submission does not allocate.
	// depBuf holds a Spec's declarations as a []Dep for the verifier; the
	// graph takes the Spec's key lists as they are.
	depBuf    []graph.Dep
	loopSpecs []Spec
	stage     batchStage
	// submits counts single Submits up to submitWindowStride.
	submits int

	// slots[w] is executor slot w's own state: workers 0..Workers-1, the
	// producer-as-consumer at Workers. Finishes from contexts without a
	// slot (detach events, abort cancellation) touch none of it.
	slots []slotState

	// Failure-domain state, scoped to one wait window: Taskwait drains
	// the graph, composes these into the returned *fault.TaskError and
	// resets them, so the runtime is reusable after a failure.
	failMu      sync.Mutex
	failures    []*fault.TaskError
	failDropped int
	abortCause  error // first Abort cause (under failMu)
	// aborted is the cooperative cancellation flag workers check before
	// each body; set by Abort, cleared when Taskwait drains the window.
	aborted atomic.Bool

	// detachLive maps every outstanding detached task instance to its
	// Event, inserted by the producer before the event's task pointer is
	// published and removed by whichever path claims the event (Fulfill,
	// poison skip, body failure, abort cancellation). Abort cancels only
	// armed entries — tasks whose body already ran and therefore sit in
	// no scheduler queue; unexecuted ones are skipped by the worker that
	// pops them, so a queued task is never completed behind its back.
	detachMu   sync.Mutex
	detachLive map[*graph.Task]*Event

	// recSig is the verifier's signature of the graph's latest recording
	// (Config.Verify), taken by recordIteration: what a Recording made
	// from it keeps as its own. Producer-only.
	recSig uint64
}

// slotState is what one executor slot keeps between its finishes,
// written and read only by the owning goroutine: 40 bytes of fields
// padded to one 64-byte record, so what a finish touches sits together
// and neighbouring slots' writes never share a cache line.
type slotState struct {
	// relBuf is the reused buffer the slot's finishes release into.
	relBuf []*graph.Task
	// chained is the one task the slot's last finish kept for it
	// (handOver), taken on the slot's next loop turn, before any pop or
	// park, or, for the producer, before it returns to discovery
	// (throttle). A kept task is unfinished, so it holds the live gauge
	// above the producer's wait.
	chained *graph.Task
	// chainFin counts the slot's deferred compiled-path finishes
	// (graph.Compiled.FinishIntoDeferred) not yet taken off the live
	// gauge; settled in one graph.Retire when the slot's chain has ended
	// (settleChain).
	chainFin int64
	_        [24]byte
}

// producerID is the scheduler slot the producer consumes under
// (taskwait, throttle): its own deque, so producer-executed chains keep
// depth-first locality.
func (rt *Runtime) producerID() int { return rt.cfg.Workers }

// NewRuntime validates cfg, then creates and starts a runtime. Close
// must be called to join the workers. Validation failures — a profile
// with too few slots, negative counts, out-of-range enum values — are
// returned as descriptive errors.
func NewRuntime(cfg Config) (*Runtime, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	gopts := cfg.Opts
	if cfg.Verify != verify.Off {
		// Materialize edges to already-completed predecessors so the
		// audit sees temporal orderings as paths (see OptKeepPrunedEdges).
		gopts |= graph.OptKeepPrunedEdges
	}
	rt := &Runtime{
		cfg:        cfg,
		s:          sched.New(cfg.Policy, cfg.Workers),
		detachLive: make(map[*graph.Task]*Event),
		throttleOn: cfg.ThrottleTotal > 0 || cfg.ThrottleReady > 0,
	}
	// Every instrument measures from one origin: the profile's epoch,
	// so spans and critical-path stamps fall on its task records' time
	// line, or else this moment.
	origin := time.Now()
	if cfg.Profile != nil {
		origin = cfg.Profile.Epoch()
	}
	// Registry slots mirror the scheduler's: workers 0..W-1 plus the
	// producer-as-consumer at W (the external shard is implicit).
	rt.obs = obs.New(cfg.Workers+1, origin, cfg.Obs)
	rt.s.SetObs(rt.obs)
	cfg.Inject.SetMetrics(rt.obs)
	rt.registerCollectors()
	if cfg.Verify != verify.Off {
		rt.ver = verify.NewRecorder(cfg.Opts)
	}
	var clock *graph.Clock
	if cfg.CPath.Enable {
		clock = graph.NewClock(origin, cfg.CPath.Precise)
		rt.cp = cpath.New(cfg.Workers+1, rt.obs, clock, cpath.Options{
			Retain:  cfg.CPath.Retain,
			PathMax: cfg.CPath.PathMax,
		})
	}
	rt.g = graph.NewWithConfig(graph.Config{
		Opts:  gopts,
		Clock: clock,
		OnReady: func(t *graph.Task) {
			// Producer-side readiness: route through the global FIFO.
			rt.s.Push(-1, t)
		},
		OnReadyBatch: func(ts []*graph.Task) {
			// Batch submission: one queue lock + one wake-up.
			rt.s.PushBatch(-1, ts)
		},
	})
	rt.slots = make([]slotState, cfg.Workers+1)
	if p := cfg.Profile; p != nil {
		// The producer's slot is in the breakdown from here on: its
		// discovery is overhead, not a gap.
		p.SetState(rt.producerID(), trace.Overhead, p.Now())
	}
	if cfg.Obs.Addr != "" {
		srv, err := obs.Serve(cfg.Obs.Addr, rt.httpHandler())
		if err != nil {
			return nil, fmt.Errorf("rt: Obs.Addr %q: %w", cfg.Obs.Addr, err)
		}
		rt.obsSrv = srv
	}
	for w := 0; w < cfg.Workers; w++ {
		rt.wg.Add(1)
		go rt.worker(w)
	}
	return rt, nil
}

// registerCollectors wires the callback-backed /metrics series: edge
// counters read from the graph's own discovery stats, and the
// live-state gauges. Collectors run at scrape time only, so the
// discovery and execution hot paths pay nothing for them.
func (rt *Runtime) registerCollectors() {
	reg := rt.obs
	reg.RegisterCounterFunc("taskdep_edges_created_total", func() int64 { return rt.g.Stats().EdgesCreated })
	reg.RegisterCounterFunc("taskdep_edges_deduped_total", func() int64 { return rt.g.Stats().EdgesDuplicate })
	reg.RegisterCounterFunc("taskdep_edges_redirected_total", func() int64 { return rt.g.Stats().RedirectNodes })
	reg.RegisterCounterFunc("taskdep_edges_pruned_total", func() int64 { return rt.g.Stats().EdgesPruned })
	reg.RegisterCounterFunc("taskdep_windows_ended_total", func() int64 { return rt.g.Stats().WindowsEnded })
	reg.RegisterCounterFunc("taskdep_tasks_reused_total", func() int64 { return rt.g.Stats().TasksReused })
	reg.RegisterGauge("taskdep_graph_live_tasks", func() float64 { return float64(rt.g.Live()) })
	reg.RegisterGauge("taskdep_graph_ready_tasks", func() float64 { return float64(rt.g.ReadyCount()) })
	reg.RegisterGauge("taskdep_sched_pending_tasks", func() float64 { return float64(rt.s.Pending()) })
	reg.RegisterGauge("taskdep_detached_tasks", func() float64 { return float64(rt.detached.Load()) })
	reg.RegisterGauge("taskdep_failure_epoch", func() float64 { return float64(rt.g.FailEpoch()) })
}

// Obs returns the runtime's metrics registry (always non-nil; its
// tiers reflect Config.Obs).
func (rt *Runtime) Obs() *obs.Registry { return rt.obs }

// ObsAddr returns the bound introspection-endpoint address, or "" when
// Config.Obs.Addr was empty. Useful with "localhost:0".
func (rt *Runtime) ObsAddr() string { return rt.obsSrv.Addr() }

// Snapshot is the /graphz introspection payload: frontier, ready and
// live state plus the failure-domain view, racy-but-monotone while
// tasks run, exact at quiescent points.
type Snapshot struct {
	Workers         int         `json:"workers"`
	Policy          string      `json:"policy"`
	Live            int64       `json:"live"`
	Ready           int64       `json:"ready"`
	Pending         int         `json:"pending"`
	Detached        int64       `json:"detached"`
	Iter            int32       `json:"iter"`
	Aborted         bool        `json:"aborted"`
	FailEpoch       uint64      `json:"fail_epoch"`
	Failures        int         `json:"failures"`
	FailuresDropped int         `json:"failures_dropped"`
	Discovery       graph.Stats `json:"discovery"`
	// Replay is present while a persistent iteration runs off a compiled
	// schedule. Live then counts the iteration's positions not yet
	// finished, released or not, and Ready nothing (the schedule keeps no
	// ready gauge).
	Replay *ReplaySnapshot `json:"replay,omitempty"`
}

// ReplaySnapshot is the state of the compiled schedule an iteration is
// running on.
type ReplaySnapshot struct {
	Tasks int `json:"tasks"` // positions in the schedule
	// Released is what the producer had handed over at its latest
	// publication point: all of a frozen iteration; of a gated one, as
	// of its start, its body's latest Taskwait or its end.
	Released int `json:"released"`
	// Edges is what the schedule walks per iteration, EdgesRecorded what
	// the recording declared; the difference is transitively implied.
	Edges         int `json:"edges"`
	EdgesRecorded int `json:"edges_recorded"`
}

// Introspect captures the runtime's live state (the /graphz payload).
// Safe from any goroutine.
func (rt *Runtime) Introspect() Snapshot {
	rt.failMu.Lock()
	nFail, nDrop := len(rt.failures), rt.failDropped
	rt.failMu.Unlock()
	var replay *ReplaySnapshot
	if cs := rt.compiled.Load(); cs != nil {
		replay = &ReplaySnapshot{Tasks: cs.Len(), Released: cs.Released()}
		replay.Edges, replay.EdgesRecorded = cs.Edges()
	}
	return Snapshot{
		Replay:          replay,
		Workers:         rt.cfg.Workers,
		Policy:          rt.cfg.Policy.String(),
		Live:            rt.g.Live(),
		Ready:           rt.g.ReadyCount(),
		Pending:         rt.s.Pending(),
		Detached:        rt.detached.Load(),
		Iter:            rt.iter.Load(),
		Aborted:         rt.aborted.Load(),
		FailEpoch:       rt.g.FailEpoch(),
		Failures:        nFail,
		FailuresDropped: nDrop,
		Discovery:       rt.g.Stats(),
	}
}

// depHash is an FNV-1a fold of a task's declared dependence set, the
// key-set fingerprint attached to span events.
func depHash(t *graph.Task) uint64 {
	var buf [4]graph.Dep
	deps, _ := t.DeclaredDeps(buf[:0])
	h := uint64(14695981039346656037)
	for _, d := range deps {
		h ^= uint64(d.Key)
		h *= 1099511628211
		h ^= uint64(d.Type)
		h *= 1099511628211
	}
	return h
}

// Graph exposes the underlying dependency graph (stats, tests).
func (rt *Runtime) Graph() *graph.Graph { return rt.g }

// Scheduler exposes the scheduler (tests).
func (rt *Runtime) Scheduler() *sched.Scheduler { return rt.s }

// Spec describes one task submission.
type Spec struct {
	Label string
	// In/Out/InOut/InOutSet list the dependence keys by type. Discovery
	// reads them during the submission call and never writes or retains
	// them, so specs may share a slice — and consecutive specs that share
	// one In slice are admitted to a read run in O(1), without a key
	// compare (graph.TaskDesc).
	In       []graph.Key
	Out      []graph.Key
	InOut    []graph.Key
	InOutSet []graph.Key
	// Do is the canonical work closure: it receives FirstPrivate, and a
	// non-nil return aborts the task exactly like a panic, poisoning
	// its successor cone and surfacing from the next Taskwait as a
	// *fault.TaskError. New code should set Do.
	Do func(arg any) error
	// Body is a thin adapter over Do for bodies that cannot fail —
	// equivalent to a Do that always returns nil, without the error
	// plumbing. When both are set, Do wins. Kept for infallible inner
	// loops (TaskLoop chunks) and backward compatibility.
	Body func(fp any)
	// DetachedBody is the work closure of a detached task; it receives
	// FirstPrivate and the task's detach event, which the body (or an
	// external engine it arms) must eventually Fulfill. Set Detached.
	DetachedBody func(fp any, ev *Event)
	// FirstPrivate is copied into the task (and re-copied on each
	// persistent replay).
	FirstPrivate any
	// Detached defers completion until the returned Event is fulfilled.
	Detached bool
}

// depsInto appends the Spec's dependence declarations to buf, in the
// order discovery walks them, and returns it: the verifier's form of the
// lists (Config.Verify). Callers reuse producer-owned buffers; the
// verifier copies what it keeps.
func (s *Spec) depsInto(buf []graph.Dep) []graph.Dep {
	for _, k := range s.In {
		buf = append(buf, graph.Dep{Key: k, Type: graph.In})
	}
	for _, k := range s.Out {
		buf = append(buf, graph.Dep{Key: k, Type: graph.Out})
	}
	for _, k := range s.InOut {
		buf = append(buf, graph.Dep{Key: k, Type: graph.InOut})
	}
	for _, k := range s.InOutSet {
		buf = append(buf, graph.Dep{Key: k, Type: graph.InOutSet})
	}
	return buf
}

// Event completes a detached task from outside the worker pool (e.g. an
// MPI completion callback). Call Fulfill exactly once.
//
// The event is delivered to the task body as its second argument (see
// Spec.Detached), so the body can register it with the external engine
// before returning — the OpenMP detach(event) pattern.
type Event struct {
	rt *Runtime
	t  atomic.Pointer[graph.Task]
	// body is the task's Spec.DetachedBody. The executor calls it with
	// the event it read off the task (runBody), so a detached task carries
	// no Body or Do of its own.
	body func(fp any, ev *Event)
	// fired makes completion exactly-once under races between Fulfill
	// and the failure domain (abort cancellation, poison skip, a body
	// that fulfilled synchronously and then panicked): whichever path's
	// Swap(true) reads false completes the task; the others are no-ops.
	// The claim is an unconditional XCHG, not a CAS loop — with only two
	// states and a monotone transition, exactly one of any set of
	// concurrent swappers observes false, and losers store the value
	// already present.
	fired atomic.Bool
	// armed records that the task's body ran and returned: the task is
	// in no scheduler queue, waiting only on external fulfillment, so
	// Abort may complete it exceptionally.
	armed atomic.Bool
}

// Fulfill completes the detached task, releasing its successors. It may
// be called from any goroutine, including synchronously from within the
// task body. Idempotent against the runtime's abort paths: if an abort
// or poison skip already completed the task, Fulfill is a no-op.
func (e *Event) Fulfill() {
	// The task pointer is published right after submission; a body that
	// completes its request synchronously can race that window.
	t := e.t.Load()
	for t == nil {
		runtime.Gosched()
		t = e.t.Load()
	}
	if e.rt.claimDetached(t, e) {
		e.rt.finish(-1, t, graph.Completed)
	}
}

// claimDetached claims the completion of detached task t through its
// event: of Fulfill, a poison skip, a body failure and abort
// cancellation exactly one wins the fired swap, and the winner takes t
// out of the abort registry and off the detached gauge before it
// finishes t. Reports whether the caller won. cancelDetached claims in
// its own batch form, under the lock it already holds.
func (rt *Runtime) claimDetached(t *graph.Task, ev *Event) bool {
	if ev.fired.Swap(true) {
		return false
	}
	rt.detachMu.Lock()
	delete(rt.detachLive, t)
	rt.detachMu.Unlock()
	rt.detached.Add(-1)
	return true
}

// newEvent returns the detach event of a task submitted from spec, nil
// for a task that is not detached.
func (rt *Runtime) newEvent(spec *Spec) *Event {
	if !spec.Detached {
		return nil
	}
	return &Event{rt: rt, body: spec.DetachedBody}
}

// finishSubmit is created for a task a replayed iteration resubmitted,
// counted as submitted; it returns the detach event.
func (rt *Runtime) finishSubmit(t *graph.Task, ev *Event) *Event {
	rt.obs.IncSlot(rt.producerID(), obs.CTasksSubmitted)
	rt.created(t, ev)
	return ev
}

// created is the bookkeeping of a task once discovered or resubmitted:
// the profile's creation record and, for a detached task, its event's
// registration.
func (rt *Runtime) created(t *graph.Task, ev *Event) {
	if p := rt.cfg.Profile; p != nil {
		p.TaskCreated(p.Now())
	}
	if ev != nil {
		rt.detached.Add(1)
		rt.registerDetached(t, ev)
		// Publish the task pointer last: Fulfill spins on it, so a
		// non-nil load implies the registry entry is visible too.
		ev.t.Store(t)
	}
}

// registerDetached records a live detached task for abort enumeration.
// The event itself travels on the task (graph.Task.Attach, written
// before publication), so workers never need this registry; a worker or
// external Fulfill may therefore claim the task before the producer
// gets here. The fired guard keeps such an already-claimed task from
// being inserted, and both this check and the claimers' delete run
// under detachMu, so an entry can neither leak nor be claimed twice.
func (rt *Runtime) registerDetached(t *graph.Task, ev *Event) {
	rt.detachMu.Lock()
	if !ev.fired.Load() {
		rt.detachLive[t] = ev
	}
	rt.detachMu.Unlock()
}

// Submit discovers one task: a graph batch of one, its desc staged as
// SubmitBatch stages a chunk's but on the stack, without a chunk's span,
// window end and yield. Producer-only. In a persistent replay it
// degenerates to the recorded task's firstprivate update. It returns the
// detach event for Detached tasks, else nil.
func (rt *Runtime) Submit(spec Spec) *Event {
	if cs := rt.replay; cs != nil {
		return rt.resubmit(cs, &spec)
	}
	rt.throttle()
	if rt.submits++; rt.submits == submitWindowStride {
		rt.submits = 0
		rt.endWindow()
	}
	var d [1]graph.TaskDesc
	ev := rt.toDesc(&d[0], &spec)
	var ts [1]*graph.Task
	t := rt.g.SubmitBatch(d[:], ts[:0])[0]
	rt.obs.IncSlot(rt.producerID(), obs.CTasksSubmitted)
	rt.discovered(&spec, t, ev)
	return ev
}

// resubmit is Submit inside a replayed iteration: the spec refreshes the
// next recorded task — firstprivate, closures, a new event for a
// detached one — and drops the producer's hold on it. No throttle: there
// is nothing to discover or allocate (see Config.ThrottleTotal). The
// dependence list is built for the verifier only; the schedule has the
// recorded edges.
func (rt *Runtime) resubmit(cs *graph.Compiled, spec *Spec) *Event {
	ev := rt.newEvent(spec)
	body, do := spec.Body, spec.Do
	var attach any
	if ev != nil {
		body, do, attach = nil, nil, ev
	}
	// The span is ended only when sampled: End on the zero Span is a
	// no-op, but passing the 48-byte value costs a copy per task.
	sampled := rt.obs.Sampled(rt.producerID())
	var sp obs.Span
	if sampled {
		sp = rt.obs.BeginSpan(rt.producerID(), obs.SpanReplayCopy, 0, 0, int(rt.iter.Load()))
	}
	t := cs.Replay(spec.FirstPrivate, body, do, attach)
	if sampled {
		sp.End()
	}
	if rt.ver != nil {
		rt.depBuf = spec.depsInto(rt.depBuf[:0])
		rt.ver.ReplayNext(spec.Label, rt.depBuf)
	}
	return rt.finishSubmit(t, ev)
}

// submitWindowStride is how many single Submits the producer makes
// between two tries to end the graph's window: one task chunk's worth
// (graph's chunkTasks), so a window that ends recycles at least as many
// tasks as it clears.
const submitWindowStride = 128

// endWindow ends the graph's discovery window where it has drained
// (graph.EndWindow): the frontier is forgotten and the window's task
// memory reused. Called only at boundaries the producer pays for anyway
// — a SubmitBatch chunk, a Taskwait, every submitWindowStride-th Submit
// — and never inside a persistent region or an aborted window, whose
// skips are still to come.
func (rt *Runtime) endWindow() {
	if !rt.inPersistent && !rt.aborted.Load() {
		rt.g.EndWindow()
	}
}

// batchChunk bounds how many tasks one graph.SubmitBatch call covers,
// so throttling keeps engaging at a useful granularity inside large
// batches (the producer may overshoot the thresholds by at most one
// chunk).
const batchChunk = 256

// SubmitBatch discovers every task in specs through the graph's batch
// path, amortizing throttling checks, dependence staging, allocator
// traffic and ready-queue publication across the batch. Producer-only,
// semantically equivalent to calling Submit for each spec in order
// (inside a persistent replay it degenerates to exactly that).
//
// The returned slice is nil unless at least one spec is Detached, in
// which case it has len(specs) entries and the detach events sit at
// their spec's index.
func (rt *Runtime) SubmitBatch(specs []Spec) []*Event {
	if len(specs) == 0 {
		return nil
	}
	if cs := rt.replay; cs != nil {
		var evs []*Event
		for i := range specs {
			if ev := rt.resubmit(cs, &specs[i]); ev != nil {
				if evs == nil {
					evs = make([]*Event, len(specs))
				}
				evs[i] = ev
			}
		}
		return evs
	}
	var evs []*Event
	for lo := 0; lo < len(specs); lo += batchChunk {
		hi := lo + batchChunk
		if hi > len(specs) {
			hi = len(specs)
		}
		evs = rt.submitBatchChunk(specs, lo, hi, evs)
	}
	return evs
}

// toDesc fills d, a desc of Submit's or of a SubmitBatch chunk, from s
// and returns s's detach event, if any. The fields are stored in place: a
// composite literal would be built on the stack and copied in, 168 bytes
// a task.
func (rt *Runtime) toDesc(d *graph.TaskDesc, s *Spec) *Event {
	ev := rt.newEvent(s)
	d.Label = s.Label
	d.In, d.Out, d.InOut, d.InOutSet = s.In, s.Out, s.InOut, s.InOutSet
	d.Body, d.Do = s.Body, s.Do
	d.FirstPrivate = s.FirstPrivate
	d.Detached = s.Detached
	d.Attach = nil
	if ev != nil {
		d.Body, d.Do, d.Attach = nil, nil, ev
	}
	return ev
}

// discovered is the bookkeeping of t, discovered from s, that Submit and
// SubmitBatch share: the verifier's record, then created's.
func (rt *Runtime) discovered(s *Spec, t *graph.Task, ev *Event) {
	if rt.ver != nil {
		rt.depBuf = s.depsInto(rt.depBuf[:0])
		rt.ver.Record(t, rt.depBuf)
	}
	rt.created(t, ev)
}

// batchStage is the SubmitBatch staging buffer set (Runtime.stage).
type batchStage struct {
	descs []graph.TaskDesc
	tasks []*graph.Task
}

// submitBatchChunk stages and submits specs[lo:hi] as one graph batch.
func (rt *Runtime) submitBatchChunk(specs []Spec, lo, hi int, evs []*Event) []*Event {
	rt.throttle()
	// The previous chunk's yield has most often let the workers drain it.
	rt.endWindow()
	// Discovery-batch span: TaskID carries the chunk size (there is no
	// single task), recorded unsampled — chunks are coarse.
	var sp obs.Span
	if rt.obs.TimingOn() {
		sp = rt.obs.BeginSpan(rt.producerID(), obs.SpanDiscoveryBatch, int64(hi-lo), 0, int(rt.iter.Load()))
	}
	st := &rt.stage
	descs := slices.Grow(st.descs[:0], hi-lo)[:hi-lo]
	for i := lo; i < hi; i++ {
		if ev := rt.toDesc(&descs[i-lo], &specs[i]); ev != nil {
			if evs == nil {
				evs = make([]*Event, len(specs))
			}
			evs[i] = ev
		}
	}
	tasks := rt.g.SubmitBatch(descs, st.tasks[:0])
	rt.obs.AddSlot(rt.producerID(), obs.CTasksSubmitted, int64(len(tasks)))
	for i, t := range tasks {
		var ev *Event
		if t.Detached {
			ev = evs[lo+i]
		}
		rt.discovered(&specs[lo+i], t, ev)
	}
	// Drop closure/task references before keeping the buffers.
	clear(descs)
	clear(tasks)
	st.descs, st.tasks = descs[:0], tasks[:0]
	sp.End()
	// Hand the P to the workers the chunk's ready tasks woke. Where they
	// have a P of their own this returns at once. Where they do not, the
	// producer would otherwise keep the P for a scheduler quantum and
	// discover thousands of tasks against predecessors that are ready and
	// have not run, an edge materialized, stored and later decremented for
	// each; after the yield they have finished, and the next chunk's
	// constraints on them are pruned on one load. It also bounds how far
	// discovery runs ahead of execution to about a chunk. Not while a
	// region records: there every edge inside the recording is kept
	// whether its predecessor has finished or not, and so is every task,
	// so the yield would buy nothing.
	if !rt.inPersistent {
		runtime.Gosched()
	}
	return evs
}

// TaskLoop partitions [0,n) into numTasks contiguous chunks and submits
// one task per chunk, the runtime's equivalent of `taskloop num_tasks(t)`
// with a depend clause. depsFor returns the Spec (without Body) for chunk
// c covering [lo,hi); body receives the chunk bounds. Chunks are
// submitted through the batch path.
func (rt *Runtime) TaskLoop(n, numTasks int, depsFor func(c, lo, hi int) Spec, body func(lo, hi int)) {
	if numTasks <= 0 {
		numTasks = 1
	}
	if numTasks > n {
		numTasks = n
	}
	specs := rt.loopSpecs[:0]
	for c := 0; c < numTasks; c++ {
		lo := c * n / numTasks
		hi := (c + 1) * n / numTasks
		spec := depsFor(c, lo, hi)
		l, h := lo, hi
		spec.Body = func(any) { body(l, h) }
		specs = append(specs, spec)
	}
	rt.SubmitBatch(specs)
	clear(specs)
	rt.loopSpecs = specs[:0]
}

// throttle blocks the producer while the graph exceeds the configured
// thresholds, executing tasks meanwhile ("producer threads stop producing
// and start consuming").
func (rt *Runtime) throttle() {
	if !rt.throttleOn {
		return
	}
	for rt.overThrottle() {
		if !rt.produceConsumeOne() {
			rt.obs.IncSlot(rt.producerID(), obs.CThrottleStalls)
			rt.producerIdle(func() bool { return !rt.overThrottle() })
		}
	}
	// The producer's slot is the only executor that leaves its consume
	// loop for other work: the task its last run kept (handOver) would
	// sit unseen until the next stall or Taskwait, so it goes to the
	// slot's deque, stealable, with a wake — its owner is not about to
	// pop it.
	id := rt.producerID()
	if t := rt.takeChained(id); t != nil {
		rt.s.Push(id, t)
		rt.s.WakeOne()
	}
}

func (rt *Runtime) overThrottle() bool {
	tot, rdy := rt.cfg.ThrottleTotal, rt.cfg.ThrottleReady
	return (tot > 0 && rt.g.Live() >= tot) || (rdy > 0 && rt.g.ReadyCount() >= rdy)
}

// takeChained claims the task the slot's last finish kept (handOver),
// if any. Owner-only.
func (rt *Runtime) takeChained(slot int) *graph.Task {
	sl := &rt.slots[slot]
	t := sl.chained
	sl.chained = nil
	return t
}

// produceConsumeOne lets the producer execute one ready task; reports
// whether it ran something.
func (rt *Runtime) produceConsumeOne() bool {
	id := rt.producerID()
	t := rt.takeChained(id)
	if t == nil {
		t = rt.s.Pop(id)
	}
	if t == nil {
		return false
	}
	rt.execute(id, t)
	if rt.slots[id].chainFin != 0 {
		rt.settleChain(id)
	}
	return true
}

// producerIdle blocks the producer when it has nothing to execute,
// following the scheduler's parking protocol: announce (PrePark),
// re-check every wake condition — queued work, the caller's wait
// predicate done(), the wake counter — and only then park. Completions
// wake the producer slot via WakeProducer on the transitions done()
// watches (counter drops, graph drain); publications reach it through
// the normal wake path. The profile counts the park as the slot's idle
// time, and the rest of the producer's time outside bodies — discovery
// included — as overhead.
func (rt *Runtime) producerIdle(done func() bool) {
	snap := rt.s.PrePark(-1)
	if rt.s.Pending() > 0 || done() || rt.s.Seq() != snap {
		rt.s.CancelPark(-1)
		return
	}
	p := rt.cfg.Profile
	if p != nil {
		p.SetState(rt.producerID(), trace.Idle, p.Now())
	}
	rt.s.Park(-1)
	if p != nil {
		p.SetState(rt.producerID(), trace.Overhead, p.Now())
	}
}

// Taskwait blocks the producer until every discovered task has reached
// a terminal state, executing ready tasks meanwhile. It flushes open
// inoutset groups first (a synchronization point).
//
// If any task failed since the previous synchronization point — its
// body panicked or its Do returned an error — Taskwait returns the
// first failure as a *fault.TaskError, with the remaining failures
// errors.Join-ed into its Siblings field; if the window was Abort-ed,
// the abort cause is included. The graph is fully drained either way
// (failed cones as Skipped), and the failure state is reset: the
// runtime is reusable after an error.
//
// Inside a replayed persistent iteration Taskwait waits for the tasks
// the body has resubmitted so far, as it did when the iteration was
// recorded: the rest of the recording is live but cannot start before
// its Submit. Where the body waits is part of the shape it must keep —
// the wait that closed an inoutset group in the recording has to be
// there again for the group's redirect node to finish. A compiled
// iteration's implicit barrier is a Taskwait after its body.
//
// Every wait is on the live gauge: the producer executes ready tasks
// (its own deque first, then the shared queues) until no more tasks are
// live than the target — none, or inside a replayed body the positions
// not yet released. The gauge cannot pass below the target, so the
// finisher that brings it there is the one to wake the producer
// (waitTarget).
func (rt *Runtime) Taskwait() error {
	var target int64
	if cs := rt.replay; cs != nil {
		target = int64(cs.Len() - cs.PublishCursor())
	}
	// A no-op on a compiled iteration: its body discovers nothing, and
	// the recording barrier closed every group.
	rt.g.Flush()
	if rt.obs.TimingOn() {
		sp := rt.obs.BeginSpan(rt.producerID(), obs.SpanTaskwait, rt.g.Live()-target, 0, int(rt.iter.Load()))
		defer sp.End()
	}
	rt.waitTarget.Store(target)
	for rt.g.Live() > target {
		if !rt.produceConsumeOne() {
			rt.producerIdle(func() bool { return rt.g.Live() <= target })
		}
	}
	rt.waitTarget.Store(0)
	err := rt.settleWindow()
	rt.endWindow()
	return err
}

// settleWindow is the bookkeeping of a quiescent point — every task
// released so far is terminal, no body in flight — at the end of every
// Taskwait: counter flush, critical-path window, Full-mode audit, and
// the window's failure state.
func (rt *Runtime) settleWindow() error {
	// Publish the producer's pending counter deltas (workers publish
	// theirs as they park; Close drains every slot).
	rt.obs.FlushSlot(rt.producerID())
	if rt.cp != nil {
		// Close the critical-path window: every Observe was sequenced
		// before a live-gauge decrement this goroutine has observed — the
		// slot merge is race-free.
		rt.cp.EndWindow(rt.cfg.Workers)
	}
	if rt.ver != nil && rt.cfg.Verify == verify.Full {
		// Paranoid mode: audit the whole discovered graph at every
		// synchronization point; the latest report is kept for
		// LastVerifyReport.
		rt.lastAudit.Store(rt.ver.Audit(rt.g.RedirectNodes()))
	}
	return rt.takeFailure()
}

// takeFailure composes and clears the drained window's failure state.
// Called only at quiescent points (graph drained, no body in flight).
func (rt *Runtime) takeFailure() error {
	rt.failMu.Lock()
	fails := rt.failures
	dropped := rt.failDropped
	cause := rt.abortCause
	rt.failures = nil
	rt.failDropped = 0
	rt.abortCause = nil
	rt.failMu.Unlock()
	rt.aborted.Store(false)
	if len(fails) == 0 && cause == nil {
		return nil
	}
	// The producer is observing this window's failures: advance the
	// graph's failure epoch so keys last written by a failed task stop
	// poisoning new successors — the runtime is reusable afterwards.
	rt.g.ConsumeFailures()
	if len(fails) == 0 {
		return cause // a pure Abort with no failed task
	}
	primary := fails[0]
	var sibs []error
	for _, te := range fails[1:] {
		sibs = append(sibs, te)
	}
	if dropped > 0 {
		sibs = append(sibs, fmt.Errorf("rt: %d further task failures not recorded", dropped))
	}
	if cause != nil {
		sibs = append(sibs, cause)
	}
	primary.Siblings = errors.Join(sibs...)
	return primary
}

// recordFailure captures t's identity and cause as a *fault.TaskError.
// Bounded: beyond maxRecordedFailures per window only a count is kept,
// so a mass failure cannot accumulate unbounded error state.
func (rt *Runtime) recordFailure(t *graph.Task, cause error) {
	keys, trunc := t.DeclaredDeps(nil)
	te := &fault.TaskError{
		TaskID:        t.ID,
		Label:         t.Label,
		Keys:          keys,
		KeysTruncated: trunc,
		Cause:         cause,
	}
	var pe *fault.PanicError
	if errors.As(cause, &pe) {
		te.Stack = pe.Stack
	}
	rt.failMu.Lock()
	if len(rt.failures) < maxRecordedFailures {
		rt.failures = append(rt.failures, te)
	} else {
		rt.failDropped++
	}
	rt.failMu.Unlock()
}

// maxRecordedFailures bounds the per-window failure list.
const maxRecordedFailures = 64

// Abort cancels the current wait window cooperatively: tasks that have
// not started are completed as Skipped when a worker reaches them (no
// body runs), detached tasks already waiting on an external event are
// fulfilled exceptionally (their completion may never arrive once peers
// failed), and bodies already running are left to finish — there is no
// preemption. The next Taskwait drains the graph and returns err (or
// fault.ErrAborted when err is nil, or the window's task failures with
// err joined in). Safe to call from any goroutine, including task
// bodies; the first cause wins.
func (rt *Runtime) Abort(err error) {
	if err == nil {
		err = fault.ErrAborted
	}
	rt.failMu.Lock()
	if rt.abortCause == nil {
		rt.abortCause = err
	}
	rt.failMu.Unlock()
	rt.aborted.Store(true)
	rt.cancelDetached()
	// Wake everyone: parked workers must drain the now-skippable queue,
	// and a parked producer must observe the counters move.
	rt.s.Kick()
	rt.s.WakeProducer()
}

// Aborted reports whether the current wait window was Abort-ed.
func (rt *Runtime) Aborted() bool { return rt.aborted.Load() }

// cancelDetached claims and exceptionally completes every armed
// detached task (body ran, event unfired, in no queue). Unarmed entries
// are left for their popping worker's skip path. Runs both from Abort
// and from armDetached when arming races an abort.
func (rt *Runtime) cancelDetached() {
	type victim struct {
		t  *graph.Task
		ev *Event
	}
	var victims []victim
	rt.detachMu.Lock()
	for t, ev := range rt.detachLive {
		if !ev.armed.Load() {
			continue
		}
		if !ev.fired.Swap(true) {
			victims = append(victims, victim{t, ev})
		}
		delete(rt.detachLive, t)
	}
	rt.detachMu.Unlock()
	for _, v := range victims {
		rt.finish(-1, v.t, graph.Skipped)
		rt.detached.Add(-1)
	}
}

// detachEvent returns t's event. It rides on the task itself — written
// before publication (or before replay release) — so the worker holding
// t reads it without locks and without racing the registry.
func (rt *Runtime) detachEvent(t *graph.Task) *Event {
	return t.Attach.(*Event)
}

// armDetached marks a detached task, named by its event, as waiting on
// external fulfillment (body returned without failing). If an abort
// raced the arming, run the cancellation pass again so the task cannot
// be stranded: either the abort's pass saw armed (and claimed it), or
// this re-run does.
func (rt *Runtime) armDetached(ev *Event) {
	ev.armed.Store(true)
	if rt.aborted.Load() {
		rt.cancelDetached()
	}
}

// Verify runs the TDG verifier over everything discovered so far and
// returns the report (including accumulated replay divergences). For a
// consistent view call it at a quiescent point (after Taskwait).
// Returns nil when Config.Verify is verify.Off.
func (rt *Runtime) Verify() *verify.Report {
	if rt.ver == nil {
		return nil
	}
	rep := rt.ver.Audit(rt.g.RedirectNodes())
	rt.lastAudit.Store(rep)
	return rep
}

// LastVerifyReport returns the most recent audit (from a Full-mode
// Taskwait or an explicit Verify call), or nil.
func (rt *Runtime) LastVerifyReport() *verify.Report { return rt.lastAudit.Load() }

// execute runs one task as worker w (-1 = producer) and completes it.
// Poisoned tasks (a predecessor failed) and tasks caught by an abort
// never run their body: they are terminally Skipped, still releasing
// their successors so the graph drains.
func (rt *Runtime) execute(w int, t *graph.Task) {
	// compiled: t is a recorded task of the compiled iteration in flight
	// (finish retires it through the schedule). Instrumented and bare
	// runs share this path, so Config.Profile, span timing and the
	// critical-path profiler observe what production executes.
	compiled := t.Persistent && rt.compiled.Load() != nil
	if t.Poisoned() || rt.aborted.Load() {
		rt.skip(w, t)
		return
	}
	// A detached task can be completed by an external Fulfill while its
	// queue publication is still in flight; the event's fired claim says
	// so. A Fulfill that lands after this check is caught by the start,
	// a claim a finished task refuses (graph.Start): storing Running over
	// the terminal state would leave a ghost-live task that silently
	// blocks every later successor discovered against its keys.
	// What the executor needs of a detached task after its body is read
	// here, before it: a Fulfill during the body completes the task, and in
	// a persistent region the producer may then replay it — attaching the
	// next iteration's event — before this executor is done. A detached
	// task's memory is never reused (graph.EndWindow), since a run queue may
	// still hold it after an early Fulfill; fail's failure report reads it.
	detached, redirect := t.Detached, t.Redirect
	var ev *Event
	if detached {
		if ev = rt.detachEvent(t); ev.fired.Load() {
			return
		}
	}
	p := rt.cfg.Profile
	slot := w
	if slot < 0 {
		slot = rt.cfg.Workers // producer slot
	}
	// The profile's record opens before the start stamp, so the stamp
	// lies inside it.
	var t0 float64
	var id int64
	var label string
	if p != nil {
		t0 = p.Now()
		id, label = t.ID, t.Label
	}
	if !compiled {
		if !rt.g.Start(t) { // stamps the body-start clock when CPath is on
			return
		}
	} else {
		// Compiled replay leaves states terminal between transitions (see
		// graph.Compiled.FinishIntoDeferred): nothing reads Running there,
		// and skipping the store keeps an atomic full barrier off the
		// steady-state path. The phase clock still gets its start stamp.
		rt.g.StampStart(t)
	}
	if p != nil {
		p.SetState(slot, trace.Work, t0)
	}
	// Task-body span, sampled (Obs.SpanSample) to amortize the two
	// timestamps. An unsampled body skips End: it would be a no-op on the
	// zero Span, after a 48-byte copy per task.
	sampled := !redirect && rt.obs.Sampled(slot)
	var sp obs.Span
	if sampled {
		sp = rt.obs.BeginSpan(slot, obs.SpanTaskBody, t.ID, depHash(t), int(rt.iter.Load()))
	}
	err := rt.runBody(t, ev)
	if sampled {
		sp.End()
	}
	if p != nil {
		t1 := p.Now()
		p.SetState(slot, trace.Overhead, t1)
		if !redirect {
			p.TaskScheduled(trace.TaskRecord{
				TaskID: id, Label: label, Worker: slot,
				Iter: int(rt.iter.Load()), Start: t0, End: t1,
			})
		}
	}
	if err != nil {
		rt.fail(w, t, ev, err)
		return
	}
	if detached {
		// Completion arrives via Event.Fulfill; mark the task as out of
		// the queues so an Abort may claim it.
		rt.armDetached(ev)
		return
	}
	rt.finish(w, t, graph.Completed)
}

// runBody executes t's closure under panic recovery, applying the
// configured fault injector first: a detached task's is ev's body, any
// other task's its Do or Body. Redirect nodes are graph machinery, not
// user tasks: never injected (their empty bodies cannot fail).
func (rt *Runtime) runBody(t *graph.Task, ev *Event) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &fault.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	// The injector is tested first, so that without one the executor
	// never loads the label from the task's cold bytes.
	if rt.cfg.Inject != nil && !t.Redirect {
		if ierr := rt.cfg.Inject.Apply(t.Label); ierr != nil {
			return ierr
		}
	}
	if ev != nil {
		if ev.body != nil {
			ev.body(t.FirstPrivate, ev)
		}
		return nil
	}
	if t.Do != nil {
		return t.Do(t.FirstPrivate)
	}
	if t.Body != nil {
		t.Body(t.FirstPrivate)
	}
	return nil
}

// skip terminally completes t as Skipped without running its body.
func (rt *Runtime) skip(w int, t *graph.Task) {
	p := rt.cfg.Profile
	slot := w
	if slot < 0 {
		slot = rt.cfg.Workers
	}
	if p != nil {
		p.SetState(slot, trace.Skip, p.Now())
	}
	rt.obs.Instant(w, obs.InstSkip, t.ID, 0, int(rt.iter.Load()))
	// A lost claim means an external Fulfill already completed the task.
	if !t.Detached || rt.claimDetached(t, rt.detachEvent(t)) {
		rt.finish(w, t, graph.Skipped)
	}
	if p != nil {
		p.SetState(slot, trace.Overhead, p.Now())
	}
}

// fail records t's failure and terminally completes it as Aborted,
// poisoning the successor cone (see graph.AbortInto). ev is the detach
// event execute read before the body ran (nil for a task that is not
// detached) — not t.Attach, which a persistent replay may have rewritten
// since, if the body fulfilled its event before failing.
func (rt *Runtime) fail(w int, t *graph.Task, ev *Event, cause error) {
	rt.obs.Instant(w, obs.InstAbort, t.ID, 0, int(rt.iter.Load()))
	rt.recordFailure(t, cause)
	if ev != nil && !rt.claimDetached(t, ev) {
		// The body fulfilled its own event synchronously and then
		// failed: the fulfillment completed the task and wins; the
		// failure is still reported by the next Taskwait.
		return
	}
	rt.finish(w, t, graph.Aborted)
}

// finish is the one terminal transition: t reaches final, its released
// successors are handed over (handOver), and the producer hears of the
// progress it waits on. A recorded task of the compiled iteration in
// flight releases through the schedule's CSR rows — with its live-gauge
// decrement deferred to the end of its slot's chain (settleChain), or
// settled at once from a context without a slot (a detached task's
// Fulfill, abort cancellation); every other task through the graph's
// successor walk. Worker and producer slots reuse a per-slot release
// buffer; the other contexts, which may run concurrently, allocate.
func (rt *Runtime) finish(w int, t *graph.Task, final graph.State) {
	// Critical-path profiling: stamp the finish and fold the task into
	// the window aggregation BEFORE the release below — its successor walk
	// publishes the cp* values, and its live-gauge decrement is what lets
	// a quiescent producer read the profiler slots without
	// synchronization (see cpath.Profiler.Observe). The stamp is read back
	// now: once t's successors are released a replay may drain, and the
	// producer's next BeginIteration rewrites it.
	var finNs int64
	if rt.cp != nil {
		rt.g.StampFinish(t)
		rt.cp.Observe(w, t)
		finNs = t.FinishAtNs()
	}
	// Terminal-transition counters, on the finisher's shard (w == -1
	// routes to the external shard). Redirect sentinels are graph
	// machinery, not user tasks: uncounted, so at quiescent points
	// submitted == executed + skipped + aborted.
	switch {
	case t.Redirect:
	case final == graph.Aborted:
		rt.obs.IncSlot(w, obs.CTasksAborted)
	case final == graph.Skipped:
		rt.obs.IncSlot(w, obs.CTasksSkipped)
	default:
		rt.obs.IncSlot(w, obs.CTasksExecuted)
	}
	var cs *graph.Compiled
	if t.Persistent {
		cs = rt.compiled.Load()
	}
	var sl *slotState
	var buf []*graph.Task
	if w >= 0 && w < len(rt.slots) {
		sl = &rt.slots[w]
		buf = sl.relBuf
	}
	var released []*graph.Task
	switch {
	case cs != nil && sl != nil:
		released = cs.FinishIntoDeferred(t, buf, final)
		sl.chainFin++
	case cs != nil:
		released = cs.FinishInto(t, buf, final)
	case final == graph.Aborted:
		released = rt.g.AbortInto(t, buf)
	case final == graph.Skipped:
		released = rt.g.SkipInto(t, buf)
	default:
		released = rt.g.CompleteInto(t, buf)
	}
	if sl != nil {
		sl.relBuf = released
	}
	rt.handOver(w, sl, released)
	// How the producer hears of progress: publications wake it through
	// the scheduler, but the live gauge reaching its Taskwait's target or
	// — with a throttle on — any drop under a window carries no queue
	// entry, so a finisher other than the producer (whose loop re-checks)
	// wakes it. A deferred finish leaves the gauge to settleChain, which
	// applies the same rule. A kept successor is live and unfinished, so
	// neither predicate can have turned on it.
	if w != rt.producerID() && (rt.throttleOn || rt.g.Live() <= rt.waitTarget.Load()) {
		rt.s.WakeProducer()
	}
	// Release-phase accounting (finish stamp to the end of the hand-over),
	// counter-only: release time overlaps the released successors'
	// ready-wait, so it never enters the window's T1 (see
	// cpath.Profiler.ObserveRelease).
	if rt.cp != nil {
		rt.cp.ObserveRelease(w, finNs)
	}
}

// handOver schedules what a finish on w released: the executor's one
// depth-first hand-over (PAPER.md §2), the same on both paths. Under
// DepthFirst a finisher that owns a slot (sl, nil for other contexts)
// keeps the first task for its own next loop turn (chained: no queue
// operation, no wake) and publishes the rest in one batch, with at most
// one wake, for thieves. Under BreadthFirst, and without a slot, every
// task is published. The hiding is bounded in count and in time: one
// task per slot, taken on the owner's next turn, before any pop or park
// (TestHandOverSpreadsBurstRelease holds a second P to it). A kept task
// still goes through execute, so poison cones, aborts and panics behave
// exactly as if it had queued. sl.chained is always empty here: the
// slot claimed what it is finishing before running it.
func (rt *Runtime) handOver(w int, sl *slotState, released []*graph.Task) {
	if len(released) == 0 {
		return
	}
	if sl != nil && rt.cfg.Policy == sched.DepthFirst {
		sl.chained = released[0]
		if !released[0].Redirect {
			rt.obs.IncSlot(w, obs.CTasksFused)
		}
		released = released[1:]
	}
	rt.s.PushBatch(w, released)
}

// settleChain takes the slot's deferred compiled-path finishes off the
// live gauge, if its chain has ended: no chained successor. The slot's
// loop calls it after every task it ran, because a chain does not always
// end in a finish on this goroutine: a detached task retires through
// Event.Fulfill (or already has), a lost event claim retires nothing,
// and a slot that went back to its queues with finishes unsettled would
// hold the gauge — and the barrier — above the producer's wait for
// ever. The producer settling its own chain needs no wake: its wait
// loop re-checks the gauge next turn. Nothing throttles during a
// compiled iteration, so only the wait target can call for a wake.
func (rt *Runtime) settleChain(slot int) {
	sl := &rt.slots[slot]
	if sl.chained != nil {
		return
	}
	n := sl.chainFin
	sl.chainFin = 0
	if rt.g.Retire(n) <= rt.waitTarget.Load() && slot != rt.producerID() {
		rt.s.WakeProducer()
	}
}

// worker is the main loop of worker w.
func (rt *Runtime) worker(w int) {
	defer rt.wg.Done()
	p := rt.cfg.Profile
	if p != nil {
		p.SetState(w, trace.Idle, p.Now())
	}
	for {
		t := rt.takeChained(w)
		if t == nil {
			t = rt.s.Pop(w)
		}
		if t == nil {
			// Exit on shutdown once no queued work remains. Close()
			// drains the graph via Taskwait first, so not-yet-ready
			// tasks cannot exist here in a correct program; requiring
			// Live()==0 as well would turn any wedged/raced counter
			// into an unbounded hot spin of every worker.
			if rt.shutdown.Load() && rt.s.Pending() == 0 {
				return
			}
			if p != nil {
				// No ready task anywhere: idle. (Approximation: a
				// task could be queued between Pop and here; the
				// next loop iteration corrects the state.)
				p.SetState(w, trace.Idle, p.Now())
			}
			// Park until a publication or Kick. Announce first, then
			// re-check work and shutdown: Close() stores the shutdown
			// flag before Kick bumps the wake counter, so a worker that
			// misses the token here observes the flag (or the counter)
			// in this re-check — no lost-wakeup window.
			snap := rt.s.PrePark(w)
			if rt.s.Pending() > 0 || rt.shutdown.Load() || rt.s.Seq() != snap {
				rt.s.CancelPark(w)
				continue
			}
			rt.s.Park(w)
			continue
		}
		if p != nil {
			p.SetState(w, trace.Overhead, p.Now())
		}
		rt.execute(w, t)
		if rt.slots[w].chainFin != 0 {
			rt.settleChain(w)
		}
	}
}

// ErrReplayShape reports a persistent body that changed shape between
// iterations.
var ErrReplayShape = errors.New("rt: persistent body changed its task stream between iterations")

// ErrReplayDivergence reports that the TDG verifier (Config.Verify)
// caught a persistent replay submitting a task stream whose labels or
// dependence declarations differ from the recording — the replay
// executed the recorded ordering, not the declared one. Typical cause:
// an Adaptive `changed` callback that lied, or a Persistent body with
// hidden iteration dependence.
var ErrReplayDivergence = errors.New("rt: persistent replay diverged from the recorded task structure")

// checkReplayDivergence closes the verifier's replay iteration over
// recorded, whose recording-time signature was sig, and surfaces any
// divergence as an error (graph already drained).
func (rt *Runtime) checkReplayDivergence(recorded []*graph.Task, sig uint64) error {
	if rt.ver == nil {
		return nil
	}
	divs := rt.ver.EndReplay(recorded, sig)
	if len(divs) == 0 {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrReplayDivergence, divs[0].String())
}

// persistentOpts is the resolved option set of a Persistent call.
type persistentOpts struct {
	frozen  bool
	changed func(iter int) bool
}

// PersistentOption configures Persistent's replay strategy. Every
// region replays the compiled schedule of its recording; with no option
// each iteration re-runs the body against it (per-task cost: one
// firstprivate copy and one atomic decrement). Frozen and Adaptive trade
// flexibility for cheaper iterations in opposite directions — Frozen
// gives up per-iteration updates entirely, Adaptive keeps them and lets
// the shape change, amortizing re-recording over unchanged stretches.
type PersistentOption func(*persistentOpts)

// Frozen selects frozen replay: body runs only at iteration 0 to record
// the task graph, and every later iteration re-releases the captured
// closures and firstprivates without re-running the body. These are the
// semantics of the OpenMP `taskgraph` proposal the paper contrasts with
// its own extension (§3.2, §6) — cheaper per iteration, but nothing can
// be updated between iterations. Mutually exclusive with Adaptive.
//
// Because nothing can change, an iteration of the compiled schedule
// (graph.Compile) needs no producer work per task: the producer
// restores the predecessor counts with one copy, publishes the root
// set, and waits on the live gauge — no key table, no pools, no hashing,
// no allocation (see docs/architecture.md, "Compiled replay"). The
// region is the two operations Record and Replay back to back — record
// and compile at iteration 0, replay the other iters-1 — and owns the
// schedule only because it drops the Recording when it returns; a
// caller that wants the same graph again later calls the two halves
// itself and keeps the Recording. Recordings with detached tasks
// cannot be frozen (their captured completion events cannot re-fire)
// and are rejected with ErrNotCompiled wrapping
// graph.ErrCompileDetached. Task bodies still run under the full
// failure domain: panics, Abort and poison cones behave exactly as in a
// plain window, and structural divergence is still surfaced as
// ErrReplayDivergence when Config.Verify is on.
func Frozen() PersistentOption {
	return func(o *persistentOpts) { o.frozen = true }
}

// Adaptive selects adaptive re-recording: the graph is re-recorded
// whenever changed(iter) reports that the task stream's shape differs
// from the last recording — the paper's §3.2 applicability argument for
// adaptive mesh refinement: AMR changes the TDG only every few
// iterations, so recording cost is amortized over the unchanged
// stretches. changed is consulted before every iteration after a
// recording; recording iterations never consult it. Mutually exclusive
// with Frozen.
func Adaptive(changed func(iter int) bool) PersistentOption {
	return func(o *persistentOpts) { o.changed = changed }
}

// Persistent runs body(iter) for iters iterations under the persistent
// TDG extension (optimization p): iteration 0 records the graph and
// compiles the recording into a flat replay schedule (graph.Compiled:
// CSR successors, only the edges that order something); later
// iterations replay it, with per-task cost reduced to the firstprivate
// copy. An implicit barrier (Taskwait) ends every iteration, as in the
// paper's implementation. Options select the replay strategy: Frozen
// for record-once/never-rerun replay, Adaptive for shape-change-driven
// re-recording; with no options every iteration re-runs body against
// the recorded structure — Submit then refreshes the next recorded
// task (firstprivate, closures, a detached task's event) and releases
// it, never throttling, and a Taskwait in the body waits for what has
// been resubmitted so far. The body must submit the tasks it recorded,
// in order: fewer end the region with ErrReplayShape after the iteration
// has drained (the rest cancelled), one more panics.
//
// A task failure inside any iteration ends the region after that
// iteration's barrier drains, returning the *fault.TaskError.
func (rt *Runtime) Persistent(iters int, body func(iter int), opts ...PersistentOption) error {
	var o persistentOpts
	for _, opt := range opts {
		opt(&o)
	}
	if o.frozen && o.changed != nil {
		return fmt.Errorf("rt: Persistent options Frozen and Adaptive are mutually exclusive")
	}
	if rt.inPersistent {
		return fmt.Errorf("rt: nested Persistent regions are not supported")
	}
	rt.inPersistent = true
	defer func() { rt.inPersistent = false }()
	defer rt.g.EndPersistent()
	if o.frozen {
		// Record followed by Replay of the other iterations.
		rec, err := rt.record(0, body, false)
		if err != nil {
			return err
		}
		_, err = rt.replayCompiled(rec, 1, iters, nil, nil)
		return err
	}
	// Record, then replay the compiled recording with the body re-run
	// against it, to the end of the region or until changed reports a new
	// shape, which the next segment records.
	for it := 0; it < iters; {
		rec, err := rt.record(it, body, true)
		if err != nil {
			return err
		}
		if it, err = rt.replayCompiled(rec, it+1, iters, body, o.changed); err != nil {
			return err
		}
		rt.g.EndPersistent()
	}
	return nil
}

// recordIteration runs one recording iteration: body under BeginRecording,
// the implicit barrier, and the verifier/profile bookkeeping. Returns the
// barrier's failure, if any.
func (rt *Runtime) recordIteration(it int, body func(iter int)) error {
	rt.g.BeginRecording()
	if rt.ver != nil {
		rt.ver.BeginRecording()
	}
	rt.iter.Store(int32(it))
	body(it)
	rt.g.Flush()
	rt.g.EndRecording()
	werr := rt.Taskwait()
	if rt.ver != nil {
		rt.recSig = rt.ver.EndRecording(rt.g.Recorded())
	}
	if p := rt.cfg.Profile; p != nil {
		p.IterationEnd(p.Now())
	}
	return werr
}

// Recording is a recorded task sub-graph compiled into a flat replay
// schedule (graph.Compile): what Record returns and Replay runs. It owns
// the schedule and, through it, the recorded tasks with the closures and
// firstprivates they captured.
//
// Lifetime: a Recording stays replayable for as long as its runtime is
// open — after the region that made it has closed, after any number of
// plain windows over the same keys, and after later recordings. Nothing
// it needs is shared with them: the schedule snapshots its tasks, whose
// memory an ended window never reuses (graph.EndWindow pins a recording's
// chunks), and a replay touches no key table. What makes the
// coexistence safe is that every recorded task is terminal at every
// window boundary (a replay's barrier drains its whole iteration, failed
// or not), so a later discovery that meets one as a key's last writer
// prunes the edge on its lock-free path and never appends to it (except
// under Config.Verify, which keeps such edges for the audit: see
// graph.Compiled). A replay that fails or is aborted leaves the
// Recording replayable: the next iteration scrubs the poison the failed
// one left (the schedule's dirty pass). Producer-only, like everything
// else about persistence.
type Recording struct {
	rt *Runtime
	cs *graph.Compiled
	// sig is the verifier's signature of the recorded structure, the
	// reference every replay of this recording is checked against
	// (Config.Verify; zero otherwise).
	sig uint64
}

// ErrNotCompiled reports a recording whose iteration ran to its barrier
// without a failure but that has no compiled schedule: detached tasks in
// a recording made for frozen replay (the error also wraps
// graph.ErrCompileDetached), or an internal indegree mismatch. The
// region — or Record, which has nothing to return — ends with the error;
// the graph has run once and can be run again only by submitting it, and
// the runtime stays usable.
var ErrNotCompiled = errors.New("rt: recording was not compiled")

// record is the first half of every persistent region (or segment of an
// Adaptive one): run body once under recording (iteration it, through
// its barrier) and compile what it submitted. gated says how the
// recording will be replayed: with the body re-run, which hands every
// detached task a fresh event, or frozen, which cannot — re-releasing a
// captured closure re-releases a completion event that has already
// fired — and therefore refuses a recording that has one. The persistent
// region is left open; the caller closes it (graph.EndPersistent).
func (rt *Runtime) record(it int, body func(iter int), gated bool) (*Recording, error) {
	if err := rt.recordIteration(it, body); err != nil {
		return nil, err
	}
	compile := rt.g.CompileGated
	if !gated {
		compile = rt.g.Compile
	}
	cs, err := compile()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrNotCompiled, err)
	}
	return &Recording{rt: rt, cs: cs, sig: rt.recSig}, nil
}

// Record runs body once — its tasks execute, as iteration 0 of a Frozen
// region would — and returns the compiled recording of what it
// submitted, for Replay. It fails with the barrier's error when a task
// of the recording iteration failed, and with ErrNotCompiled when the
// iteration ran clean but what it recorded cannot be compiled.
//
// Persistent(iters, body, Frozen()) is Record followed by Replay of the
// other iters-1 iterations; the two halves exist on their own so that a
// recording can outlive the call that made it (internal/serve keeps
// them per request shape).
func (rt *Runtime) Record(body func()) (*Recording, error) {
	if rt.inPersistent {
		return nil, fmt.Errorf("rt: Record inside a Persistent region")
	}
	rt.inPersistent = true
	defer func() { rt.inPersistent = false }()
	defer rt.g.EndPersistent()
	return rt.record(0, func(int) { body() }, false)
}

// Replay runs n iterations of rec, numbered first, first+1, ... in
// traces, each ended by the implicit barrier. The captured closures and
// firstprivates are re-released as they are: to run the recording on new
// data, change what the firstprivates point to before calling. Must be
// called at a quiescent point (after Taskwait), by the producer. A task
// failure or an abort ends the replay after that iteration's barrier;
// rec stays replayable.
func (rt *Runtime) Replay(rec *Recording, first, n int) error {
	switch {
	case rec == nil || rec.rt != rt:
		return fmt.Errorf("rt: Replay of a recording this runtime did not make")
	case rt.inPersistent:
		return fmt.Errorf("rt: Replay inside a Persistent region")
	case rt.g.Live() != 0:
		return fmt.Errorf("rt: Replay with %d tasks in flight", rt.g.Live())
	}
	rt.inPersistent = true
	defer func() { rt.inPersistent = false }()
	_, err := rt.replayCompiled(rec, first, first+n, nil, nil)
	return err
}

// replayCompiled runs iterations first, first+1, ... end-1 of rec through
// its compiled schedule — the one loop behind Replay and every persistent
// region — and returns the iteration it stopped before: end, or the
// first one changed reports a new shape for (Adaptive).
//
// With a nil body an iteration is frozen: one copy (predecessor
// template), one batch publication (the root set, straight into the
// producer's work-stealing deque with a fan-out wake), and the barrier,
// a Taskwait. With a body it is gated: the body runs again and each Submit
// refreshes the next recorded task and drops the producer's hold on it
// (resubmit). Either way no key table, no pools, no hashing, and one
// executor: divergence checking (against rec's own tasks and signature,
// not the graph's latest recording), failure windows and the abort
// protocol do not know the difference.
func (rt *Runtime) replayCompiled(rec *Recording, first, end int, body func(iter int), changed func(iter int) bool) (int, error) {
	// Not reset by a defer: a body that panics out of the region (one
	// Submit too many) leaves tasks in flight that must still find their
	// schedule.
	rt.compiled.Store(rec.cs)
	it := first
	var err error
	for it < end && err == nil {
		if changed != nil && changed(it) {
			break
		}
		err = rt.replayIteration(rec, it, body)
		it++
	}
	rt.compiled.Store(nil)
	return it, err
}

// replayIteration is one iteration of replayCompiled, through its
// barrier and the divergence check.
func (rt *Runtime) replayIteration(rec *Recording, it int, body func(iter int)) error {
	cs := rec.cs
	tasks := int64(cs.Len())
	if rt.ver != nil {
		// Per-submission checking needs submissions; a frozen iteration
		// has only the end-of-iteration signature check.
		rt.ver.BeginReplay(it, body != nil)
	}
	rt.iter.Store(int32(it))
	var shape error
	if body != nil {
		if err := cs.BeginReplay(); err != nil {
			return err
		}
		rt.replay = cs
		body(it)
		rt.replay = nil
		if shape = cs.FinishReplay(); shape != nil {
			rt.cancelRest(cs)
		}
	} else {
		if err := cs.BeginIteration(); err != nil {
			return err
		}
		var sp obs.Span
		if rt.obs.Sampled(rt.producerID()) {
			sp = rt.obs.BeginSpan(rt.producerID(), obs.SpanReplayCopy, tasks, 0, it)
		}
		if rt.cp != nil {
			// Compiled roots are seeded directly into the deque, not
			// released through a predecessor walk: stamp their ready
			// transition here, before publication.
			for _, root := range cs.Roots() {
				rt.g.StampReady(root)
			}
		}
		rt.s.SeedReplay(rt.producerID(), cs.Roots())
		sp.End()
	}
	rt.obs.AddSlot(rt.producerID(), obs.CReplayHits, tasks)
	rt.obs.IncSlot(rt.producerID(), obs.CReplayCompiled)
	werr := rt.Taskwait()
	if p := rt.cfg.Profile; p != nil {
		p.IterationEnd(p.Now())
	}
	if shape != nil {
		return errors.Join(fmt.Errorf("%w: %v (an Adaptive region reports shape changes through changed)", ErrReplayShape, shape), werr)
	}
	if werr != nil {
		return werr
	}
	return rt.checkReplayDivergence(cs.Tasks(), rec.sig)
}

// cancelRest releases what a replayed body did not resubmit, so the
// iteration drains to its barrier and the shape mismatch can be
// reported. The tasks go out poisoned: running their closures would run
// them on the previous iteration's firstprivates. A detached one gets an
// event for its skip to claim; the one it holds has fired.
func (rt *Runtime) cancelRest(cs *graph.Compiled) {
	tasks := cs.Tasks()
	for p := cs.PublishCursor(); p < len(tasks); p = cs.PublishCursor() {
		t := tasks[p]
		t.Poison()
		var ev *Event
		var attach any
		if t.Detached {
			ev = &Event{rt: rt}
			attach = ev
		}
		cs.Replay(t.FirstPrivate, nil, nil, attach)
		rt.finishSubmit(t, ev)
	}
}

// Close waits for all tasks, then stops the workers, returning whatever
// the final implicit Taskwait returned. The runtime must not be used
// afterwards.
func (rt *Runtime) Close() error {
	if rt.obs.TimingOn() {
		sp := rt.obs.BeginSpan(rt.producerID(), obs.SpanClose, rt.g.Live(), 0, int(rt.iter.Load()))
		defer sp.End()
	}
	err := rt.Taskwait()
	rt.shutdown.Store(true)
	rt.s.Kick()
	rt.wg.Wait()
	if p := rt.cfg.Profile; p != nil {
		p.Finish(p.Now())
	}
	// Workers are joined: drain every slot's pending deltas so merged
	// counter reads are exact from here on.
	rt.obs.FlushAll()
	if rt.cp != nil {
		rt.cp.Close()
	}
	if rt.obsSrv != nil {
		_ = rt.obsSrv.Close()
	}
	return err
}
