package sim

import (
	"fmt"

	"taskdep/internal/graph"
	"taskdep/internal/sched"
	"taskdep/internal/trace"
)

// DiscoveryCosts models the per-operation cost of TDG discovery,
// calibrated from the paper's Table 2 (see DESIGN.md §5.6): discovery
// time there is dominated by edge processing (~0.55 us to examine an
// attempted edge, ~0.30 us more to materialize it), plus ~1 us of task
// allocation/init and per-dependence processing. Persistent replay
// reduces a task to a firstprivate copy (~0.45 us measured in Table 2's
// replay iterations).
type DiscoveryCosts struct {
	TaskAlloc   float64
	PerDep      float64
	PerAttempt  float64
	PerCreate   float64
	ReplayTask  float64
	SchedPerTsk float64 // worker-side scheduling overhead charged per task
	CommPost    float64 // core time to post an MPI request from a task
}

// DefaultDiscoveryCosts returns the Table-2-calibrated defaults.
func DefaultDiscoveryCosts() DiscoveryCosts {
	return DiscoveryCosts{
		TaskAlloc:   1.0e-6,
		PerDep:      0.15e-6,
		PerAttempt:  0.55e-6,
		PerCreate:   0.30e-6,
		ReplayTask:  0.45e-6,
		SchedPerTsk: 0.5e-6,
		CommPost:    2.0e-6,
	}
}

// CommKind enumerates the communication operations tasks can perform.
type CommKind int

const (
	// SendOp posts a point-to-point send (MPI_Isend in a detached task).
	SendOp CommKind = iota
	// RecvOp posts a point-to-point receive.
	RecvOp
	// AllreduceOp posts a nonblocking allreduce.
	AllreduceOp
)

// CommOp attaches a communication action to a task: executing the task
// posts the operation; the task completes (detached) when the operation
// does.
type CommOp struct {
	Kind  CommKind
	Peer  int // send/recv peer rank
	Tag   int
	Bytes int
}

// TaskSpec describes one simulated task.
type TaskSpec struct {
	Label     string
	Deps      []graph.Dep
	Compute   float64   // pure compute seconds (no memory stalls)
	Footprint Footprint // blocks touched at execution
	Comm      *CommOp   // non-nil for communication tasks (detached)
}

// OpKind is a producer-script operation.
type OpKind int

const (
	// OpSubmit discovers one task.
	OpSubmit OpKind = iota
	// OpTaskwait blocks discovery until every discovered task completed
	// (used for the §4.1 taskwait-around-communications experiment).
	OpTaskwait
)

// Op is one step of a rank's per-iteration producer script.
type Op struct {
	Kind OpKind
	Spec TaskSpec
}

// Submit wraps a TaskSpec as a script op.
func Submit(spec TaskSpec) Op { return Op{Kind: OpSubmit, Spec: spec} }

// Taskwait returns a taskwait script op.
func Taskwait() Op { return Op{Kind: OpTaskwait} }

// RankConfig parametrizes one simulated MPI process.
type RankConfig struct {
	Cores int // including the producer core (core 0)
	Cache CacheConfig
	Costs DiscoveryCosts
	Opts  graph.Opt
	// Policy is the ready-task scheduling policy (depth-first default).
	Policy sched.Policy
	// Persistent enables the PTSG extension: iteration 0 records,
	// iterations >= 1 replay, with an implicit barrier per iteration.
	Persistent bool
	// DiscoverFirst suppresses execution until the whole program has
	// been discovered (Table 1's "non overlapped" configuration).
	DiscoverFirst bool
	// ThrottleTotal bounds live tasks; 0 = unbounded.
	ThrottleTotal int64
	// ThrottleReady bounds ready tasks; 0 = unbounded.
	ThrottleReady int64
	// DetailTrace records per-task boxes (Gantt, overlap metrics).
	DetailTrace bool
}

// producerMode tracks the discovery state machine of core 0.
type producerMode int

const (
	pmDiscovering producerMode = iota
	pmThrottled                // over threshold: consuming tasks
	pmBarrier                  // waiting live==0 (taskwait / iteration end)
	pmDone                     // whole program discovered
)

// Rank simulates one MPI process: a producer core plus worker cores over
// a cache hierarchy, discovering and executing the task graph in virtual
// time.
type Rank struct {
	ID  int
	eng *Engine
	cfg RankConfig

	g    *graph.Graph
	sch  *sched.Scheduler
	hier *Hierarchy
	prof *trace.Profile
	net  *Network

	ops   []Op // one iteration's script
	iter  int
	iters int
	opIdx int

	mode            producerMode
	afterWait       bool // producer parked waiting for work while throttled
	dispatchRq      bool
	recordingClosed bool
	replayDone      bool

	busy       []bool
	dramActive int

	// onQuiesce fires when the producer is done and the graph drained.
	onQuiesce func()
	finished  bool
	Makespan  float64
	peakLive  int64
}

// NewRank creates a rank bound to an engine and (optionally) a network.
// ops is the per-iteration producer script, repeated iters times.
func NewRank(id int, eng *Engine, net *Network, cfg RankConfig, ops []Op, iters int) *Rank {
	if cfg.Cores < 1 {
		cfg.Cores = 1
	}
	if cfg.Costs == (DiscoveryCosts{}) {
		cfg.Costs = DefaultDiscoveryCosts()
	}
	if cfg.Cache == (CacheConfig{}) {
		cfg.Cache = DefaultCacheConfig()
	}
	r := &Rank{
		ID:    id,
		eng:   eng,
		cfg:   cfg,
		sch:   sched.New(cfg.Policy, cfg.Cores),
		hier:  NewHierarchy(cfg.Cores, cfg.Cache),
		prof:  trace.New(cfg.Cores, cfg.DetailTrace),
		net:   net,
		ops:   ops,
		iters: iters,
		busy:  make([]bool, cfg.Cores),
	}
	r.g = graph.NewWithConfig(graph.Config{Opts: cfg.Opts, OnReady: func(t *graph.Task) {
		r.sch.Push(-1, t)
		r.scheduleDispatch()
	}})
	if net != nil {
		net.register(r)
	}
	return r
}

// Graph exposes the rank's dependency graph.
func (r *Rank) Graph() *graph.Graph { return r.g }

// Profile exposes the rank's profiler.
func (r *Rank) Profile() *trace.Profile { return r.prof }

// CacheStats exposes the cache counters.
func (r *Rank) CacheStats() CacheStats { return r.hier.Stats() }

// PeakLive returns the maximum number of co-existing (discovered but
// uncompleted) tasks observed, the quantity task throttling bounds.
func (r *Rank) PeakLive() int64 { return r.peakLive }

// Start schedules the rank's producer; onQuiesce fires once when the
// program is fully discovered and executed.
func (r *Rank) Start(onQuiesce func()) {
	r.onQuiesce = onQuiesce
	for c := 0; c < r.cfg.Cores; c++ {
		r.prof.SetState(c, trace.Idle, 0)
	}
	r.eng.At(0, func() {
		if r.cfg.Persistent && r.iters > 0 {
			r.g.BeginRecording()
		}
		r.produceNext()
	})
}

// scheduleDispatch coalesces dispatch requests into one event per time.
func (r *Rank) scheduleDispatch() {
	if r.dispatchRq {
		return
	}
	r.dispatchRq = true
	r.eng.After(0, r.dispatch)
}

// producerFree reports whether core 0 is available for task execution.
func (r *Rank) producerFree() bool {
	return r.mode == pmDone || r.mode == pmBarrier
}

// dispatch hands ready tasks to idle cores.
func (r *Rank) dispatch() {
	r.dispatchRq = false
	if r.cfg.DiscoverFirst && r.mode != pmDone {
		return
	}
	for c := 0; c < r.cfg.Cores; c++ {
		if r.busy[c] {
			continue
		}
		if c == 0 && !r.producerFree() {
			continue
		}
		t := r.sch.Pop(c)
		if t == nil {
			continue
		}
		r.startTask(c, t)
	}
	// Throttled producer parked for lack of work: wake it if work
	// appeared (it will re-pop itself).
	if r.afterWait && r.sch.Pending() > 0 {
		r.afterWait = false
		r.eng.After(0, r.produceNext)
	}
	r.maybeQuiesce()
}

// throttled reports whether discovery must pause.
func (r *Rank) throttled() bool {
	if r.cfg.ThrottleTotal > 0 && r.g.Live() >= r.cfg.ThrottleTotal {
		return true
	}
	if r.cfg.ThrottleReady > 0 && r.g.ReadyCount() >= r.cfg.ThrottleReady {
		return true
	}
	return false
}

// produceNext advances the producer state machine by one step.
func (r *Rank) produceNext() {
	now := r.eng.Now()
	// Discovery is runtime time on core 0: overhead if work exists,
	// idle otherwise (§2.3.1 breakdown definitions).
	if r.g.ReadyCount() > 0 {
		r.prof.SetState(0, trace.Overhead, now)
	} else {
		r.prof.SetState(0, trace.Idle, now)
	}

	if r.opIdx >= len(r.ops) {
		r.endOfIteration()
		return
	}
	if r.throttled() {
		r.mode = pmThrottled
		t := r.sch.Pop(0)
		if t == nil {
			// Nothing to consume: park until work appears.
			r.afterWait = true
			return
		}
		r.startTask(0, t)
		return
	}
	r.mode = pmDiscovering
	op := r.ops[r.opIdx]
	r.opIdx++

	switch op.Kind {
	case OpTaskwait:
		r.g.Flush()
		if r.g.Live() > 0 {
			r.mode = pmBarrier
			r.scheduleDispatch() // core 0 may execute during the wait
			return
		}
		r.eng.After(0, r.produceNext)
	case OpSubmit:
		cost := r.doSubmit(op.Spec)
		if l := r.g.Live(); l > r.peakLive {
			r.peakLive = l
		}
		r.prof.TaskCreated(now + cost)
		r.eng.After(cost, r.produceNext)
	}
}

// doSubmit performs the graph operation for spec and returns its modeled
// discovery cost.
func (r *Rank) doSubmit(spec TaskSpec) float64 {
	cs := &r.cfg.Costs
	if r.cfg.Persistent && r.iter > 0 {
		r.g.Replay(r.iter, nil, nil, nil)
		return cs.ReplayTask
	}
	st0 := r.g.Stats()
	sp := spec // copy; the attachment must outlive the call
	var t *graph.Task
	if spec.Comm != nil {
		t = r.g.SubmitDetached(spec.Label, spec.Deps, nil, r.iter)
	} else {
		t = r.g.Submit(spec.Label, spec.Deps, nil, r.iter)
	}
	t.Attach = &sp
	st1 := r.g.Stats()
	return cs.TaskAlloc +
		cs.PerDep*float64(len(spec.Deps)) +
		cs.PerAttempt*float64(st1.EdgesAttempted-st0.EdgesAttempted) +
		cs.PerCreate*float64(st1.EdgesCreated-st0.EdgesCreated)
}

// endOfIteration handles the boundary after the last op of an iteration.
func (r *Rank) endOfIteration() {
	if r.cfg.Persistent {
		// Implicit barrier: every task of the iteration must complete
		// before re-instancing (paper §3.2).
		if r.iter == 0 && !r.recordingClosed {
			r.recordingClosed = true
			r.g.Flush()
			r.g.EndRecording()
		}
		if r.iter > 0 && !r.replayDone {
			r.replayDone = true
			if err := r.g.FinishReplay(); err != nil {
				panic(fmt.Sprintf("sim: finish replay: %v", err))
			}
		}
		if r.g.Live() > 0 {
			r.mode = pmBarrier
			r.scheduleDispatch()
			return
		}
		r.prof.IterationEnd(r.eng.Now())
		r.iter++
		if r.iter >= r.iters {
			r.g.EndPersistent()
			r.mode = pmDone
			r.scheduleDispatch()
			return
		}
		if err := r.g.BeginReplay(); err != nil {
			panic(fmt.Sprintf("sim: replay: %v", err))
		}
		r.replayDone = false
		r.opIdx = 0
		r.eng.After(0, r.produceNext)
		return
	}
	// Non-persistent: iterations chain through data dependences with no
	// barrier; discovery continues straight into the next iteration.
	r.prof.IterationEnd(r.eng.Now())
	r.iter++
	if r.iter >= r.iters {
		r.g.Flush()
		r.mode = pmDone
		r.scheduleDispatch()
		return
	}
	r.opIdx = 0
	r.eng.After(0, r.produceNext)
}

// barrierCheck resumes a barrier-parked producer once the graph drains.
func (r *Rank) barrierCheck() {
	if r.mode == pmBarrier && r.g.Live() == 0 {
		if r.cfg.Persistent && r.opIdx >= len(r.ops) {
			r.mode = pmDiscovering
			r.eng.After(0, r.endOfIterationResume)
			return
		}
		r.mode = pmDiscovering
		r.eng.After(0, r.produceNext)
	}
}

// endOfIterationResume re-enters endOfIteration after its barrier.
func (r *Rank) endOfIterationResume() { r.endOfIteration() }

// taskIter returns the iteration a task was discovered in (tasks carry
// it as FirstPrivate so Gantt colors reflect discovery iterations even
// when the producer runs ahead of execution).
func taskIter(t *graph.Task, fallback int) int {
	if it, ok := t.FirstPrivate.(int); ok {
		return it
	}
	return fallback
}

// startTask begins executing t on core c.
func (r *Rank) startTask(c int, t *graph.Task) {
	now := r.eng.Now()
	r.busy[c] = true
	r.g.Start(t)
	cs := &r.cfg.Costs

	if t.Redirect {
		// Empty optimization-(c) node: costs one scheduling slot.
		r.eng.After(cs.SchedPerTsk, func() { r.finishTask(c, t, now, now) })
		return
	}
	spec, _ := t.Attach.(*TaskSpec)
	if spec == nil {
		spec = &TaskSpec{}
	}
	r.prof.SetState(c, trace.Overhead, now)
	workStart := now + cs.SchedPerTsk

	if spec.Comm != nil {
		// Detached communication task: the body does any local work
		// (e.g. packing fused with the post), then posts the request.
		r.prof.SetState(c, trace.Work, workStart)
		postDone := workStart + cs.CommPost + spec.Compute
		r.eng.At(postDone, func() {
			r.prof.SetState(c, trace.Idle, postDone)
			r.busy[c] = false
			r.postComm(c, t, spec)
			if c == 0 && r.mode == pmThrottled {
				r.produceNext()
			} else {
				r.scheduleDispatch()
			}
		})
		if r.cfg.DetailTrace {
			r.prof.TaskScheduled(trace.TaskRecord{
				TaskID: t.ID, Label: spec.Label, Worker: c,
				Iter: taskIter(t, r.iter), Start: workStart, End: postDone,
			})
		}
		return
	}

	// Compute task: evaluate the memory model.
	memTime := 0.0
	dramMisses := 0
	for _, b := range spec.Footprint {
		cost, dram := r.hier.Access(c, b)
		if dram {
			factor := 1 + r.cfg.Cache.ContentionAlpha*float64(maxInt(0, r.dramActive))
			cost *= factor
			dramMisses++
		}
		memTime += cost
	}
	if dramMisses > 0 {
		r.dramActive++
	}
	dur := spec.Compute + memTime
	r.prof.SetState(c, trace.Work, workStart)
	end := workStart + dur
	r.eng.At(end, func() {
		if dramMisses > 0 {
			r.dramActive--
		}
		if r.cfg.DetailTrace {
			r.prof.TaskScheduled(trace.TaskRecord{
				TaskID: t.ID, Label: spec.Label, Worker: c,
				Iter: taskIter(t, r.iter), Start: workStart, End: end,
			})
		}
		r.finishTask(c, t, workStart, end)
	})
}

// finishTask completes t on core c and reschedules.
func (r *Rank) finishTask(c int, t *graph.Task, workStart, end float64) {
	now := r.eng.Now()
	r.prof.SetState(c, trace.Idle, now)
	r.busy[c] = false
	released := r.g.Complete(t)
	for _, s := range released {
		r.sch.Push(c, s)
	}
	r.barrierCheck()
	if c == 0 && r.mode == pmThrottled {
		r.produceNext()
		return
	}
	r.scheduleDispatch()
}

// completeDetached finishes a communication task when its request
// completes (network callback).
func (r *Rank) completeDetached(t *graph.Task) {
	released := r.g.Complete(t)
	for _, s := range released {
		r.sch.Push(-1, s)
	}
	r.barrierCheck()
	r.scheduleDispatch()
}

// postComm hands the operation to the network.
func (r *Rank) postComm(c int, t *graph.Task, spec *TaskSpec) {
	if r.net == nil {
		// No network: treat as immediately complete (single-rank runs
		// that still include comm placeholders).
		r.completeDetached(t)
		return
	}
	op := spec.Comm
	done := func() { r.completeDetached(t) }
	switch op.Kind {
	case SendOp:
		r.net.PostSend(r.ID, op.Peer, op.Tag, op.Bytes, r.prof, done)
	case RecvOp:
		r.net.PostRecv(r.ID, op.Peer, op.Tag, op.Bytes, r.prof, done)
	case AllreduceOp:
		r.net.PostAllreduce(r.ID, op.Bytes, r.prof, done)
	}
}

// maybeQuiesce fires onQuiesce once everything drained.
func (r *Rank) maybeQuiesce() {
	if r.finished || r.mode != pmDone {
		return
	}
	if r.g.Live() != 0 || r.sch.Pending() != 0 {
		return
	}
	for _, b := range r.busy {
		if b {
			return
		}
	}
	r.finished = true
	r.Makespan = r.eng.Now()
	r.prof.Finish(r.Makespan)
	if r.onQuiesce != nil {
		r.onQuiesce()
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
