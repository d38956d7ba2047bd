// Package taskdep is a dependent-task runtime for Go with persistent
// task-graph support, reproducing the system of "Investigating Dependency
// Graph Discovery Impact on Task-based MPI+OpenMP Applications
// Performances" (Pereira, Roussel, Carribault, Gautier — ICPP 2023).
//
// The runtime executes tasks ordered by OpenMP 5.1-style data
// dependences (in / out / inout / inoutset) declared on opaque keys. A
// single producer goroutine discovers the task dependency graph (TDG)
// while a pool of workers executes it with depth-first (LIFO) scheduling
// and work stealing. The paper's discovery optimizations are built in:
//
//   - (b) O(1) duplicate-edge elimination (OptDedup);
//   - (c) redirect nodes turning the m×n edges of an inoutset group into
//     m+n, and the 2mn edges around a run of batch tasks that read the
//     same keys into 2(m+n) (OptInOutSetNode);
//   - (p) persistent task sub-graphs: Runtime.Persistent records the
//     graph on the first iteration, compiles the recording into a flat
//     schedule that keeps only the edges that order something, and
//     replays that afterwards: the body runs again, but each Submit is
//     reduced to a firstprivate copy and one atomic decrement;
//   - ready-task and total-task throttling;
//   - detached tasks whose completion is signalled by an external event
//     (the OpenMP detach clause), used to nest nonblocking message
//     passing inside tasks.
//
// A message-passing layer (World/Comm: ranks as goroutines, eager and
// rendezvous point-to-point, nonblocking allreduce) supports distributed
// applications; a profiler reports the paper's work/overhead/idle
// breakdown, discovery time, communication overlap ratio, and Gantt
// charts.
//
// Tasks form failure domains: a body that panics, or whose Do closure
// returns an error, aborts the task and deterministically poisons its
// successor cone (those bodies never run); everything outside the cone
// still executes and the graph always drains. Taskwait/Close/Persistent
// surface the failure as a *TaskError naming the task, its dependence
// keys and the cause; Runtime.Abort cancels a whole window
// cooperatively.
//
// # Quick start
//
//	rt, err := taskdep.NewRuntime(taskdep.Config{Workers: 8, Opts: taskdep.OptAll})
//	if err != nil {
//		log.Fatal(err)
//	}
//	defer rt.Close()
//	rt.Submit(taskdep.Spec{
//		Label: "produce", Out: []taskdep.Key{1},
//		Do: func(any) error { return writeX() },
//	})
//	rt.Submit(taskdep.Spec{
//		Label: "consume", In: []taskdep.Key{1},
//		Do: func(any) error { readX(); return nil },
//	})
//	if err = rt.Taskwait(); err != nil {
//		var te *taskdep.TaskError
//		if errors.As(err, &te) {
//			log.Fatalf("task %s failed: %v", te.Label, te.Cause)
//		}
//	}
//
// See examples/ for iterative stencils with persistent graphs,
// communication overlap with detached tasks, and a dense Cholesky
// factorization.
package taskdep

import (
	"io"

	"taskdep/internal/cpath"
	"taskdep/internal/fault"
	"taskdep/internal/graph"
	"taskdep/internal/mpi"
	"taskdep/internal/obs"
	"taskdep/internal/rt"
	"taskdep/internal/sched"
	"taskdep/internal/trace"
	"taskdep/internal/verify"
)

// Key identifies a datum that dependences are declared on — the moral
// equivalent of a variable in an OpenMP depend clause. Applications
// typically derive keys from array/block indices.
type Key = graph.Key

// Opt is a bitmask of TDG discovery optimizations.
type Opt = graph.Opt

// Discovery optimizations (paper §3.1).
const (
	// OptDedup is optimization (b): duplicate-edge elimination.
	OptDedup = graph.OptDedup
	// OptInOutSetNode is optimization (c): redirect nodes, for inoutset
	// groups and for runs of batch tasks that read the same keys.
	OptInOutSetNode = graph.OptInOutSetNode
	// OptAll enables every runtime-side optimization.
	OptAll = graph.OptAll
)

// Policy selects the ready-task scheduling order.
type Policy = sched.Policy

// Scheduling policies.
const (
	// DepthFirst runs freshly released successors first on the
	// completing worker (cache reuse; the paper's MPC-OMP heuristic).
	DepthFirst = sched.DepthFirst
	// BreadthFirst drains a global FIFO (the degenerate behaviour of
	// discovery-bound runs).
	BreadthFirst = sched.BreadthFirst
)

// Config parametrizes a Runtime; see rt.Config for field
// documentation. Each knob has one form: a top-level field (Workers,
// Policy, Opts, ThrottleReady, ThrottleTotal, Profile, Verify, Inject)
// or a field of CPath or Obs. NewRuntime validates ranges and enum
// values.
type Config = rt.Config

// Spec describes one task submission.
type Spec = rt.Spec

// Event completes a detached task from an external engine.
type Event = rt.Event

// Runtime executes dependent tasks discovered by a single producer
// goroutine.
type Runtime = rt.Runtime

// NewRuntime validates cfg, then creates and starts a runtime. Close
// must be called to drain and join the workers. Invalid configurations
// — negative counts, a profile with too few slots, out-of-range enum
// values — are reported as descriptive errors.
func NewRuntime(cfg Config) (*Runtime, error) { return rt.NewRuntime(cfg) }

// PersistentOption configures Runtime.Persistent's replay strategy.
type PersistentOption = rt.PersistentOption

// Frozen selects frozen replay for Runtime.Persistent: the body runs
// only at iteration 0 and later iterations re-release the captured
// closures (the OpenMP `taskgraph` proposal's semantics) off the
// compiled schedule every persistent region replays
// (docs/architecture.md, "Compiled replay"), with no per-task producer
// work at all. Recordings containing detached tasks cannot be frozen:
// their captured completion events have fired.
func Frozen() PersistentOption { return rt.Frozen() }

// Adaptive selects adaptive re-recording for Runtime.Persistent: the
// graph is re-recorded (and recompiled) whenever changed(iter) reports a
// shape change, and replayed as a plain region's is — body re-run,
// per-task cost one firstprivate copy — over the unchanged stretches:
// the paper's AMR amortization argument (§3.2).
func Adaptive(changed func(iter int) bool) PersistentOption { return rt.Adaptive(changed) }

// Dep is one dependence declaration (key + access type), as carried by
// TaskError.Keys.
type Dep = graph.Dep

// DepType classifies a dependence access.
type DepType = graph.DepType

// Dependence access types.
const (
	// In declares a read (concurrent with other reads).
	In = graph.In
	// Out declares a write.
	Out = graph.Out
	// InOut declares a read-modify-write.
	InOut = graph.InOut
	// InOutSet declares membership in a commutative write group.
	InOutSet = graph.InOutSet
)

// TaskState is a task's lifecycle state (see Task.State).
type TaskState = graph.State

// Terminal task states.
const (
	// TaskCompleted: the body ran to completion.
	TaskCompleted = graph.Completed
	// TaskAborted: the body failed (panic or Do error).
	TaskAborted = graph.Aborted
	// TaskSkipped: the body never ran — a predecessor failed (poisoned
	// cone) or the window was aborted.
	TaskSkipped = graph.Skipped
)

// TaskError reports a failed task from Taskwait/Close/Persistent: which
// task (label, ID, declared dependence keys), why (Cause — the Do error
// or a PanicError with stack), and any further failures from the same
// wait window (Siblings, an errors.Join). Unwrap reaches both, so
// errors.Is/As see through it.
type TaskError = fault.TaskError

// PanicError wraps a recovered task-body panic with its stack.
type PanicError = fault.PanicError

// ErrAborted is the default cause installed by Runtime.Abort(nil).
var ErrAborted = fault.ErrAborted

// ErrInjected marks errors produced by the fault-injection harness.
var ErrInjected = fault.ErrInjected

// Inject is a deterministic fault-injection harness; set it in
// Config.Inject (test/benchmark machinery, nil in production).
type Inject = fault.Inject

// InjectMode selects what an injected fault does.
type InjectMode = fault.Mode

// Fault-injection modes.
const (
	// InjectPanic panics in the victim's body.
	InjectPanic = fault.Panic
	// InjectError makes the victim's body return an ErrInjected error.
	InjectError = fault.Error
	// InjectStall delays the victim's body (latency fault).
	InjectStall = fault.Stall
)

// GraphStats snapshots discovery counters (tasks, edges created /
// pruned / deduplicated, redirect nodes, replays).
type GraphStats = graph.Stats

// Task is a node of the dependency graph (exposed for DOT export and
// inspection).
type Task = graph.Task

// WriteDOT renders tasks and their precedence edges in Graphviz DOT
// format — e.g. WriteDOT(w, rt.Graph().Recorded(), "tdg") after a
// persistent recording.
func WriteDOT(w io.Writer, tasks []*Task, name string) error {
	return graph.WriteDOT(w, tasks, name)
}

// VerifyMode selects the TDG verifier's integration level; set it in
// Config.Verify. The verifier audits the discovered graph for
// under-declared dependences (conflicting accesses with no
// happens-before path), cycles, dangling inoutset redirect nodes,
// duplicate edges that survived OptDedup, and persistent-replay
// divergence (a Persistent body whose task stream silently changed
// shape, e.g. under a lying Adaptive `changed` callback).
type VerifyMode = verify.Mode

// Verifier integration levels.
const (
	// VerifyOff disables the verifier (zero overhead, the default).
	VerifyOff = verify.Off
	// VerifyObserve records dependence declarations and checks
	// persistent replays for divergence; the full audit runs on demand
	// via Runtime.Verify.
	VerifyObserve = verify.Observe
	// VerifyFull additionally audits at every Taskwait.
	VerifyFull = verify.Full
)

// VerifyReport is a TDG audit result; see Runtime.Verify. Its WriteDOT
// method exports the graph with race witnesses highlighted.
type VerifyReport = verify.Report

// VerifyRace is one missing-ordering witness (an under-declared
// dependence) in a VerifyReport.
type VerifyRace = verify.Race

// VerifyDivergence is one persistent-replay structure mismatch in a
// VerifyReport.
type VerifyDivergence = verify.Divergence

// ErrReplayDivergence is returned by Runtime.Persistent when the
// verifier catches a replay diverging from the recorded structure.
var ErrReplayDivergence = rt.ErrReplayDivergence

// Profile accumulates the paper's execution metrics. Create with
// NewProfile(workers+1, detail) and pass in Config.Profile.
type Profile = trace.Profile

// NewProfile creates a profile; detail enables per-task records (Gantt
// charts, communication-overlap computation).
func NewProfile(slots int, detail bool) *Profile { return trace.New(slots, detail) }

// Breakdown is the work/overhead/idle/discovery summary.
type Breakdown = trace.Breakdown

// Gantt renders recorded task boxes (one row per worker, one color per
// iteration) as ASCII or SVG.
type Gantt = trace.Gantt

// TaskRecord is one scheduled task instance in a Profile (a Gantt box).
type TaskRecord = trace.TaskRecord

// MarkCritical tags the records whose task IDs appear in ids as
// critical-path members, returning the number tagged. Tagged boxes
// render with a '#' fill in Gantt.WriteASCII, a red outline in
// WriteSVG, and the red "terrible" color in WriteChrome —
// pair it with CriticalPathReport.Path to overlay the span-defining
// chain on a recorded timeline (cmd/gantt -cp does exactly this).
func MarkCritical(records []TaskRecord, ids map[int64]bool) int {
	return trace.MarkCritical(records, ids)
}

// CPathOptions configures the online critical-path profiler via
// Config.CPath: per-task phase attribution (discovery, ready-wait,
// execute, release), an O(1) release-time critical-path fold, and
// what-if discovery-impact projections, published per window at every
// Taskwait and served at /criticalpath when Obs.Addr is set. See
// docs/architecture.md, "Critical-path analysis".
type CPathOptions = rt.CPathOptions

// CriticalPathReport is one profiling window's critical-path analysis
// (work/span split by phase, parallelism, Brent-bound what-if
// projections, the path itself), returned by Runtime.CriticalPath.
type CriticalPathReport = cpath.Report

// World is an in-process set of MPI-style ranks (goroutines).
type World = mpi.World

// Comm is one rank's communicator.
type Comm = mpi.Comm

// Request is a nonblocking communication handle.
type Request = mpi.Request

// Reduction operators for Allreduce.
const (
	Sum = mpi.Sum
	Min = mpi.Min
	Max = mpi.Max
)

// NewWorld creates an in-process world of n ranks. Use World.Run to
// execute a function per rank.
func NewWorld(n int) *World { return mpi.NewWorld(n) }

// ObsOptions configures the always-on observability layer via
// Config.Obs: the zero value keeps the sharded counters on, spans off
// and no HTTP endpoint; set Spans for span tracing + latency
// histograms, Addr to serve /metrics, /graphz, /spans and
// /debug/pprof/, Disable to turn everything off. See internal/obs's
// package documentation for the full metric list.
type ObsOptions = obs.Options

// ObsRegistry is a runtime's sharded metrics + span store, from
// Runtime.Obs: merged counter reads, histogram snapshots, span drains
// (Chrome trace JSON via WriteChrome), Prometheus text via
// WriteMetrics.
type ObsRegistry = obs.Registry

// SpanEvent is one decoded span or instant from the span rings.
type SpanEvent = obs.SpanEvent

// ObsCounter identifies a pre-registered counter for programmatic
// merged reads (ObsRegistry.Counter); ObsHisto likewise for histogram
// snapshots (ObsRegistry.Histogram). The Name methods return the
// Prometheus series names served on /metrics.
type (
	ObsCounter = obs.Counter
	ObsHisto   = obs.Histo
)

// Pre-registered counters and histograms (see internal/obs's package
// documentation for meanings).
const (
	CTasksSubmitted = obs.CTasksSubmitted
	CTasksExecuted  = obs.CTasksExecuted
	CTasksSkipped   = obs.CTasksSkipped
	CTasksAborted   = obs.CTasksAborted
	CReplayHits     = obs.CReplayHits
	CReplayCompiled = obs.CReplayCompiled
	CDequePush      = obs.CDequePush
	CDequePop       = obs.CDequePop
	CDequeSteal     = obs.CDequeSteal
	CDequeStealFail = obs.CDequeStealFail
	CParks          = obs.CParks
	CWakes          = obs.CWakes
	CThrottleStalls = obs.CThrottleStalls
	CMPISends       = obs.CMPISends
	CMPIRecvs       = obs.CMPIRecvs
	CMPICollectives = obs.CMPICollectives
	CMPIBytesSent   = obs.CMPIBytesSent
	CMPIBytesRecvd  = obs.CMPIBytesRecvd
	CFaultsInjected = obs.CFaultsInjected

	HTaskBodyNs       = obs.HTaskBodyNs
	HDiscoveryBatchNs = obs.HDiscoveryBatchNs
	HReplayCopyNs     = obs.HReplayCopyNs
	HTaskwaitNs       = obs.HTaskwaitNs
)

// WriteChrome writes profile task records (Profile.Tasks, the Gantt
// input) and span events (ObsRegistry.DrainSpans) as one Chrome
// trace-event document, loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing; either may be nil. A runtime stamps both from one
// time origin, so a task's body span nests inside its record.
func WriteChrome(w io.Writer, tasks []TaskRecord, spans []SpanEvent) error {
	return obs.WriteChrome(w, tasks, spans)
}
