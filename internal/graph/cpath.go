package graph

import "sync/atomic"

// Critical-path stamping and the O(1) release-time fold (the graph side
// of internal/cpath). When a Graph is built with a Config.Clock, every
// task carries four clock stamps splitting its life into the paper's
// phases — discovery (submit entry to producer-sentinel release),
// ready-wait (ready to body start), execute (body), release (successor
// walk, accounted by the runtime) — and the terminal transition folds
// the task's longest weighted predecessor path into each successor:
//
//	cp[t] = own(t) + max over finished preds p of cp[p]
//
// The fold is O(out-degree) amortized over the successor walk the
// terminal transition already performs, so critical-path maintenance
// adds no extra graph traversal: by the time the LAST task finishes,
// the maximum path total over finished tasks is T-infinity, exactly as an
// offline longest-path computation over the same weights would report
// (internal/cpath.ExactCP cross-checks this in the cpath experiment).
//
// Memory ordering. A finishing task's path fields are written (once) in
// StampFinish before its successor walk; each fold CASes the successor's
// best pointer and is sequenced before the same goroutine's decrement
// of the successor's predecessor counter. The decrement that releases
// the successor therefore happens-after every predecessor's fold — the
// identical publication argument as poison propagation (see
// Graph.finishInto) — so the released task's executor reads a complete,
// immutable fold set. readyNs is written by the releasing goroutine
// before the task is published to any run queue, making it visible to
// whichever worker later pops the task; finNs never leaves the finishing
// goroutine until the terminal state is published. startNs is an atomic:
// the producer may fulfill a detached task while the worker that claimed
// it stamps the start, and StampFinish reads the stamp.
//
// Clock. Stamps read Config.Clock (clock.go): in its cached mode a
// periodically refreshed atomic, one inlined load per stamp instead of a
// time read, which would cost a grain-0 task about half again.
//
// Storage. The stamps and the fold live in a cpState beside the task,
// not in it: allocTasks carves one per task out of a side array of the
// chunk, and only for a graph configured with a clock, so a graph without
// the profiler pays neither the 48 bytes per task nor their zeroing
// (Task.cp stays nil; the accessors below read zero from it). Every
// stamp site is gated on g.clock, so none dereferences a nil record.

// cpState is a task's critical-path record. The stamps are
// single-writer by construction: discNs is written by the producer
// before the sentinel release publishes the task, readyNs by the
// releasing goroutine before queue publication, startNs by the
// executing worker and finNs by the finishing goroutine. best is the
// only concurrently written field (CAS-max by finishing predecessors,
// ordered before their counter decrements exactly like poison
// propagation); startNs is read concurrently (see Memory ordering).
type cpState struct {
	readyNs int64        // clock at the ready transition (release-side stamp)
	startNs atomic.Int64 // clock at body start
	finNs   int64        // clock at the terminal transition
	discNs  int64        // discovery phase: submit entry -> sentinel release
	// total is the weight of the longest predecessor path ending at (and
	// including) this task, all the max needs: the path's phase split is
	// its tasks' own phases along the best chain (CP). Written exactly
	// once, by the finishing goroutine in StampFinish, BEFORE the
	// successor walk that publishes it to the folds of later tasks.
	total int64
	// best points to the finished predecessor realizing the longest
	// path into this task. The chain of best pointers from the critical
	// task back to a root IS the critical path.
	best atomic.Pointer[Task]
}

// StampStart records the body-start clock on t. Start does this
// implicitly; the compiled replay fast path — which elides Start's
// state store — calls it directly.
func (g *Graph) StampStart(t *Task) {
	if g.clock != nil {
		t.cp.startNs.Store(g.clock.Now())
	}
}

// StampReady records the ready-transition clock on t without a state
// store. The runtime uses it for compiled-replay roots, which are
// seeded into the scheduler directly rather than released through a
// predecessor walk. Must be called before the task is published.
func (g *Graph) StampReady(t *Task) {
	if g.clock != nil {
		t.cp.readyNs = g.clock.Now()
	}
}

// StampFinish closes t's phase accounting and computes its critical
// path: finNs is stamped, the phase durations are derived from the
// stamps, and the path total becomes their sum plus the best folded
// predecessor's. Must be called by the finishing goroutine BEFORE the
// terminal transition (CompleteInto/SkipInto/AbortInto or the compiled
// FinishInto), whose successor walk publishes it. No-op when the
// profiler is off.
func (g *Graph) StampFinish(t *Task) {
	if g.clock == nil {
		return
	}
	c := t.cp
	c.finNs = g.clock.Now()
	disc, wait, exec := c.phaseNs()
	c.total = disc + wait + exec
	if best := c.best.Load(); best != nil {
		c.total += best.cp.total
	}
}

// phaseNs derives the task's own phase durations from its stamps.
// Negative differences are clamped to zero: the cached clock quantizes
// stamps, and a task can finish externally (detached Fulfill) before
// ever being released or started, leaving stamps at zero.
func (c *cpState) phaseNs() (disc, wait, exec int64) {
	disc = c.discNs
	if start := c.startNs.Load(); start != 0 {
		if c.readyNs != 0 {
			wait = start - c.readyNs
		}
		exec = c.finNs - start
	} else if c.readyNs != 0 {
		// Never started (skipped, or detached-completed before a worker
		// picked it up): the whole ready->finish interval is wait.
		wait = c.finNs - c.readyNs
	}
	if disc < 0 {
		disc = 0
	}
	if wait < 0 {
		wait = 0
	}
	if exec < 0 {
		exec = 0
	}
	return disc, wait, exec
}

// foldCPInto folds the finished task t's critical path into successor
// s: a CAS-max on s's best pointer keyed by total. Lock-free; concurrent
// predecessor finishes race only on the pointer, and every candidate's
// total is immutable by the time its pointer is visible (written in
// StampFinish before the walk that published it).
func foldCPInto(t, s *Task) {
	// A weightless path contributes nothing to max over preds: skip the
	// CAS. This is the fold's grain-0 fast path — under the cached
	// clock most short tasks quantize to zero own-weight, and folding
	// them would only extend the recovered path chain with zero-length
	// links. (The precise clock, which the exactness cross-check runs
	// under, essentially never produces an all-zero path.)
	total := t.cp.total
	if total == 0 {
		return
	}
	best := &s.cp.best
	for {
		cur := best.Load()
		if cur != nil && cur.cp.total >= total {
			return
		}
		if best.CompareAndSwap(cur, t) {
			return
		}
	}
}

// resetCP clears per-iteration critical-path state for persistent
// replay. discNs is cleared too: replay's whole point is that
// discovery does not recur, so replay iterations carry zero discovery
// weight on their paths (the recording iteration keeps the real cost).
func (t *Task) resetCP() {
	c := t.cp
	if c == nil {
		return
	}
	c.readyNs = 0
	c.startNs.Store(0)
	c.finNs = 0
	c.discNs = 0
	c.total = 0
	c.best.Store(nil)
}

// noCP is the record the accessors below read for a task without one
// (profiler off): all zero. Never written.
var noCP cpState

func (t *Task) cpRecord() *cpState {
	if t.cp != nil {
		return t.cp
	}
	return &noCP
}

// CPTotal returns the weight of the longest path ending at t. Valid once
// t is Done (published by the successor walk of its terminal transition,
// or readable by the goroutine that finished it). Zero when the profiler
// is off.
func (t *Task) CPTotal() int64 { return t.cpRecord().total }

// CP returns the longest weighted path ending at t, split by phase: the
// own phases of the tasks on its best chain, which add up to CPTotal.
// It walks the chain, so it is for a window's end, not for every task.
func (t *Task) CP() (total, disc, wait, exec int64) {
	for p := t; p != nil; p = p.CPBest() {
		d, w, e := p.PhaseNs()
		disc, wait, exec = disc+d, wait+w, exec+e
	}
	return t.CPTotal(), disc, wait, exec
}

// CPBest returns the predecessor realizing t's critical path (nil for
// path roots, and when the profiler is off). Walking CPBest from the critical
// task recovers the whole path in O(path length).
func (t *Task) CPBest() *Task { return t.cpRecord().best.Load() }

// PhaseNs returns t's own phase durations (discovery, ready-wait,
// execute), derived from its stamps. Valid once t is Done.
func (t *Task) PhaseNs() (disc, wait, exec int64) { return t.cpRecord().phaseNs() }

// ReadyAtNs, StartAtNs and FinishAtNs expose the raw clock stamps (in
// the Config.Clock's domain) for trace alignment; zero means
// the transition never happened (or the profiler is off).
func (t *Task) ReadyAtNs() int64  { return t.cpRecord().readyNs }
func (t *Task) StartAtNs() int64  { return t.cpRecord().startNs.Load() }
func (t *Task) FinishAtNs() int64 { return t.cpRecord().finNs }
