package graph

import (
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Opt is a bitmask of the paper's TDG discovery optimizations.
type Opt uint32

const (
	// OptDedup is optimization (b): O(1) elimination of duplicate edges
	// between the same (pred, succ) pair, exploiting sequential
	// submission.
	OptDedup Opt = 1 << iota
	// OptInOutSetNode is optimization (c): insert an empty redirect node
	// after an inoutset group so m producers and n consumers need m+n
	// edges instead of m*n — and, the same idea for read sets, a pair of
	// them around a run of batch tasks that read the same m keys, so m
	// writers, n readers and the next m writers need 2(m+n) edges instead
	// of 2mn (read runs, batch.go).
	OptInOutSetNode
	// OptKeepPrunedEdges materializes precedence edges even when the
	// predecessor already completed (the case the discovery normally
	// prunes). Completed predecessors never decrement the successor's
	// counter, so execution is unaffected; the edge only exists so a
	// happens-before path stays visible to the TDG verifier
	// (internal/verify). Enabled by the runtime when Config.Verify is
	// on; deliberately NOT part of OptAll.
	OptKeepPrunedEdges
	// OptAll enables every runtime-side optimization. Optimization (a)
	// — minimizing user-declared dependences — lives in application
	// builders, and (p) — persistence — is a mode, not a flag.
	OptAll = OptDedup | OptInOutSetNode
)

// Stats aggregates discovery-side counters. All counts are cumulative
// since graph creation.
//
// Consistency model: every counter is monotonic. The four edge counters
// are updated under the discovery lock and Stats reads them under it, so
// EdgesAttempted == EdgesCreated + EdgesPruned + EdgesDuplicate holds in
// every snapshot, mid-batch scrapes included. A constraint against a
// predecessor that already finished is classified before anything else
// about the predecessor is looked at, so a repeated one counts as
// pruned, not as a duplicate. Tasks, RedirectNodes, ReplayedTasks,
// WindowsEnded and TasksReused are atomics: a snapshot taken while the
// producer is running can show a task counted whose edges are not yet,
// never invented or lost events, and is exact at a quiescent point (no
// in-flight Submit / SubmitBatch / Complete, e.g. after a taskwait).
//
// A constraint is attempted only against a task of the current window
// (EndWindow): a window that ends forgets its frontier, so the
// constraints a later task would have had on its finished tasks — every
// one of them pruned — are never attempted. Where windows end,
// EdgesAttempted and EdgesPruned therefore read lower than the stream's
// declared constraints, and so do RedirectNodes and EdgesCreated: a read
// run whose shared keys have no writer in the window needs no entry node.
type Stats struct {
	Tasks          int64 // tasks discovered (including redirect nodes)
	RedirectNodes  int64 // empty nodes inserted by optimization (c), both forms
	EdgesAttempted int64 // precedence constraints processed
	EdgesCreated   int64 // edges actually materialized
	EdgesPruned    int64 // skipped: predecessor already completed
	EdgesDuplicate int64 // skipped by optimization (b)
	ReplayedTasks  int64 // persistent re-instantiations (iterations >= 1)
	WindowsEnded   int64 // EndWindow calls that ended a window
	TasksReused    int64 // tasks carved from a recycled chunk
}

// keyState tracks the discovery frontier for one data key.
type keyState struct {
	// window is the frontier window (Graph.window) the fields below
	// belong to; frontierOf empties a state of an older one.
	window uint64
	// outSet is the set of tasks any subsequent access must succeed:
	// a single writer, an open inoutset group, or a redirect node.
	outSet []*Task
	// readers are In-tasks registered since the last out-set.
	readers []*Task
	// setOpen reports whether outSet is an open inoutset group.
	setOpen bool
	// redirect is the optimization-(c) node of the open group, if any.
	redirect *Task
	// baseOut/baseReaders are the dependences every member of the open
	// inoutset group must succeed (the out-set and readers that preceded
	// the group). Their backing arrays are swapped with outSet/readers
	// at group open, so opening a group allocates nothing.
	baseOut     []*Task
	baseReaders []*Task
	// run marks the key as one the open read run of a discover call shares
	// (batch.go): that run's first member. Set and cleared inside the call,
	// under the discovery lock, so it is nil whenever the lock is free.
	run *Task
}

// forget empties a frontier state of an ended window, keeping its slices'
// capacity. The tasks it held have all finished: see EndWindow. It assigns
// only what an ended window can leave behind — the lists and a group
// without a redirect node; redirect and run are nil whenever a window
// ends — instead of copying a whole zero state over the 128 bytes.
func (ks *keyState) forget(window uint64) {
	ks.window = window
	ks.outSet = ks.outSet[:0]
	ks.readers = ks.readers[:0]
	ks.setOpen = false
	ks.baseOut = ks.baseOut[:0]
	ks.baseReaders = ks.baseReaders[:0]
}

// ReadyFunc receives tasks that become ready on the producer side — at
// submission, group close, flush, or replay. Tasks released by a
// completion are NOT passed to it: Complete returns them to its caller,
// which must schedule them (this is how depth-first executors attribute
// successors to the completing worker).
//
// Discovery publishes ready tasks after it drops the discovery lock, so
// ReadyFunc never runs under it; it runs on the producer's goroutine, and
// must not call back into Submit, SubmitBatch, Flush or the replay calls.
type ReadyFunc func(*Task)

// Config parametrizes a Graph beyond the optimization mask.
type Config struct {
	// Opts is the optimization bitmask.
	Opts Opt
	// OnReady receives producer-side ready tasks; required.
	OnReady ReadyFunc
	// OnReadyBatch, if non-nil, receives producer-side ready tasks in
	// batches: one call replaces len(batch) OnReady calls, letting
	// executors amortize queue locking. Only the compiled gated replay
	// (Compiled.Replay) readies tasks one at a time through OnReady. The
	// slice is the producer's buffer, valid only during the call.
	OnReadyBatch func([]*Task)
	// Clock, when non-nil, enables critical-path stamping and the
	// release-time fold (see cpath.go), read from this clock; the graph
	// runs a cached clock's ticker while it has work.
	Clock *Clock
}

// Graph is a task dependency graph discovered by one producer and
// drained by concurrent workers.
//
// Concurrency contract: one producer at a time. Submit, SubmitBatch,
// Flush, EndWindow, ResetDiscoveryFrontier and persistence
// (BeginRecording through FinishReplay) are the producer's, and must not
// run concurrently with each other. The role may pass from one goroutine to another when the
// hand-off is synchronized (a mutex, a channel): that is still one
// producer. Complete and its Into forms may be called concurrently from
// any number of workers, and Stats, Live and ReadyCount from any
// goroutine at any time.
//
// Layout: the first four fields are set at construction and read on
// every finish or stamp; they stay off the cache line of lr, which every
// finish writes. With clock on lr's line the grain-0 drain ran about 70 %
// slower per task, with the profiler off (TestGraphLayout).
type Graph struct {
	opts         Opt
	onReady      ReadyFunc
	onReadyBatch func([]*Task)
	// clock is the critical-path stamp clock (see cpath.go), nil when the
	// profiler is off: every stamp and fold site is gated on it with one
	// predictable branch.
	clock *Clock

	nextID int64 // producer-owned

	// mu is the discovery lock: it guards the key table, the open-group
	// list, the keyState free list and the edge counters, and is held for
	// the whole of a submission. Tasks have no lock: addEdge and
	// finishInto meet on a predecessor's successor word (Task.succWord).
	mu   sync.Mutex
	keys keyTable // see keytable.go
	// window is the frontier window: EndWindow advances it, and a key
	// state of an older one reads as empty (keyState.window). Producer-only.
	window uint64
	// open lists the keys whose inoutset group is open and holds an
	// unreleased redirect node, in the order the groups opened: a key
	// leaves it when its group closes (dropOpen), and Flush empties it.
	open []*keyState
	// free is the keyState recycling list (see alloc.go).
	free []*keyState
	// Edge counters (see Stats).
	attempted, created, pruned, duplicate int64
	// runKeys is the read runs' keyState buffer (readRun.keys), kept
	// between discover calls so a run allocates nothing.
	runKeys []*keyState
	// readyBuf collects the tasks the producer readies (releaseSentinel),
	// for publishReady to hand out once the discovery lock is dropped;
	// kept between calls for the same reason.
	readyBuf []*Task

	// Task memory (alloc.go), producer-owned: chunk is the chunk tasks are
	// carved from, windowChunks the chunks the current window carved, for
	// EndWindow to recycle, and spare the recycled ones allocTasks takes
	// before it allocates.
	chunk        *taskChunk
	windowChunks []*taskChunk
	spare        []*taskChunk
	// submitKeys is Submit's producer-owned buffer for grouping a []Dep by
	// type (submitOne).
	submitKeys []Key

	// Atomic counters (see Stats for the consistency model).
	tasks, redirects, replayed, windows, reused atomic.Int64

	// lr packs the live (high 32 bits) and ready (low 32 bits) gauges
	// into one word so the release path settles both with a single
	// wait-free fetch-add — the generic terminal transition used to pay
	// two contended LOCK XADDs on two global cache lines, one per
	// gauge. Packed two's-complement addition decomposes exactly as
	// long as the low half never under- or overflows, which the task
	// lifecycle guarantees: every task is marked ready (low +1) before
	// it can finish (low -1), and both gauges are bounded by the live
	// task count, far below 2^31. See lrAdd.
	lr atomic.Uint64

	// failEpoch is the current failure window. A task that drains
	// non-Completed stamps the window it failed in; discovery-time
	// poisoning (addEdge against an already-drained predecessor) only
	// applies within the same window, so consuming a failure at
	// Taskwait — which advances the epoch — makes keys last written by
	// a failed task usable again instead of poisoning forever.
	failEpoch atomic.Uint64
	// failedIn is one more than the failure window of the latest poisoned
	// finish: equal to failEpoch+1 while a task that can poison discovery
	// (addEdge) has drained in the current window, which keeps EndWindow
	// from forgetting it. Stored before the finish leaves the live gauge.
	failedIn atomic.Uint64
	// gated is the schedule of the open gated iteration (BeginReplay to
	// FinishReplay), for ConsumeFailures. Producer-only.
	gated *Compiled

	// redirectLog retains every optimization-(c) node for the TDG
	// verifier; populated only under OptKeepPrunedEdges (verify mode),
	// since it pins completed nodes for the graph's lifetime.
	redirectMu  sync.Mutex
	redirectLog []*Task

	// persistence (single-producer). recordFrom is the first ID of the
	// latest recording: its tasks are the Persistent ones from there on.
	persistent  bool
	recording   bool
	recordFrom  int64
	recorded    []*Task
	replayIndex int
}

// NewWithConfig creates an empty graph. cfg.OnReady must be non-nil: it
// is called exactly once per task that becomes ready on the producer side
// (unless OnReadyBatch takes the task in a batch).
func NewWithConfig(cfg Config) *Graph {
	if cfg.OnReady == nil {
		panic("graph: nil ReadyFunc")
	}
	g := &Graph{
		opts:         cfg.Opts,
		onReady:      cfg.OnReady,
		onReadyBatch: cfg.OnReadyBatch,
		clock:        cfg.Clock,
	}
	if g.clock != nil {
		g.clock.start(g)
	}
	return g
}

// Opts returns the optimization mask the graph was created with.
func (g *Graph) Opts() Opt { return g.opts }

// lrAdd adjusts the packed live/ready gauges with one fetch-add.
// Negative deltas rely on two's-complement wraparound: adding
// live<<32 + ready modulo 2^64 yields exactly (live+Δlive, ready+Δready)
// in the two halves provided the new ready value stays in [0, 2^32) —
// callers only ever decrement ready together with live for a task that
// was previously marked ready, so the low half never borrows.
func (g *Graph) lrAdd(live, ready int64) {
	g.lr.Add(uint64(live<<32 + ready))
}

// Live returns the number of discovered-but-uncompleted tasks, the
// quantity bounded by MPC-OMP's total-tasks throttling threshold.
// It is exact up to in-flight transitions: a task is counted from
// before it becomes visible to any other goroutine until its Complete
// returns. A compiled iteration counts every position from its begin
// until the finish is settled (Compiled.FinishInto, Retire).
func (g *Graph) Live() int64 { return int64(g.lr.Load() >> 32) }

// ReadyCount returns the number of ready-or-running tasks, the quantity
// bounded by classic ready-task throttling. Same consistency model as
// Live. Read from the same packed word as Live, so a single load gives
// a mutually consistent (live, ready) pair.
func (g *Graph) ReadyCount() int64 { return int64(uint32(g.lr.Load())) }

// Stats returns a snapshot of the discovery counters; safe from any
// goroutine, see the Stats type for the consistency model.
func (g *Graph) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return Stats{
		Tasks:          g.tasks.Load(),
		RedirectNodes:  g.redirects.Load(),
		ReplayedTasks:  g.replayed.Load(),
		WindowsEnded:   g.windows.Load(),
		TasksReused:    g.reused.Load(),
		EdgesAttempted: g.attempted,
		EdgesCreated:   g.created,
		EdgesPruned:    g.pruned,
		EdgesDuplicate: g.duplicate,
	}
}

// Submit discovers one task with the given dependences, a batch of one
// (SubmitBatch). It returns the task descriptor. Producer-only.
//
// The declarations are grouped by type, in TaskDesc's order, keeping the
// order within each type: discovery sees exactly what a TaskDesc with the
// same lists would give it.
func (g *Graph) Submit(label string, deps []Dep, body func(fp any), fp any) *Task {
	return g.submitOne(label, deps, body, fp, false)
}

// SubmitDetached is Submit for a detached task: its completion is
// signalled externally rather than at body return. The flag must be set
// before the task is released, hence this dedicated entry point.
func (g *Graph) SubmitDetached(label string, deps []Dep, body func(fp any), fp any) *Task {
	return g.submitOne(label, deps, body, fp, true)
}

// submitOne discovers the one task Submit or SubmitDetached describes, its
// key lists grouped in the producer-owned buffer submitKeys.
func (g *Graph) submitOne(label string, deps []Dep, body func(fp any), fp any, detached bool) *Task {
	var d TaskDesc
	d, g.submitKeys = groupDeps(g.submitKeys[:0], deps)
	d.Label, d.Body, d.FirstPrivate, d.Detached = label, body, fp, detached
	var ts [1]*Task
	return g.SubmitBatch(unsafe.Slice(&d, 1), ts[:0])[0]
}

// groupDeps appends deps' keys to buf grouped by type, in TaskDesc's
// order and in declaration order within a type, and returns the TaskDesc
// of those lists with the extended buf. Two passes, neither branching on
// a type: one counts, one places.
func groupDeps(buf []Key, deps []Dep) (TaskDesc, []Key) {
	var n, at [InOutSet + 1]int
	for _, dep := range deps {
		if dep.Type <= InOutSet {
			n[dep.Type]++
		}
	}
	end := len(buf)
	for typ := range at {
		at[typ] = end
		end += n[typ]
	}
	buf = slices.Grow(buf, end-len(buf))[:end]
	var lists [InOutSet + 1][]Key
	for typ := range lists {
		lists[typ] = buf[at[typ] : at[typ]+n[typ] : at[typ]+n[typ]]
	}
	for _, dep := range deps {
		if dep.Type <= InOutSet {
			buf[at[dep.Type]] = dep.Key
			at[dep.Type]++
		}
	}
	return TaskDesc{In: lists[In], Out: lists[Out], InOut: lists[InOut], InOutSet: lists[InOutSet]}, buf
}

// frontierOf returns k's frontier state in the current window, creating
// it on first access and emptying one an ended window left. The caller
// holds the discovery lock.
func (g *Graph) frontierOf(k Key) *keyState {
	ks := g.keys.get(k)
	if ks == nil {
		ks = g.allocKeyState()
		ks.window = g.window
		g.keys.put(k, ks)
	} else if ks.window != g.window {
		ks.forget(g.window)
	}
	return ks
}

// read, write and joinSet apply one dependence declaration of t during
// discovery, an In, an Out or InOut, and an InOutSet one. The caller holds
// the discovery lock.
func (g *Graph) read(t *Task, k Key) {
	ks := g.frontierOf(k)
	g.dependOnOutSet(t, ks)
	ks.readers = append(ks.readers, t)
}

func (g *Graph) write(t *Task, k Key) {
	ks := g.frontierOf(k)
	g.dependOnOutSet(t, ks)
	for _, r := range ks.readers {
		g.addEdge(r, t)
	}
	ks.readers = ks.readers[:0]
	ks.outSet = append(ks.outSet[:0], t)
	ks.setOpen = false
	ks.redirect = nil
}

func (g *Graph) joinSet(t *Task, k Key) {
	ks := g.frontierOf(k)
	if !ks.setOpen {
		// Starting a new group: the previous frontier becomes the
		// base every member must succeed, and the group itself
		// becomes the out-set. Swapping the backing arrays makes
		// this allocation-free.
		ks.baseOut, ks.outSet = ks.outSet, ks.baseOut[:0]
		ks.baseReaders, ks.readers = ks.readers, ks.baseReaders[:0]
		ks.setOpen = true
		ks.redirect = nil
		if g.opts&OptInOutSetNode != 0 {
			ks.redirect = g.newRedirect()
			g.open = append(g.open, ks)
		}
	}
	for _, p := range ks.baseOut {
		g.addEdge(p, t)
	}
	for _, r := range ks.baseReaders {
		g.addEdge(r, t)
	}
	ks.outSet = append(ks.outSet, t)
	if ks.redirect != nil {
		g.addEdge(t, ks.redirect)
	}
}

// dependOnOutSet makes t succeed the current out-set of ks, collapsing an
// open inoutset group through its redirect node when optimization (c) is
// enabled. A non-inoutset access closes any open group. Caller holds the
// discovery lock.
func (g *Graph) dependOnOutSet(t *Task, ks *keyState) {
	if ks.setOpen {
		if ks.redirect != nil {
			g.addEdge(ks.redirect, t)
			// With a redirect node, the node now stands for the
			// whole group.
			ks.outSet = append(ks.outSet[:0], ks.redirect)
			g.dropOpen(ks)
		} else {
			for _, p := range ks.outSet {
				g.addEdge(p, t)
			}
		}
		// Group closes on first non-inoutset access.
		g.closeGroup(ks)
		return
	}
	for _, p := range ks.outSet {
		g.addEdge(p, t)
	}
}

// closeGroup ends an open inoutset group, dropping the producer sentinel
// of its redirect node so the node can complete once all members finish.
// Caller holds the discovery lock.
func (g *Graph) closeGroup(ks *keyState) {
	if ks.redirect != nil {
		g.releaseSentinel(ks.redirect)
	}
	ks.setOpen = false
	ks.baseOut = ks.baseOut[:0]
	ks.baseReaders = ks.baseReaders[:0]
	ks.redirect = nil
}

// dropOpen takes ks, whose group is closing, off the open list. Groups
// close mostly in the order they opened, and few are open at once: the
// search from the end is short. Caller holds the discovery lock.
func (g *Graph) dropOpen(ks *keyState) {
	for i := len(g.open) - 1; i >= 0; i-- {
		if g.open[i] == ks {
			g.open = slices.Delete(g.open, i, i+1)
			return
		}
	}
}

// Flush closes every still-open inoutset group. Executors call it at
// synchronization points (taskwait, barrier, end of recording) so that
// redirect nodes pending on a producer sentinel can drain.
// Producer-only.
func (g *Graph) Flush() {
	g.mu.Lock()
	for _, ks := range g.open {
		g.closeGroup(ks)
	}
	clear(g.open)
	g.open = g.open[:0]
	g.mu.Unlock()
	g.publishReady()
}

// publishReady delivers the tasks the producer readied (readyBuf) through
// OnReadyBatch when configured, else task by task, and keeps the buffer,
// emptied, for the next call. The tasks enter the ready gauge here, in one
// add before any of them is published: until then no other goroutine can
// reach them to finish them. Never called under the discovery lock.
func (g *Graph) publishReady() {
	ready := g.readyBuf
	if len(ready) == 0 {
		return
	}
	g.lrAdd(0, int64(len(ready)))
	if g.onReadyBatch != nil {
		g.onReadyBatch(ready)
	} else {
		for _, t := range ready {
			g.onReady(t)
		}
	}
	clear(ready)
	g.readyBuf = ready[:0]
}

// newRedirect allocates and releases an optimization-(c) empty node. It
// participates in the graph like any task; executors complete it with
// zero-cost bodies.
func (g *Graph) newRedirect() *Task {
	var one [1]*Task
	r := g.allocTasks(1, one[:0])[0]
	r.ID = g.nextID
	g.nextID++
	r.Label = "redirect"
	r.Redirect = true
	g.tasks.Add(1)
	g.redirects.Add(1)
	g.lrAdd(1, 0)
	r.Persistent = g.recording
	if g.recording {
		g.recorded = append(g.recorded, r)
	}
	if g.opts&OptKeepPrunedEdges != 0 {
		g.redirectMu.Lock()
		g.redirectLog = append(g.redirectLog, r)
		g.redirectMu.Unlock()
	}
	// The node is released (releaseSentinel) when the group closes (or at
	// Flush), so it cannot complete while member edges are still being
	// added.
	return r
}

// RedirectNodes returns every optimization-(c) node created so far.
// Only tracked under OptKeepPrunedEdges (verify mode); nil otherwise.
func (g *Graph) RedirectNodes() []*Task {
	g.redirectMu.Lock()
	defer g.redirectMu.Unlock()
	return g.redirectLog
}

// addEdge records the precedence constraint pred -> succ, applying
// completed-predecessor pruning and duplicate elimination (b). succ must
// be the task currently under discovery or a redirect node whose sentinel
// is still held; the caller holds the discovery lock.
func (g *Graph) addEdge(pred, succ *Task) {
	if pred == succ {
		return
	}
	g.attempted++

	// An edge is replay-relevant only when the predecessor belongs to
	// the same recording: it will be re-instanced and complete again on
	// every iteration. Edges from outside the recording (earlier tasks,
	// earlier recordings) are one-time constraints — if the predecessor
	// already completed they are pruned even while recording, otherwise
	// they count toward the live indegree only.
	sameRecording := g.recording && g.inRecording(pred)
	keepDone := sameRecording || g.opts&OptKeepPrunedEdges != 0

	// A finished predecessor whose edge need not be kept is pruned on one
	// atomic load: a terminal state never reverts for a task discovery can
	// still reach, and finishInto wrote failEpoch before it stored the
	// state this load observed. (docs/architecture.md has the argument.)
	if st := State(pred.state.Load()); st.Done() && !keepDone {
		g.inheritPoison(pred, st, succ)
		g.pruned++
		return
	}
	if g.opts&OptDedup != 0 && pred.lastSucc == succ {
		g.duplicate++
		return
	}
	// Write the entry, then count it with one CAS on the successor word.
	// The producer is the word's only writer but for the finish's seal, so
	// a CAS that fails (or a word already sealed) means pred finished and
	// walked its list without this entry: the state store came before the
	// seal, so pred reads Done from here on, its failEpoch written.
	w := pred.succWord.Load()
	n := int(w &^ sealBit)
	pred.putSucc(n, succ)
	if w&sealBit == 0 && pred.succWord.CompareAndSwap(w, w+1) {
		// Counted: the finish that seals the word walks entry n and
		// decrements succ.preds — maybe before releaseSentinel, which
		// only ever adds.
		succ.live++
	} else {
		g.inheritPoison(pred, State(pred.state.Load()), succ)
		if !keepDone {
			pred.unputSucc(n)
			g.pruned++
			return
		}
		// Kept uncounted, for later iterations (or the audit) only: no
		// finish walks a sealed word again.
		pred.succWord.Store(uint32(n+1) | sealBit)
	}
	pred.lastSucc = succ
	if sameRecording {
		succ.recordedIndegree++
	}
	g.created++
}

// inheritPoison applies discovery-time poisoning for an edge from pred,
// which has finished in state st, to succ: a predecessor that drained as
// Aborted/Skipped (or finished while poisoned) in the CURRENT failure
// window puts the new successor in its poisoned cone even when the edge
// is pruned and no longer orders execution. Predecessors that failed in
// an already-consumed window (ConsumeFailures ran since) don't poison —
// the producer observed that failure and moved on.
func (g *Graph) inheritPoison(pred *Task, st State, succ *Task) {
	if (st != Completed || pred.Poisoned()) && pred.failEpoch == g.failEpoch.Load() {
		succ.Poison()
	}
}

// releaseSentinel drops the producer's hold on t: one atomic add of the
// live edges discovery counted privately to a counter that started at 0
// and that only finishing predecessors have touched since, each with a
// decrement. Before this add the counter is 0 or negative, so no
// finisher can bring it to 0; after it, it is live-f (f of the live
// predecessors finished), and whichever operation then brings it to 0,
// this one or a later finish, is the only one that readies t. A task
// without live edges is ready on the spot: nothing will ever decrement
// its counter. A ready task goes into readyBuf, for publishReady to count
// and publish once the producer is out of the discovery lock.
func (g *Graph) releaseSentinel(t *Task) {
	if t.live == 0 || t.preds.Add(t.live) == 0 {
		g.markReady(t)
		g.readyBuf = append(g.readyBuf, t)
	}
}

// markReady moves t from Created to Ready, without notifying onReady and
// without counting it in the ready gauge: its caller does both, the
// gauge always before the task is published. It reports whether it did,
// which fails only for a detached task an external Fulfill finished while
// it still waited on predecessors (readyDetached): a terminal state is
// never overwritten, so a finished task stays Done for discovery. The
// single choke point for ready transitions, so the ready-wait stamp lands
// here: the releasing goroutine writes readyNs before the task is
// published to any queue (single writer, pre-publication).
func (g *Graph) markReady(t *Task) bool {
	if !t.state.CompareAndSwap(int32(Created), int32(Ready)) {
		return false
	}
	if g.clock != nil {
		t.cp.readyNs = g.clock.Now()
	}
	return true
}

// readyDetached readies a detached task a finish released. An external
// Fulfill may finish it at any time — from the moment it reads Ready,
// which is why the gauge counts it first — or may already have finished
// it while it waited on its predecessors, which is why the count is given
// back when markReady refuses: that task is not readied again.
func (g *Graph) readyDetached(t *Task) bool {
	g.lrAdd(0, 1)
	if g.markReady(t) {
		return true
	}
	g.lrAdd(0, -1)
	return false
}

// Start claims a ready task for its body: it moves t from Ready to
// Running and reports whether it did. Executors call it before the body
// and skip the body when it fails, which happens only when the task
// already finished: an external Fulfill completed a detached task while
// its queue publication was in flight. A plain store of Running there
// would overwrite the terminal state, and the task would never finish
// again for the successors later discovered against its keys.
func (g *Graph) Start(t *Task) bool {
	if !t.state.CompareAndSwap(int32(Ready), int32(Running)) {
		return false
	}
	g.StampStart(t)
	return true
}

// Complete marks t finished and releases its successors. Safe to call
// from any goroutine. Successors whose last predecessor was t become
// Ready and are returned; the CALLER must schedule them (depth-first
// executors push them onto the completing worker's deque). onReady is
// deliberately not invoked for them.
func (g *Graph) Complete(t *Task) []*Task { return g.CompleteInto(t, nil) }

// CompleteInto is Complete appending the released successors into
// buf[:0], so completion-heavy executors can reuse one buffer per
// worker instead of allocating per completion. The returned slice
// aliases buf (possibly regrown); its contents are only valid until the
// caller's next CompleteInto with the same buffer.
func (g *Graph) CompleteInto(t *Task, buf []*Task) []*Task {
	return g.finishInto(t, buf, Completed)
}

// AbortInto finishes t as failed: successors are released exactly as in
// CompleteInto, but each is poisoned first, so the entire successor
// cone drains as Skipped without executing while disjoint subgraphs run
// to completion. Same buffer contract as CompleteInto.
func (g *Graph) AbortInto(t *Task, buf []*Task) []*Task {
	return g.finishInto(t, buf, Aborted)
}

// SkipInto finishes a poisoned (or abort-cancelled) task without its
// body having run. Successors are released poisoned, so a skip releases
// its own successors and the graph always drains. Same buffer contract
// as CompleteInto.
func (g *Graph) SkipInto(t *Task, buf []*Task) []*Task {
	return g.finishInto(t, buf, Skipped)
}

// finishInto is the single terminal transition: store the final state,
// release successors, propagate poison. Poison is stored on a successor
// BEFORE this task's predecessor-counter decrement; the decrement that
// makes the successor ready therefore happens after every poisoning
// predecessor's store, and the queue publication that hands the ready
// task to a worker orders the store before the worker's Poisoned() load.
// A task with an aborted ancestor is thus deterministically skipped, no
// matter how completions interleave.
func (g *Graph) finishInto(t *Task, buf []*Task, final State) []*Task {
	poison := final != Completed || t.Poisoned()
	if poison {
		// Stamp the failure window before the state store publishes it:
		// addEdge reads failEpoch only after observing a Done state.
		t.failEpoch = g.failEpoch.Load()
		g.failedIn.Store(t.failEpoch + 1)
	}
	// ready is the finish's move of the ready gauge: the task leaves it
	// and the successors it releases join it. A task that never
	// transitioned through Ready was never counted in the gauge and must
	// not decrement it: a detached task may be completed by an external
	// Fulfill while still Created (its release blocked behind an
	// unfinished predecessor, or its queue publication not yet consumed).
	// The separate-gauge era tolerated the resulting -1 drift; the packed
	// word must not, since a low-half borrow corrupts the live count.
	ready := int64(-1)
	if State(t.state.Load()) == Created {
		ready = 0
	}
	t.state.Store(int32(final))
	// Seal the successor list: the count this CAS replaces is the walk.
	// Every entry addEdge counted before it is in the walk; every later
	// CAS of addEdge fails and finds the state stored above.
	w := t.succWord.Load()
	for !t.succWord.CompareAndSwap(w, w|sealBit) {
		w = t.succWord.Load()
	}

	released := buf[:0]
	cpath := g.clock != nil
	for seg, it := t.walkSuccs(int(w &^ sealBit)); len(seg) > 0; seg = it.next() {
		for _, s := range seg {
			if poison {
				s.poisoned.Store(true)
			}
			if cpath {
				// Fold this task's critical path into the successor
				// BEFORE the decrement that could release it (same
				// publication order as the poison store above). Requires
				// the caller to have run StampFinish, which wrote t's path.
				foldCPInto(t, s)
			}
			if s.preds.Add(-1) != 0 {
				continue
			}
			if !s.Detached {
				g.markReady(s) // only a Fulfill finishes a task early
				ready++
			} else if !g.readyDetached(s) {
				continue
			}
			released = append(released, s)
		}
	}
	// Both gauges settle in one wait-free fetch-add on the shared word
	// (this is the release path's hottest global synchronization), the
	// released successors' ready count folded in: none is published
	// before the caller has the slice back, so none can finish first, and
	// the low half cannot borrow. It is the finish's last touch of t, as
	// in the compiled FinishInto: a producer that loads Live() == 0 has
	// every finisher's reads and writes of its tasks behind it, which is
	// what lets EndWindow hand their memory out again.
	g.lrAdd(-1, ready)
	return released
}

// ConsumeFailures advances the failure epoch: tasks that drained
// failed in earlier windows stop poisoning new successors at discovery
// time. The runtime calls this when a wait consumes the window's
// failures, making the runtime — and keys last written by failed tasks
// — reusable afterwards. Must be called with every released task
// terminal. The positions an open gated iteration has not released yet
// count as not yet discovered: the consumed window's poison leaves them.
func (g *Graph) ConsumeFailures() {
	g.failEpoch.Add(1)
	if c := g.gated; c != nil {
		for _, t := range c.tasks[c.cursor:] {
			t.poisoned.Store(false)
		}
	}
}

// FailEpoch returns the current failure window number (0 until a
// failure has been consumed). Exposed for introspection (/graphz).
func (g *Graph) FailEpoch() uint64 { return g.failEpoch.Load() }

// EndWindow ends the discovery window if the graph has drained, and
// reports whether it did. A window that ends forgets its frontier: every
// key state reads as empty from then on (frontierOf), so no constraint is
// attempted against a task of the window. Its task chunks, but for those
// that hold a recorded or a detached task, go back to the free list
// allocTasks takes from first (alloc.go). Producer-only.
//
// It acts only when forgetting changes nothing a later task could see:
//
//   - Live() == 0: every task discovered so far is terminal, so each
//     forgotten constraint would have been pruned, and every finisher has
//     left the live gauge, its last touch of the task (finishInto,
//     Compiled.FinishInto), so no other goroutine reads a task of the
//     window any more;
//   - outside a persistent region, where an edge to a finished task of
//     the recording is kept, not pruned;
//   - no poisoned task drained in the current failure window: a
//     constraint against one poisons its successor even when pruned, so
//     the window ends only once ConsumeFailures has closed that failure
//     window;
//   - no inoutset group open with a redirect node: the node would still
//     hold the producer's sentinel (and the live gauge); a group without
//     one is finished tasks, forgotten like any others;
//   - not under OptKeepPrunedEdges, which keeps every pruned edge and the
//     redirect log for the verifier.
//
// A graph with the critical-path profiler forgets its frontier but keeps
// its chunks: the profiler retains finished tasks past the window (the
// critical path is a chain of them). Callers that hold *Task past a
// window — the simulator, the graph's own tests — must not call it.
func (g *Graph) EndWindow() bool {
	if g.Live() != 0 || g.persistent || len(g.open) != 0 ||
		g.opts&OptKeepPrunedEdges != 0 || g.failedIn.Load() == g.failEpoch.Load()+1 {
		return false
	}
	g.window++
	g.recycleChunks()
	g.windows.Add(1)
	return true
}

// ResetDiscoveryFrontier clears the per-key discovery state (last
// writers/readers) without touching counters, used between independent
// phases in benchmarks. The key map and keyStates are recycled, not
// reallocated. Producer-only.
func (g *Graph) ResetDiscoveryFrontier() {
	g.mu.Lock()
	g.keys.each(func(_ Key, ks *keyState) { g.recycle(ks) })
	g.keys.reset()
	clear(g.open)
	g.open = g.open[:0]
	g.mu.Unlock()
}
