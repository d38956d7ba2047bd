package graph

// Compiled replay: a recorded persistent sub-graph is lowered into a
// flat, immutable replay schedule so replay iterations touch no key
// table, no pools, and no hashing. The recording's tasks become
// positions 0..n-1 (their order in g.recorded); the dependence
// structure becomes a CSR successor array over those positions, cut
// down to the edges that order something (reduce.go); and the
// per-iteration mutable state shrinks to one dense predecessor-count
// vector, reset from a pristine template. It is what rt replays for
// every persistent region, in one of two ways:
//
//   - a frozen iteration (BeginIteration) re-releases the captured
//     closures: copy(preds, template); seed the indegree-0 positions
//     into the scheduler; count completions down to zero;
//   - a gated iteration (BeginReplay) lets the region body run again:
//     every position starts one above its indegree — the producer's
//     hold — and each Replay call refreshes the next recorded task's
//     firstprivate and closures, then drops its hold. Nothing else
//     differs: the same FinishInto walk, the same live gauge.
//
// Memory ordering. An iteration's progress is the graph's live gauge:
// begin adds the whole schedule to it, and workers count preds entries
// down and take a finished task off the gauge LAST in FinishInto (or in
// a batch, Graph.Retire), after every successor-counter access of that
// completion. The producer begins the next iteration only after loading
// Live() == 0, so that acquire load happens-after every worker access of
// the previous iteration: the plain reset in BeginIteration/BeginReplay
// can never race a straggler.
//
// One release rule counts a position down (last): an atomic load that
// reads 1 means the caller holds the only count left — the last
// predecessor, or the producer's hold — and it releases the position
// without writing; begin resets the counter anyway. Any other value
// takes the atomic decrement, and the one that reaches zero releases.
// Either way every earlier count came off by an atomic decrement that
// the releasing load or decrement observes, so every other
// predecessor's writes — poison, the critical-path fold, the producer's
// FirstPrivate, Body, Do and Attach ahead of its hold — happen before
// the release, and so before the queue publication that hands the task
// to its executor. Poison is stored on a successor BEFORE it is counted
// down (the same argument as Graph.finishInto), so abort cones drain
// deterministically as Skipped on the compiled path too.

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrCompileDetached reports a recording that contains detached tasks
// where only a frozen replay would do. Frozen replay re-releases captured
// closures, including the captured completion Event a detached task
// already fired — no iteration after the first could ever complete it.
// Use Adaptive or plain Persistent for detached work: their body runs
// every iteration and hands each detached task a fresh event.
var ErrCompileDetached = errors.New("graph: recording contains detached tasks, which frozen replay cannot re-release")

// Compiled is the flat replay schedule of one recording: an immutable
// CSR view of the recorded structure plus the single mutable vector an
// iteration needs. Built by Compile after the recording iteration's
// barrier.
//
// Lifetime: a schedule is valid for as long as its graph is, and owes
// nothing to the persistent region it was compiled in. It holds its own
// snapshot of the recorded tasks (a chunk that holds a recorded task is
// never recycled, see alloc.go; Task.slot belongs to the one recording a
// task is part of)
// and replays without the key table, so EndPersistent, later plain
// windows over the same keys and later recordings leave it replayable.
// The other direction holds because iterations end at a barrier: between
// replays every task of the schedule is terminal, so a discovery that
// finds one as a key's last writer or reader prunes the edge (addEdge's
// lock-free path) and neither waits on it nor appends to its successor
// list. The exception is OptKeepPrunedEdges (the verifier's mode), which
// keeps every edge from a finished predecessor: there a later window
// does append to a schedule's task for as long as that task is a key's
// last writer or reader, so a long-lived schedule accumulates such edges
// and through them pins the later tasks. That costs memory, not
// correctness: the CSR was cut at compile time and Signature counts
// same-recording edges only. Iterations of different schedules must not
// overlap — one producer, one iteration at a time, as for the graph
// itself.
//
// All slices except preds are written at compile time and read-only
// afterwards. preds is written by the producer (BeginIteration's copy)
// and decremented by workers (FinishInto); the graph's live gauge
// orders the two (see the package comment above).
type Compiled struct {
	g *Graph

	// tasks are the recorded instances, by position. Task.slot holds
	// the inverse mapping so FinishInto finds a finished task's CSR row
	// without any lookup structure.
	tasks []*Task

	// succOff/succs is the CSR successor structure: position p's
	// successors are succs[succOff[p]:succOff[p+1]], each a position.
	// Only same-recording edges are compiled — edges to tasks outside
	// the recording were one-time constraints, dead after iteration 0 —
	// and of those only the ones no other path implies (reduce.go);
	// edgesRecorded is the count before that reduction.
	succOff       []int32
	succs         []int32
	edgesRecorded int

	// template[p] is position p's indegree in the CSR; preds is the live
	// countdown vector, reset from template every iteration.
	template []int32
	preds    []int32

	// detached records that the recording has a detached task, which only
	// a gated iteration can run (see ErrCompileDetached).
	detached bool

	// cursor counts the positions the producer has handed over this
	// iteration: all of them once a frozen iteration begins; in a gated
	// one, the position the next Replay call re-instantiates. Producer
	// only. released is its mirror for other goroutines, published at
	// BeginIteration, BeginReplay, PublishCursor and FinishReplay.
	cursor   int
	released atomic.Int32

	// roots are the positions with recorded indegree 0, ready the
	// moment an iteration begins. Reused read-only every iteration.
	roots []*Task

	// dirty is set when an iteration poisoned any task (abort or body
	// failure), so the next BeginIteration scrubs poison flags; clean
	// iterations skip the O(n) pass.
	dirty atomic.Bool
}

// Compile lowers the current recording into a flat replay schedule.
// Called by the single producer at a quiescent point: after the
// recording iteration's barrier, before any replay. The graph must be
// inside a persistent region with recording closed; the schedule it
// returns outlives that region (see Compiled).
//
// Recordings containing detached tasks are rejected with
// ErrCompileDetached (frozen replay cannot re-fire their events;
// CompileGated takes them); any other error reports a recording that must
// not be replayed: one that starts with a redirect node, or an internal
// indegree mismatch — the recorded structure was mutated.
func (g *Graph) Compile() (*Compiled, error) { return g.compile(false) }

// CompileGated is Compile for a schedule that will only run gated
// iterations (BeginReplay): detached tasks are accepted, because the
// region body hands each a fresh completion event every iteration, and
// BeginIteration refuses a schedule that has one.
func (g *Graph) CompileGated() (*Compiled, error) { return g.compile(true) }

func (g *Graph) compile(detachedOK bool) (*Compiled, error) {
	if !g.persistent || g.recording {
		return nil, fmt.Errorf("graph: Compile outside a persistent region (or recording still open)")
	}
	rec := g.recorded
	n := len(rec)
	if n > 0 && rec[0].Redirect {
		// Replay releases a redirect node with the task it follows.
		return nil, fmt.Errorf("graph: recording starts with redirect node %d, which no resubmission would release", rec[0].ID)
	}
	c := &Compiled{
		g: g,
		// Snapshot the recording: g.recorded's backing array is reused
		// by the next BeginRecording.
		tasks:    append([]*Task(nil), rec...),
		succOff:  make([]int32, n+1),
		template: make([]int32, n),
		preds:    make([]int32, n),
	}
	for i, t := range rec {
		if t.Detached {
			if !detachedOK {
				return nil, fmt.Errorf("%w (task %d %q)", ErrCompileDetached, t.ID, t.Label)
			}
			c.detached = true
		}
		t.slot = int32(i)
	}
	// The graph is quiescent (recording barrier passed, single
	// producer), so successor lists are stable and read without locks.
	// Sized once: the recorded indegrees count exactly the same-recording
	// edges (the cross-check below holds them to it), and the reduction
	// compacts the CSR in place.
	total := 0
	for _, t := range rec {
		total += int(t.recordedIndegree)
	}
	c.succs = make([]int32, 0, total)
	for i, t := range rec {
		c.succOff[i] = int32(len(c.succs))
		for seg, w := t.walkSuccs(t.NumSuccessors()); len(seg) > 0; seg = w.next() {
			for _, s := range seg {
				if g.inRecording(s) {
					c.succs = append(c.succs, s.slot)
					c.template[s.slot]++
				}
			}
		}
	}
	c.succOff[n] = int32(len(c.succs))
	c.edgesRecorded = len(c.succs)
	for i, t := range rec {
		// Cross-check the CSR column counts against the indegrees the
		// recording accumulated; a mismatch means the recorded structure
		// was mutated and the schedule would deadlock or double-release.
		if c.template[i] != t.recordedIndegree {
			return nil, fmt.Errorf("graph: compiled indegree %d for task %d (%q) disagrees with recorded %d",
				c.template[i], t.ID, t.Label, t.recordedIndegree)
		}
		if c.template[i] == 0 {
			c.roots = append(c.roots, t)
		}
	}
	c.reduce()
	return c, nil
}

// Len returns the number of tasks in the schedule.
func (c *Compiled) Len() int { return len(c.tasks) }

// Tasks returns the schedule's tasks in recorded order — the snapshot
// taken at Compile, not the graph's latest recording. Read-only.
func (c *Compiled) Tasks() []*Task { return c.tasks }

// Roots returns the tasks ready at the start of every iteration
// (recorded indegree 0), in recorded order. Read-only; the same slice
// is reused each iteration.
func (c *Compiled) Roots() []*Task { return c.roots }

// Edges returns the number of edges the schedule walks per iteration and
// the number the recording declared between its tasks; the difference is
// what the transitive reduction dropped.
func (c *Compiled) Edges() (kept, recorded int) { return len(c.succs), c.edgesRecorded }

// Released returns how many positions of the current iteration the
// producer had released at its latest publication point: all of them in
// a frozen iteration; in a gated one, the cursor as BeginReplay, the
// latest PublishCursor (rt's Taskwait) or FinishReplay left it, behind
// the Replay calls since. Safe from any goroutine.
func (c *Compiled) Released() int { return int(c.released.Load()) }

// PublishCursor publishes how many positions of the current iteration
// the producer has released so far to Released, and returns it.
// Producer-only.
func (c *Compiled) PublishCursor() int {
	c.released.Store(int32(c.cursor))
	return c.cursor
}

// BeginIteration resets the schedule for one frozen iteration: scrub
// poison if a previous iteration failed, then restore every predecessor
// count with a single copy from the pristine template. Producer-only,
// and only once the previous iteration fully drained (Live() == 0 —
// which also makes the plain copy race-free, see the package comment).
//
// The per-task work of the generic BeginReplay (state validation and
// three atomic stores per task) is gone: nothing on the compiled path
// reads a recorded task's pre-execution state, so stale terminal states
// from the previous iteration are simply overwritten by Start.
func (c *Compiled) BeginIteration() error {
	if c.detached {
		return fmt.Errorf("%w: the schedule was compiled for gated replay", ErrCompileDetached)
	}
	if err := c.begin(); err != nil {
		return err
	}
	copy(c.preds, c.template)
	c.cursor = len(c.tasks)
	c.PublishCursor()
	return nil
}

// BeginReplay resets the schedule for one gated iteration: as
// BeginIteration, but every position starts one above its indegree. The
// extra count is the producer's hold, dropped by the Replay call that
// re-instantiates the position, so no task runs before the region body
// has resubmitted it, however early its predecessors finish.
func (c *Compiled) BeginReplay() error {
	if err := c.begin(); err != nil {
		return err
	}
	for i, d := range c.template {
		c.preds[i] = d + 1
	}
	c.cursor = 0
	c.PublishCursor()
	c.g.gated = c
	return nil
}

// begin is the part of an iteration's reset that does not depend on how
// its tasks are released: the whole schedule goes onto the live gauge,
// and each finish takes its task off again.
func (c *Compiled) begin() error {
	if l := c.g.Live(); l != 0 {
		return fmt.Errorf("graph: compiled replay iteration started with %d tasks still outstanding", l)
	}
	if c.dirty.Load() {
		for _, t := range c.tasks {
			t.poisoned.Store(false)
		}
		c.dirty.Store(false)
	}
	if c.g.clock != nil {
		// Clean critical-path slate per iteration: stale stamps or
		// best-predecessor chains from the previous iteration must not
		// leak into this one's fold (clean iterations must report
		// identical CPs).
		for _, t := range c.tasks {
			t.resetCP()
		}
	}
	n := int64(len(c.tasks))
	c.g.replayed.Add(n)
	c.g.lrAdd(n, 0)
	c.g.clock.resume()
	return nil
}

// Replay re-instantiates the next recorded task of a gated iteration —
// Graph.Replay's contract on the compiled schedule: the per-task work is
// the firstprivate copy, an optional closure update (at most one of
// body/do non-nil; the recorded form is kept otherwise), a fresh attach
// for a detached task, and the count of the producer's hold. Redirect
// nodes that follow the task in the recording are released with it. A
// task whose predecessors have all finished is handed to OnReady.
func (c *Compiled) Replay(fp any, body func(fp any), do func(fp any) error, attach any) *Task {
	p := c.cursor
	if p >= len(c.tasks) {
		panic("graph: replay past end of recorded task sequence")
	}
	t := c.tasks[p]
	t.FirstPrivate = fp
	if body != nil {
		t.Body = body
	}
	if do != nil {
		t.Do = do
	}
	if attach != nil {
		t.Attach = attach
	}
	// Redirect nodes go with the task they follow: one is recorded after
	// the first member of its group or run, and compile refuses a recording
	// that starts with one.
	for {
		c.cursor = p + 1
		c.dropHold(p)
		if p++; p == len(c.tasks) || !c.tasks[p].Redirect {
			break
		}
	}
	return t
}

// dropHold releases the producer's hold on position p of a gated
// iteration.
func (c *Compiled) dropHold(p int) {
	if c.last(int32(p)) {
		t := c.tasks[p]
		if c.g.clock != nil {
			t.cp.readyNs = c.g.clock.Now()
		}
		c.g.onReady(t)
	}
}

// FinishReplay verifies that the gated iteration resubmitted the whole
// recording. After an error the unreleased positions still hold the
// iteration open: the caller releases them (Replay) so it can drain.
func (c *Compiled) FinishReplay() error {
	c.g.gated = nil
	if p := c.PublishCursor(); p != len(c.tasks) {
		return fmt.Errorf("graph: replay submitted %d of %d recorded tasks", p, len(c.tasks))
	}
	return nil
}

// EndIteration does nothing: every finish takes its task off the live
// gauge, so an iteration that drained has retired itself. It stays
// until benchmark/layers.go stops calling it.
func (c *Compiled) EndIteration() {}

// FinishInto is the compiled path's terminal transition, replacing
// Graph.CompleteInto/SkipInto/AbortInto during replay: store the final
// state, walk the task's CSR successor row, propagate poison, decrement
// counters, and append newly ready tasks into buf[:0] (same buffer
// contract as CompleteInto). The task leaves the live gauge last —
// FinishInto's only ordering obligation to the producer's reset.
//
// No successor-word seal, no ready-gauge updates, no Ready-state
// stores: the successor structure is immutable, begin put the whole
// iteration on the live gauge at once, and nothing observes a Ready
// state between the counter hitting zero and the worker's Start.
func (c *Compiled) FinishInto(t *Task, buf []*Task, final State) []*Task {
	released := c.FinishIntoDeferred(t, buf, final)
	c.g.Retire(1)
	return released
}

// FinishIntoDeferred is FinishInto minus the live-gauge decrement, for
// executors that batch decrements over a task-chaining run and settle
// them with one Graph.Retire at the chain's end. Deferral only ever
// delays the decrement — a finished-but-unsettled task still holds Live
// above zero — so the barrier and the reset-safety argument are
// unaffected: the producer can observe zero only after every executor's
// Retire, and each Retire release-publishes all of that executor's
// prior counter loads and writes.
func (c *Compiled) FinishIntoDeferred(t *Task, buf []*Task, final State) []*Task {
	poison := final != Completed || t.Poisoned()
	if poison {
		// Same publication order as finishInto: stamp the failure
		// window, then the terminal state that publishes it.
		t.failEpoch = c.g.failEpoch.Load()
		c.g.failedIn.Store(t.failEpoch + 1)
		c.dirty.Store(true)
	}
	// A recorded task's state is terminal from the previous iteration
	// (nothing on the compiled path stores Ready or Running), so in
	// steady clean-iteration state this store is elided entirely: the
	// value is already Completed, and an atomic store is a full barrier
	// worth skipping. Failure iterations still publish their transitions
	// (Completed -> Skipped and back), and the poison flag above — not
	// the state — is what release decisions key off.
	if st := int32(final); t.state.Load() != st {
		t.state.Store(st)
	}
	released := buf[:0]
	row := c.succs[c.succOff[t.slot]:c.succOff[t.slot+1]]
	cpath := c.g.clock != nil
	for _, p := range row {
		if poison {
			c.tasks[p].poisoned.Store(true)
		}
		if cpath {
			// Same fold-before-decrement publication order as the
			// generic finishInto (and the poison store above).
			foldCPInto(t, c.tasks[p])
		}
		if c.last(p) {
			s := c.tasks[p]
			if cpath {
				// No markReady on the compiled path: stamp the
				// ready transition here, before queue publication.
				s.cp.readyNs = c.g.clock.Now()
			}
			released = append(released, s)
		}
	}
	return released
}

// last counts position p down by one — a finished predecessor or the
// producer's hold — and reports whether that was the count p waited for
// last (see the package comment for why a load that reads 1 orders the
// release as the decrement would).
func (c *Compiled) last(p int32) bool {
	n := &c.preds[p]
	return atomic.LoadInt32(n) == 1 || atomic.AddInt32(n, -1) == 0
}

// Retire takes n deferred compiled-path finishes (FinishIntoDeferred)
// off the live gauge and returns its new value; 0 means the iteration
// drained.
func (g *Graph) Retire(n int64) int64 {
	return int64(g.lr.Add(uint64(-n<<32)) >> 32)
}
