package graph

import (
	"fmt"
	"sync/atomic"
)

// Key identifies a datum a dependence may be declared on, the moral
// equivalent of the address in an OpenMP depend clause. Applications
// typically derive keys from array-block indices.
type Key uint64

// DepType enumerates OpenMP 5.1 dependence types relevant to the paper.
type DepType uint8

const (
	// In declares a read of the datum: the task depends on the last
	// out-set for the key.
	In DepType = iota
	// Out declares a write: the task depends on the last out-set and on
	// every reader registered since.
	Out
	// InOut behaves exactly like Out (kept distinct for tracing).
	InOut
	// InOutSet declares a concurrent write: consecutive InOutSet tasks on
	// the same key are mutually independent, but any later access depends
	// on the whole set.
	InOutSet
)

func (d DepType) String() string {
	switch d {
	case In:
		return "in"
	case Out:
		return "out"
	case InOut:
		return "inout"
	case InOutSet:
		return "inoutset"
	}
	return fmt.Sprintf("DepType(%d)", uint8(d))
}

// Dep is one dependence declaration of a task.
type Dep struct {
	Key  Key
	Type DepType
}

// State is the lifecycle state of a task.
type State int32

const (
	// Created: discovered, predecessors outstanding.
	Created State = iota
	// Ready: all predecessors completed; handed to the executor.
	Ready
	// Running: the executor has started the task body.
	Running
	// Completed: the body finished and successors were released.
	Completed
	// Aborted: the body failed (panic or returned error); successors were
	// released poisoned and will drain as Skipped.
	Aborted
	// Skipped: a failed predecessor (or a runtime abort) poisoned the
	// task; it completed without its body ever running.
	Skipped
)

func (s State) String() string {
	switch s {
	case Created:
		return "created"
	case Ready:
		return "ready"
	case Running:
		return "running"
	case Completed:
		return "completed"
	case Aborted:
		return "aborted"
	case Skipped:
		return "skipped"
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// Done reports whether s is terminal: the task finished (Completed) or
// was drained without executing (Aborted, Skipped). Successor releases
// happen exactly once in any terminal transition, so graph-level
// invariants (live counts, replay eligibility) key off Done, not
// specifically Completed.
func (s State) Done() bool { return s >= Completed }

// inlineSuccs is the successor capacity embedded in every Task: tasks
// of out-degree <= inlineSuccs never touch the heap for their list.
const inlineSuccs = 4

// blockSuccs is the capacity of one overflow block: with its link, 16
// words, exactly the 128-byte allocation class.
const blockSuccs = 15

// succBlock is one link of a successor list's overflow chain. Blocks
// are appended, never copied or reused.
type succBlock struct {
	next *succBlock
	s    [blockSuccs]*Task
}

// inlineDeps is the dependence-declaration capacity embedded in every
// Task for failure reports. Captures beyond it are truncated (flagged),
// never spilled to the heap: the discovery hot path stays allocation
// free regardless of arity.
const inlineDeps = 4

// Task is a node of the dependency graph. Executors attach their payload
// (closure, cost model, ...) through the exported fields; the graph itself
// only manipulates the precedence machinery.
//
// Tasks are allocated by the graph (normally from pooled chunks, see
// alloc.go) and must never be copied.
//
// Layout. The fields are grouped by the paths that touch them, so the
// paths that visit OTHER tasks touch as few cache lines as possible:
//
//   - line 0 (the first 64 bytes) is everything addEdge reads of a
//     predecessor and appends to it, everything finishInto reads of the
//     finishing task and writes to its successors, and the counter
//     releaseSentinel adds to: discovery's pruning of a finished
//     predecessor is one load of this line, and a created edge or a
//     successor walk of up to inlineSuccs entries stays on it;
//   - line 1 is what a worker reads to run the task (ID, closures,
//     firstprivate, flags) and what the producer writes once per task or
//     per recording (live, recordedIndegree, slot);
//   - the rest is cold: the label, the runtime attachment, the overflow
//     chain of the successor list, the failure window, the
//     critical-path side record, and the declaration capture of failure
//     reports.
//
// TestTaskLayout pins the size and line 0. A chunk of chunkTasks tasks
// must stay a small-object allocation (see alloc.go): a field added here
// is paid on every task of every discovery.
type Task struct {
	// --- line 0: discovery and release ---

	state atomic.Int32
	// preds is the release counter: 0 at discovery, minus one per finished
	// predecessor, plus live at the producer's release (see
	// releaseSentinel). The task is ready when the release or a finish
	// brings it to 0.
	preds atomic.Int32
	// succWord is the successor list's count in its low 31 bits and, in
	// sealBit, whether the task's finish has taken that count to walk.
	// The producer writes entry n and then moves the word from n to n+1
	// with one CAS; finishInto stores the terminal state and then seals
	// the word. An entry is counted — walked, and so decremented — exactly
	// when its CAS came before the seal (see addEdge).
	succWord atomic.Uint32
	// poisoned marks the task as lying in a failed task's successor cone
	// (or cancelled by a runtime abort): executors complete it as Skipped
	// without running the body. Set before the poisoning predecessor's
	// counter decrement, so it is always visible by the time the task can
	// be popped (see Graph.finishInto).
	poisoned atomic.Bool
	lastSucc *Task // duplicate-edge detection for optimization (b); producer-only
	// Successor list, in insertion order: the first inlineSuccs entries
	// sit in succs0, the rest in the block chain succHead..succTail. A
	// reader that took a count from succWord may walk that many entries
	// while the producer writes the next.
	succs0 [inlineSuccs]*Task

	// --- line 1: execution and the producer's per-task state ---

	// ID is the submission sequence number, unique within a Graph and
	// dense in discovery order.
	ID int64
	// Body is the work closure run by the real executor (nil for
	// redirect nodes, for DES-only tasks and for detached tasks, whose
	// body the rt layer's detach event carries).
	Body func(fp any)
	// Do is the error-returning body form. When set it takes precedence
	// over Body; a non-nil return aborts the task. Carried as a separate
	// field (rather than adapting Body into it) so the classic Body form
	// costs no wrapper closure on the discovery hot path.
	Do func(fp any) error
	// FirstPrivate is the per-instance private datum, copied on
	// persistent replay (the paper's single-memcpy replay cost).
	FirstPrivate any
	// slot is the task's position in the compiled replay schedule of
	// its recording (see compile.go): the row index of its CSR
	// successor range and predecessor-count cell. Written by the
	// producer at compile time (graph quiescent), read by workers
	// during compiled replay.
	slot int32
	// live counts the edges addEdge counted on their predecessor's
	// successor word before its finish sealed it — the decrements preds
	// will receive. Private to the goroutine discovering the task (for a
	// redirect node: to the holder of the discovery lock) until its
	// release.
	live int32
	// recordedIndegree counts incoming edges from tasks of the same
	// recording (Graph.inRecording), used to reset preds on persistent
	// replay. Written only by the goroutine that discovered this task.
	recordedIndegree int32
	// Detached marks a task whose completion is signalled externally
	// (MPI request completion) rather than at body return.
	Detached bool
	// Redirect marks an empty node inserted by optimization (c).
	Redirect bool
	// Persistent marks tasks recorded in a persistent region.
	Persistent bool

	// --- cold ---

	// Label names the task for traces and Gantt charts.
	Label string
	// Attach carries an opaque executor attachment (the rt layer's detach
	// event, the DES's cost spec). Written by the producer before the
	// task is published — or, on persistent replay, before the instance
	// is re-released — so any worker that pops the task reads it without
	// synchronization.
	Attach   any
	succHead *succBlock
	succTail *succBlock
	// failEpoch stamps the failure window (Graph.failEpoch) the task
	// drained non-Completed in. Written before the terminal state store
	// and read only after observing a Done state, so no synchronization
	// beyond the state atomic is needed. Discovery-time poisoning
	// ignores predecessors that failed in an already-consumed window.
	failEpoch uint64
	// cp is the task's critical-path record (cpath.go), nil unless the
	// graph was configured with a Config.Clock.
	cp *cpState
	// Inline capture of the task's dependence declarations, for failure
	// reports (*fault.TaskError names the key set of a failed task),
	// stored as parallel key and type arrays. Bounded by inlineDeps;
	// depsTrunc flags a truncated capture.
	depKeys   [inlineDeps]Key
	depTypes  [inlineDeps]DepType
	ndeps     uint8
	depsTrunc bool
}

// sealBit is succWord's seal: set once, by the task's finish, over the
// count it walks (finishInto).
const sealBit = 1 << 31

// putSucc writes s as entry n of t's successor list, linking a new block
// when entry n is the first of one. It does not count the entry: the
// producer does that on succWord (addEdge).
func (t *Task) putSucc(n int, s *Task) {
	if n < inlineSuccs {
		t.succs0[n] = s
		return
	}
	i := (n - inlineSuccs) % blockSuccs
	if i == 0 {
		b := new(succBlock)
		if t.succTail == nil {
			t.succHead = b
		} else {
			t.succTail.next = b
		}
		t.succTail = b
	}
	t.succTail.s[i] = s
}

// unputSucc takes back entry n, written by putSucc and never counted,
// unlinking the block it opened if it did: the next putSucc(n, ...) finds
// the list as it was. A walk of the n counted entries reads neither the
// entry nor the last block's link.
func (t *Task) unputSucc(n int) {
	if n < inlineSuccs {
		t.succs0[n] = nil
		return
	}
	if i := (n - inlineSuccs) % blockSuccs; i != 0 {
		t.succTail.s[i] = nil
		return
	}
	if n == inlineSuccs {
		t.succHead, t.succTail = nil, nil
		return
	}
	b := t.succHead
	for b.next != t.succTail {
		b = b.next
	}
	b.next, t.succTail = nil, b
}

// succWalk iterates the first n entries of a successor list as
// contiguous segments, in insertion order:
//
//	for seg, w := t.walkSuccs(n); len(seg) > 0; seg = w.next() { ... }
//
// n must have been read from succWord. The walk reads no link or entry
// beyond the n-th — all that a concurrent putSucc writes.
type succWalk struct {
	blk  *succBlock
	left int
}

func (t *Task) walkSuccs(n int) ([]*Task, succWalk) {
	if n <= inlineSuccs {
		return t.succs0[:n], succWalk{}
	}
	return t.succs0[:], succWalk{blk: t.succHead, left: n - inlineSuccs}
}

func (w *succWalk) next() []*Task {
	b, k := w.blk, w.left
	if k == 0 {
		return nil
	}
	if k > blockSuccs {
		k = blockSuccs
		w.blk = b.next
	}
	w.left -= k
	return b.s[:k]
}

// State returns the task's lifecycle state.
func (t *Task) State() State { return State(t.state.Load()) }

// Poison marks the task for skipping: an executor must complete it via
// SkipInto instead of running its body. The graph poisons successor
// cones of failed tasks itself; runtimes additionally call Poison when
// cancelling the frontier on abort.
func (t *Task) Poison() { t.poisoned.Store(true) }

// Poisoned reports whether the task lies in a failed task's successor
// cone (or was cancelled by an abort).
func (t *Task) Poisoned() bool { return t.poisoned.Load() }

// DeclaredDeps appends the dependence declarations captured at
// submission (at most inlineDeps of them) to dst and reports whether the
// capture was truncated. Used to name the key set of a failed task.
func (t *Task) DeclaredDeps(dst []Dep) ([]Dep, bool) {
	for i := 0; i < int(t.ndeps); i++ {
		dst = append(dst, Dep{Key: t.depKeys[i], Type: t.depTypes[i]})
	}
	return dst, t.depsTrunc
}

// captureDeps stores up to inlineDeps of d's declarations inline, in the
// order discovery walks them.
func (t *Task) captureDeps(d *TaskDesc) {
	n := t.captureKeys(0, d.In, In)
	n = t.captureKeys(n, d.Out, Out)
	n = t.captureKeys(n, d.InOut, InOut)
	t.ndeps = uint8(t.captureKeys(n, d.InOutSet, InOutSet))
}

// captureKeys stores keys as declarations of type typ from slot n on,
// flagging the capture truncated when they do not fit, and returns the
// next free slot.
func (t *Task) captureKeys(n int, keys []Key, typ DepType) int {
	for _, k := range keys {
		if n == inlineDeps {
			t.depsTrunc = true
			return n
		}
		t.depKeys[n], t.depTypes[n] = k, typ
		n++
	}
	return n
}

// NumSuccessors returns the current successor count (racy during
// discovery; stable once discovery is complete).
func (t *Task) NumSuccessors() int { return int(t.succWord.Load() &^ sealBit) }

// Successors returns a snapshot of the successor list, in the order the
// edges were discovered.
func (t *Task) Successors() []*Task {
	n := t.NumSuccessors()
	out := make([]*Task, 0, n)
	for seg, w := t.walkSuccs(n); len(seg) > 0; seg = w.next() {
		out = append(out, seg...)
	}
	return out
}

// Indegree returns the number of recorded incoming edges.
func (t *Task) Indegree() int { return int(t.recordedIndegree) }

// ForceEdge records a raw precedence edge pred -> succ with no
// dependence processing, no pruning, no deduplication, and no
// predecessor-count update. It exists so tests and the TDG verifier
// (internal/verify) can seed structurally broken graphs — cycles,
// duplicate edges, severed orderings — that correct discovery can never
// produce. It must not be used on a graph that will execute: succ's
// counter is untouched, so the edge does not order execution. Nothing
// may add an edge to pred concurrently.
func ForceEdge(pred, succ *Task) {
	w := pred.succWord.Load()
	pred.putSucc(int(w&^sealBit), succ)
	pred.succWord.Store(w + 1)
}
