package verify

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"taskdep/internal/graph"
)

// Recorder captures what the graph layer discards: the dependence
// declaration of every submitted task, and — inside persistent regions
// — the recorded structure each replay iteration must reproduce. The
// runtime owns one when Config.Verify != Off and forwards discovery and
// persistence events to it; Audit then checks the whole history.
//
// Record, ReplayNext and Begin*/End* are the producer's, called in
// submission order (the graph's one-producer contract), so the log is in
// submission order as recorded. Audit may run from any goroutine: mu
// orders it against the producer's appends.
type Recorder struct {
	mu   sync.Mutex
	opts graph.Opt

	// infos is the submission log, in submission order.
	infos []TaskInfo
	// recording is set between BeginRecording and EndRecording, so
	// Record also appends to entries.
	recording bool

	// recording state: the per-submission reference a replay
	// that resubmits is checked against. The structural reference — the
	// recording's Signature — is returned by EndRecording and handed back
	// to EndReplay, so a recording replayed after a later one was made is
	// still checked against its own.
	entries []recEntry // non-redirect tasks of the recording, in order

	// replay state
	replayIter  int
	replayIdx   int
	replayCheck bool // per-submission checks (false for frozen replays)
	divMark     int

	divergences []Divergence
}

type recEntry struct {
	label string
	deps  []graph.Dep // canonical order (sorted by key, then type)
}

// NewRecorder creates a recorder for a graph discovered with opts.
func NewRecorder(opts graph.Opt) *Recorder {
	return &Recorder{opts: opts}
}

// canonDeps copies deps into the canonical comparison order.
func canonDeps(deps []graph.Dep) []graph.Dep {
	c := append([]graph.Dep(nil), deps...)
	sort.Slice(c, func(i, j int) bool {
		if c[i].Key != c[j].Key {
			return c[i].Key < c[j].Key
		}
		return c[i].Type < c[j].Type
	})
	return c
}

func depsString(deps []graph.Dep) string {
	s := "["
	for i, d := range deps {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s:%d", d.Type, d.Key)
	}
	return s + "]"
}

// Record captures one discovered task and its declared dependences
// (deps is copied; callers may reuse the buffer). Producer-only.
func (r *Recorder) Record(t *graph.Task, deps []graph.Dep) {
	info := TaskInfo{Task: t, Deps: append([]graph.Dep(nil), deps...)}
	r.mu.Lock()
	r.infos = append(r.infos, info)
	if r.recording {
		r.entries = append(r.entries, recEntry{label: t.Label, deps: canonDeps(deps)})
	}
	r.mu.Unlock()
}

// BeginRecording mirrors graph.BeginRecording: subsequent Records
// define the structural reference for later replays.
func (r *Recorder) BeginRecording() {
	r.mu.Lock()
	r.entries = r.entries[:0]
	r.recording = true
	r.mu.Unlock()
}

// EndRecording closes the reference; recorded is the graph's recorded
// sequence (redirect nodes included). It returns the sequence's
// structural signature, which later iterations are compared against
// (EndReplay).
func (r *Recorder) EndRecording(recorded []*graph.Task) uint64 {
	r.mu.Lock()
	r.recording = false
	r.mu.Unlock()
	return Signature(recorded)
}

// BeginReplay starts checking one replay iteration. perTask enables the
// per-submission label/dependence comparison (plain and Adaptive
// Persistent regions); Frozen replays re-release the captured closures
// without resubmitting, so only the end-of-iteration signature check
// applies.
func (r *Recorder) BeginReplay(iter int, perTask bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.replayIter = iter
	r.replayIdx = 0
	r.replayCheck = perTask
	r.divMark = len(r.divergences)
}

// ReplayNext checks one replay submission against the recorded entry at
// the same position. Producer-only.
func (r *Recorder) ReplayNext(label string, deps []graph.Dep) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.replayCheck {
		return
	}
	i := r.replayIdx
	r.replayIdx++
	if i >= len(r.entries) {
		if i == len(r.entries) {
			r.divergences = append(r.divergences, Divergence{
				Iter: r.replayIter, Index: i,
				Detail: fmt.Sprintf("replay submitted more tasks than the %d recorded", len(r.entries)),
			})
		}
		return
	}
	e := r.entries[i]
	if label != e.label {
		r.divergences = append(r.divergences, Divergence{
			Iter: r.replayIter, Index: i,
			Detail: fmt.Sprintf("label %q, recorded %q", label, e.label),
		})
		return
	}
	got := canonDeps(deps)
	if !depsEqual(got, e.deps) {
		r.divergences = append(r.divergences, Divergence{
			Iter: r.replayIter, Index: i,
			Detail: fmt.Sprintf("task %q declared %s, recorded %s — the replay executes the recorded ordering, not the declared one",
				label, depsString(got), depsString(e.deps)),
		})
	}
}

func depsEqual(a, b []graph.Dep) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// EndReplay closes one replay iteration of the recording recorded, whose
// EndRecording returned want: checks the submission count and the
// recorded structure's signature, and returns the divergences found
// during this iteration.
func (r *Recorder) EndReplay(recorded []*graph.Task, want uint64) []Divergence {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.replayCheck && r.replayIdx < len(r.entries) {
		r.divergences = append(r.divergences, Divergence{
			Iter: r.replayIter, Index: -1,
			Detail: fmt.Sprintf("replay submitted %d of %d recorded tasks", r.replayIdx, len(r.entries)),
		})
	}
	if sig := Signature(recorded); sig != want {
		r.divergences = append(r.divergences, Divergence{
			Iter: r.replayIter, Index: -1,
			Detail: fmt.Sprintf("recorded structure mutated between iterations (signature %#x, recorded %#x)", sig, want),
		})
	}
	r.replayCheck = false
	return append([]Divergence(nil), r.divergences[r.divMark:]...)
}

// Divergences returns all divergences accumulated so far.
func (r *Recorder) Divergences() []Divergence {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Divergence(nil), r.divergences...)
}

// Audit snapshots the recorded history and runs the full structural
// check; extra nodes (redirects the graph logged) join the node set.
func (r *Recorder) Audit(extra []*graph.Task) *Report {
	r.mu.Lock()
	infos := append([]TaskInfo(nil), r.infos...)
	divs := append([]Divergence(nil), r.divergences...)
	opts := r.opts
	r.mu.Unlock()

	rep := Audit(infos, opts, extra)
	rep.Divergences = append(rep.Divergences, divs...)
	return rep
}

// Signature hashes the structure of a task sequence: task count,
// per-task identity (position, label, kind, recorded indegree) and the
// edge multiset restricted to the set — the PTSG signature replays are
// compared against. Dependence declarations are checked separately,
// per submission, by ReplayNext.
func Signature(tasks []*graph.Task) uint64 {
	h := fnv.New64a()
	idx := make(map[*graph.Task]int, len(tasks))
	for i, t := range tasks {
		idx[t] = i
	}
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(len(tasks)))
	for i, t := range tasks {
		put(uint64(i))
		h.Write([]byte(t.Label))
		flags := uint64(0)
		if t.Redirect {
			flags |= 1
		}
		if t.Detached {
			flags |= 2
		}
		put(flags)
		put(uint64(t.Indegree()))
		for _, s := range t.Successors() {
			if j, ok := idx[s]; ok {
				put(uint64(j))
			}
		}
	}
	return h.Sum64()
}
