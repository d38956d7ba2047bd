package graph

import "fmt"

// Persistence (optimization p): record a task sub-graph once, replay it
// with per-task cost reduced to a firstprivate copy. The whole
// record/replay machinery is the producer's, like discovery.
//
// Replay is allocation-free by construction: BeginReplay resets
// counters in place, Replay reuses the recorded Task objects (same
// chunks, same successor slices), and the recorded sequence buffer
// keeps its capacity across re-recordings.
//
// Two replay grades share the recording. The generic grade in this
// file re-releases each recorded task through the normal sentinel
// machinery — BeginReplay resets per-task counters, then the producer
// resubmits and Replay maps each submission to its recorded instance
// (firstprivate updatable per iteration). The compiled grade
// (compile.go) lowers the recording into a flat CSR schedule whose only
// per-iteration mutable state is one predecessor-count vector, and runs
// an iteration on it either that way or by re-releasing every captured
// closure at once. rt replays every persistent region on the compiled
// grade; the generic one is driven by the discrete-event simulator
// (internal/sim), the paper-table experiments and the benchmark's
// per-layer ledger only. The grades are behaviorally identical — same
// barrier, same failure/poison semantics, same divergence detection —
// differing only in replay cost, and in lifetime: the generic grade replays the graph's current
// recording (g.recorded, reused by the next BeginRecording) inside its
// region, while a compiled schedule is a value of its own that stays
// replayable after the region has closed and after later recordings
// (rt.Record / rt.Replay; compile.go has the argument).

// BeginRecording enters persistent discovery: tasks submitted until
// EndRecording are recorded, never pruned (every edge is materialized so
// replays need no dependence processing), and kept after completion.
func (g *Graph) BeginRecording() {
	if g.persistent {
		panic("graph: nested persistent regions")
	}
	g.persistent = true
	g.recording = true
	g.recordFrom = g.nextID
	g.recorded = g.recorded[:0]
}

// inRecording reports whether t belongs to the latest recording: tasks are
// Persistent only when discovered while recording, IDs never go back, and
// a recorded task's chunk is never reused (alloc.go), so the recording is
// the Persistent tasks from its first ID on.
func (g *Graph) inRecording(t *Task) bool {
	return t.Persistent && t.ID >= g.recordFrom
}

// EndRecording leaves recording mode. The recorded task sequence is now
// replayable.
func (g *Graph) EndRecording() {
	g.recording = false
}

// RecordedLen returns the number of tasks captured by the last recording.
func (g *Graph) RecordedLen() int { return len(g.recorded) }

// BeginReplay prepares a new persistent iteration. Every recorded task
// must be in a terminal state — Completed, or Aborted/Skipped from a
// failed previous iteration (the implicit end-of-iteration barrier
// guarantees the graph drained either way). Counters — and any poison
// left by a failed iteration — are reset for all tasks up front so that
// completions of early replayed tasks can safely decrement later tasks
// not yet re-released.
func (g *Graph) BeginReplay() error {
	if !g.persistent {
		return fmt.Errorf("graph: BeginReplay outside a persistent region")
	}
	for _, t := range g.recorded {
		if !t.State().Done() {
			return fmt.Errorf("graph: replay with task %d (%s) in state %v", t.ID, t.Label, t.State())
		}
	}
	for _, t := range g.recorded {
		// Every recorded edge is live again: its predecessor is replayed
		// and will finish once more this iteration, walking its whole
		// list, so the seal of the last finish comes off.
		t.preds.Store(0)
		t.live = t.recordedIndegree
		t.succWord.Store(uint32(t.NumSuccessors()))
		t.state.Store(int32(Created))
		t.poisoned.Store(false)
		if g.clock != nil {
			// Replay iterations start a fresh critical path; discovery
			// weight stays zero (replay is the paper's point: the TDG is
			// not re-discovered).
			t.resetCP()
		}
	}
	g.lrAdd(int64(len(g.recorded)), 0)
	g.clock.resume()
	g.replayIndex = 0
	return nil
}

// Replay re-instantiates the next recorded task: the only per-task work
// is the firstprivate copy (and optionally a body-closure update),
// mirroring the paper's single-memcpy replay cost and its dynamic
// firstprivate-update extension. Redirect nodes interleaved in the
// recording are released implicitly, and what becomes ready is published
// before it returns. Returns the task instance.
//
// Exactly one of body/do may be non-nil to swap the task's closure; the
// recorded body form is kept otherwise. attach, when non-nil, replaces
// the task's Attach before the instance is released (detached tasks
// need a fresh event per iteration).
func (g *Graph) Replay(fp any, body func(fp any), do func(fp any) error, attach any) *Task {
	g.replayRedirects()
	if g.replayIndex >= len(g.recorded) {
		panic("graph: replay past end of recorded task sequence")
	}
	t := g.recorded[g.replayIndex]
	g.replayIndex++
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
	g.replayed.Add(1)
	g.releaseSentinel(t)
	g.publishReady()
	return t
}

// replayRedirects releases the redirect nodes at the replay cursor.
func (g *Graph) replayRedirects() {
	for g.replayIndex < len(g.recorded) && g.recorded[g.replayIndex].Redirect {
		r := g.recorded[g.replayIndex]
		g.replayIndex++
		g.replayed.Add(1)
		g.releaseSentinel(r)
	}
}

// FinishReplay releases any trailing redirect nodes and verifies the
// whole recording was replayed.
func (g *Graph) FinishReplay() error {
	g.replayRedirects()
	g.publishReady()
	if g.replayIndex != len(g.recorded) {
		return fmt.Errorf("graph: replay submitted %d of %d recorded tasks", g.replayIndex, len(g.recorded))
	}
	return nil
}

// EndPersistent closes the persistent region. The recorded task sequence
// stays readable (Recorded, e.g. for DOT export) until the next
// BeginRecording reuses it; a schedule compiled from it stays
// replayable regardless.
func (g *Graph) EndPersistent() {
	g.persistent = false
	g.recording = false
	g.replayIndex = len(g.recorded)
}

// Recorded exposes the latest recording's sequence (read-only use:
// tests, DES). A compiled schedule answers for its own: Compiled.Tasks.
func (g *Graph) Recorded() []*Task { return g.recorded }
