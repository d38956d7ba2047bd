package rt

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"taskdep/internal/graph"
	"taskdep/internal/obs"
	"taskdep/internal/verify"
)

// quiescent checks what must hold at every window boundary: nothing live,
// nothing ready, and every processed constraint accounted for.
func quiescent(t *testing.T, r *Runtime, when string) {
	t.Helper()
	if live, ready := r.Graph().Live(), r.Graph().ReadyCount(); live != 0 || ready != 0 {
		t.Fatalf("%s: (live, ready) = (%d, %d), want (0, 0)", when, live, ready)
	}
	if s := r.Graph().Stats(); s.EdgesAttempted != s.EdgesCreated+s.EdgesPruned+s.EdgesDuplicate {
		t.Fatalf("%s: %d constraints attempted, %d created + %d pruned + %d duplicate",
			when, s.EdgesAttempted, s.EdgesCreated, s.EdgesPruned, s.EdgesDuplicate)
	}
}

func wantCounts(t *testing.T, when string, counts [][]atomic.Int64, want int64) {
	t.Helper()
	for s := range counts {
		for c := range counts[s] {
			if got := counts[s][c].Load(); got != want {
				t.Fatalf("%s: chunk (%d,%d) ran %d times, want %d", when, s, c, got, want)
			}
		}
	}
}

// TestRecordingOutlivesItsRegion pins the lifetime a Recording documents:
// record A; run a plain window that reads and rewrites A's keys; record
// B over the same keys; then replay A three times. A must run exactly
// its own tasks each time, B's and the plain window's must not run again,
// and every quiescent point must show empty gauges and exact counters.
// With the verifier on (the second round) the replays of A are checked
// against A's own tasks and signature, not those of B, the graph's latest
// recording — at the parent that was a false ErrReplayDivergence.
func TestRecordingOutlivesItsRegion(t *testing.T) {
	const depth, width = 5, 6
	for _, mode := range []verify.Mode{verify.Off, verify.Observe} {
		r := newRuntime(t, Config{Workers: 3, Opts: graph.OptAll, Verify: mode})
		a, b := newCounts(depth, width), newCounts(depth-1, width)
		recA, err := r.Record(func() { stencilBody(r, a, depth, width)(0) })
		if err != nil {
			t.Fatalf("verify %v: Record A: %v", mode, err)
		}
		quiescent(t, r, "after recording A")

		// A plain window over A's keys: a reader and a rewriter of every
		// one. Each meets a task of A as the key's last writer.
		var plain atomic.Int64
		for k := 1; k <= depth*width; k++ {
			r.Submit(Spec{Label: "read", In: []graph.Key{graph.Key(k)}, Body: func(any) { plain.Add(1) }})
			r.Submit(Spec{Label: "rewrite", InOut: []graph.Key{graph.Key(k)}, Body: func(any) { plain.Add(1) }})
		}
		if err := r.Taskwait(); err != nil {
			t.Fatalf("plain window: %v", err)
		}
		quiescent(t, r, "after the plain window")

		recB, err := r.Record(func() { stencilBody(r, b, depth-1, width)(0) })
		if err != nil {
			t.Fatalf("verify %v: Record B: %v", mode, err)
		}
		quiescent(t, r, "after recording B")

		for i := 1; i <= 3; i++ {
			if err := r.Replay(recA, 0, 1); err != nil {
				t.Fatalf("verify %v: replay %d of A: %v", mode, i, err)
			}
			quiescent(t, r, fmt.Sprintf("after replay %d of A", i))
			wantCounts(t, "A", a, int64(1+i))
			wantCounts(t, "B", b, 1)
		}
		if err := r.Replay(recB, 0, 2); err != nil {
			t.Fatalf("verify %v: replay of B: %v", mode, err)
		}
		quiescent(t, r, "after replaying B")
		wantCounts(t, "A", a, 4)
		wantCounts(t, "B", b, 3)
		if got := plain.Load(); got != 2*depth*width {
			t.Fatalf("plain window's tasks ran %d times, want %d", got, 2*depth*width)
		}
		if got := r.Obs().Counter(obs.CReplayCompiled); got != 5 {
			t.Fatalf("compiled iterations = %d, want 5", got)
		}
		// Three iterations of A's tasks and two of B's, no one else's.
		if got, want := r.Obs().Counter(obs.CReplayHits), int64(3*depth*width+2*(depth-1)*width); got != want {
			t.Fatalf("replayed tasks = %d, want %d", got, want)
		}
		if mode != verify.Off {
			if rep := r.Verify(); !rep.OK() {
				t.Fatalf("verifier: %s", rep.Summary())
			}
		}
		if err := r.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

// TestRecordingSurvivesFailedAndAbortedReplays: a replay that a body
// fails, and one that is aborted, return the error and leave the
// Recording replayable — the next iteration scrubs the poison (the
// schedule's dirty pass) and runs every task again.
func TestRecordingSurvivesFailedAndAbortedReplays(t *testing.T) {
	const n = 6
	boom := errors.New("boom")
	r := newRuntime(t, Config{Workers: 2, Opts: graph.OptAll})
	defer r.Close()
	counts := make([]atomic.Int64, n)
	var failAt, abortAt atomic.Int64
	failAt.Store(-1)
	abortAt.Store(-1)
	rec, err := r.Record(func() {
		for i := 0; i < n; i++ {
			i := i
			r.Submit(Spec{Label: fmt.Sprintf("t%d", i), InOut: []graph.Key{9}, Do: func(any) error {
				if failAt.Load() == int64(i) {
					return boom
				}
				if abortAt.Load() == int64(i) {
					r.Abort(boom)
				}
				counts[i].Add(1)
				return nil
			}})
		}
	})
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	want := func(when string, ran ...int64) {
		t.Helper()
		for i := range counts {
			if got := counts[i].Load(); got != ran[i] {
				t.Fatalf("%s: task %d ran %d times, want %d", when, i, got, ran[i])
			}
		}
		quiescent(t, r, when)
	}
	want("recorded", 1, 1, 1, 1, 1, 1)

	failAt.Store(2)
	if err := r.Replay(rec, 0, 3); !errors.Is(err, boom) {
		t.Fatalf("failing replay = %v, want the body's error", err)
	}
	want("after the failed replay", 2, 2, 1, 1, 1, 1) // ended at its first iteration's barrier
	failAt.Store(-1)
	if err := r.Replay(rec, 0, 2); err != nil {
		t.Fatalf("replay after a failed one: %v", err)
	}
	want("after the clean replay", 4, 4, 3, 3, 3, 3)

	abortAt.Store(3)
	if err := r.Replay(rec, 0, 2); !errors.Is(err, boom) {
		t.Fatalf("aborted replay = %v, want the abort cause", err)
	}
	want("after the aborted replay", 5, 5, 4, 4, 3, 3) // the aborting body finished; the rest skipped
	abortAt.Store(-1)
	if err := r.Replay(rec, 0, 1); err != nil {
		t.Fatalf("replay after an aborted one: %v", err)
	}
	want("after the last replay", 6, 6, 5, 5, 4, 4)
}

// TestRecordAndReplayRefuseMisuse: the two halves say no where a Frozen
// region would have had no way to be asked.
func TestRecordAndReplayRefuseMisuse(t *testing.T) {
	r := newRuntime(t, Config{Workers: 1, Opts: graph.OptAll})
	defer r.Close()
	other := newRuntime(t, Config{Workers: 1, Opts: graph.OptAll})
	defer other.Close()
	rec, err := r.Record(func() { r.Submit(Spec{Label: "a", Out: []graph.Key{1}}) })
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Replay(rec, 0, 1); err == nil {
		t.Error("a runtime replayed another runtime's recording")
	}
	if err := r.Replay(nil, 0, 1); err == nil {
		t.Error("Replay(nil) succeeded")
	}
	if err := r.Replay(rec, 0, 0); err != nil {
		t.Errorf("a replay of no iterations: %v", err)
	}

	// Tasks in flight: the replay would share the window with them.
	gate := make(chan struct{})
	r.Submit(Spec{Label: "held", Out: []graph.Key{2}, Body: func(any) { <-gate }})
	if err := r.Replay(rec, 0, 1); err == nil || !strings.Contains(err.Error(), "in flight") {
		t.Errorf("Replay with a task in flight = %v", err)
	}
	close(gate)
	if err := r.Taskwait(); err != nil {
		t.Fatal(err)
	}

	// Inside a region, from the producer's own body.
	var inner error
	if err := r.Persistent(1, func(int) { _, inner = r.Record(func() {}) }); err != nil || inner == nil {
		t.Errorf("Record inside Persistent = %v (region: %v)", inner, err)
	}
	if err := r.Persistent(1, func(int) { inner = r.Replay(rec, 0, 1) }); err != nil || inner == nil {
		t.Errorf("Replay inside Persistent = %v (region: %v)", inner, err)
	}

	// What a Frozen region refuses, Record refuses.
	_, err = r.Record(func() {
		r.Submit(Spec{Label: "det", Out: []graph.Key{3}, Detached: true,
			DetachedBody: func(_ any, ev *Event) { ev.Fulfill() }})
	})
	if !errors.Is(err, graph.ErrCompileDetached) || !errors.Is(err, ErrNotCompiled) {
		t.Errorf("Record of a detached task = %v, want ErrNotCompiled wrapping ErrCompileDetached", err)
	}
	if err := r.Persistent(2, func(int) {
		r.Submit(Spec{Label: "det", Out: []graph.Key{3}, Detached: true,
			DetachedBody: func(_ any, ev *Event) { ev.Fulfill() }})
	}, Frozen()); !errors.Is(err, graph.ErrCompileDetached) || !errors.Is(err, ErrNotCompiled) {
		t.Errorf("Frozen region with a detached task = %v, want ErrNotCompiled wrapping ErrCompileDetached", err)
	}
	// Either way the runtime is usable afterwards.
	if err := r.Replay(rec, 0, 2); err != nil {
		t.Errorf("replay after the refusals: %v", err)
	}
}
