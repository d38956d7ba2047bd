package rt

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"taskdep/internal/graph"
	"taskdep/internal/obs"
	"taskdep/internal/verify"
)

// stencilBody submits a depth×width neighbor stencil, each chunk body
// bumping its counter cell — enough structure for steals, poison cones
// and ordering checks under the compiled replay path.
func stencilBody(r *Runtime, counts [][]atomic.Int64, depth, width int) func(int) {
	key := func(s, c int) graph.Key { return graph.Key(s*width + c + 1) }
	return func(int) {
		for s := 0; s < depth; s++ {
			for c := 0; c < width; c++ {
				cell := &counts[s][c]
				spec := Spec{
					Label: fmt.Sprintf("s%d.%d", s, c),
					Out:   []graph.Key{key(s, c)},
					Body:  func(any) { cell.Add(1) },
				}
				if s > 0 {
					spec.In = append(spec.In, key(s-1, c))
					if c > 0 {
						spec.In = append(spec.In, key(s-1, c-1))
					}
					if c < width-1 {
						spec.In = append(spec.In, key(s-1, c+1))
					}
				}
				r.Submit(spec)
			}
		}
	}
}

func newCounts(depth, width int) [][]atomic.Int64 {
	counts := make([][]atomic.Int64, depth)
	for s := range counts {
		counts[s] = make([]atomic.Int64, width)
	}
	return counts
}

// TestCompiledReplayConcurrentWorkers drives the compiled frozen path
// with a full worker pool under -race: every task body must run once
// per iteration, and the whole region must go through the compiled
// schedule (CReplayCompiled counts the iterations).
func TestCompiledReplayConcurrentWorkers(t *testing.T) {
	const depth, width, iters = 6, 8, 50
	r := newRuntime(t, Config{Workers: 4, Opts: graph.OptAll})
	defer r.Close()
	counts := newCounts(depth, width)
	if err := r.Persistent(iters, stencilBody(r, counts, depth, width), Frozen()); err != nil {
		t.Fatalf("Persistent: %v", err)
	}
	for s := range counts {
		for c := range counts[s] {
			if got := counts[s][c].Load(); got != iters {
				t.Fatalf("chunk (%d,%d) ran %d times, want %d", s, c, got, iters)
			}
		}
	}
	if got := r.Obs().Counter(obs.CReplayCompiled); got != iters-1 {
		t.Fatalf("compiled iterations = %d, want %d", got, iters-1)
	}
	if got := r.Obs().Counter(obs.CReplayHits); got != int64(depth*width)*(iters-1) {
		t.Fatalf("replay hits = %d, want %d", got, int64(depth*width)*(iters-1))
	}
}

// TestCompiledReplayPreservesOrdering replays a strict chain and has
// every body check it observed its predecessor's write — a dependence
// violation would trip both the sequence check and the race detector.
func TestCompiledReplayPreservesOrdering(t *testing.T) {
	const n, iters = 16, 30
	r := newRuntime(t, Config{Workers: 4, Opts: graph.OptAll})
	defer r.Close()
	var seq atomic.Int64 // (iterations completed)*n + links done this iteration
	var violations atomic.Int64
	body := func(int) {
		for i := 0; i < n; i++ {
			want := int64(i)
			r.Submit(Spec{
				Label: "link",
				InOut: []graph.Key{1},
				Body: func(any) {
					if seq.Load()%n != want {
						violations.Add(1)
					}
					seq.Add(1)
				},
			})
		}
	}
	if err := r.Persistent(iters, body, Frozen()); err != nil {
		t.Fatalf("Persistent: %v", err)
	}
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d chain-order violations", v)
	}
	if got := seq.Load(); got != n*iters {
		t.Fatalf("seq = %d, want %d", got, n*iters)
	}
}

// TestCompiledFrozenCounts runs a small Frozen region on two workers
// through to Close: every chunk ran once per iteration, every iteration
// but the recording was a compiled one, and the runtime closes clean.
func TestCompiledFrozenCounts(t *testing.T) {
	const depth, width, iters = 4, 4, 10
	r := newRuntime(t, Config{Workers: 2, Opts: graph.OptAll})
	counts := newCounts(depth, width)
	if err := r.Persistent(iters, stencilBody(r, counts, depth, width), Frozen()); err != nil {
		t.Fatalf("Persistent: %v", err)
	}
	for s := range counts {
		for c := range counts[s] {
			if got := counts[s][c].Load(); got != iters {
				t.Fatalf("chunk (%d,%d) ran %d times, want %d", s, c, got, iters)
			}
		}
	}
	if got := r.Obs().Counter(obs.CReplayCompiled); got != iters-1 {
		t.Fatalf("compiled iterations = %d, want %d", got, iters-1)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestCompiledReplayDivergenceOnMutatedStructure mutates the recorded
// structure from inside a replayed body; the verifier's end-of-iteration
// signature check must surface it as ErrReplayDivergence.
func TestCompiledReplayDivergenceOnMutatedStructure(t *testing.T) {
	r := newRuntime(t, Config{Workers: 2, Opts: graph.OptAll, Verify: verify.Observe})
	defer r.Close()
	var runs atomic.Int64
	body := func(int) {
		r.Submit(Spec{Label: "a", InOut: []graph.Key{1}, Body: func(any) {
			if runs.Add(1) == 2 {
				// Second execution = first replay iteration: splice a raw
				// edge into the recorded structure behind the replay's back.
				rec := r.Graph().Recorded()
				graph.ForceEdge(rec[0], rec[1])
			}
		}})
		r.Submit(Spec{Label: "b", InOut: []graph.Key{1}, Body: func(any) {}})
	}
	err := r.Persistent(5, body, Frozen())
	if !errors.Is(err, ErrReplayDivergence) {
		t.Fatalf("Persistent = %v, want ErrReplayDivergence", err)
	}
}

// TestCompiledReplayAbortMidReplay aborts from a body in the middle of
// a compiled chain: the downstream cone must drain as Skipped, the
// region must return the abort cause, and the runtime — same keys —
// must be fully reusable in the next failure window.
func TestCompiledReplayAbortMidReplay(t *testing.T) {
	const n = 6
	boom := errors.New("boom")
	r := newRuntime(t, Config{Workers: 4, Opts: graph.OptAll})
	defer r.Close()
	counts := make([]atomic.Int64, n)
	body := func(int) {
		for i := 0; i < n; i++ {
			cell := &counts[i]
			abortHere := i == 2
			r.Submit(Spec{
				Label: fmt.Sprintf("t%d", i),
				InOut: []graph.Key{7},
				Body: func(any) {
					if abortHere && cell.Load() == 2 {
						r.Abort(boom)
					}
					cell.Add(1)
				},
			})
		}
	}
	err := r.Persistent(10, body, Frozen())
	if !errors.Is(err, boom) {
		t.Fatalf("Persistent = %v, want the abort cause", err)
	}
	// Iterations 0 and 1 completed; iteration 2 ran the chain up to the
	// aborting task and skipped the rest.
	for i := 0; i < n; i++ {
		want := int64(3)
		if i > 2 {
			want = 2
		}
		if got := counts[i].Load(); got != want {
			t.Fatalf("task %d ran %d times, want %d", i, got, want)
		}
	}
	// The abort was consumed with the window: the same key is writable
	// again, outside and inside a fresh frozen region.
	ran := false
	r.Submit(Spec{Label: "after", InOut: []graph.Key{7}, Body: func(any) { ran = true }})
	if err := r.Taskwait(); err != nil {
		t.Fatalf("Taskwait after abort window: %v", err)
	}
	if !ran {
		t.Fatalf("post-abort task did not run")
	}
	counts2 := newCounts(2, 2)
	if err := r.Persistent(4, stencilBody(r, counts2, 2, 2), Frozen()); err != nil {
		t.Fatalf("fresh frozen region after abort: %v", err)
	}
	for s := range counts2 {
		for c := range counts2[s] {
			if got := counts2[s][c].Load(); got != 4 {
				t.Fatalf("post-abort region chunk (%d,%d) ran %d times, want 4", s, c, got)
			}
		}
	}
}

// TestCompiledReplayTaskFailurePoisonsCone fails a body mid-chain on a
// replay iteration: the cone must skip, the *fault.TaskError must
// surface, and later regions must work.
func TestCompiledReplayTaskFailurePoisonsCone(t *testing.T) {
	const n = 5
	fail := errors.New("body failed")
	r := newRuntime(t, Config{Workers: 2, Opts: graph.OptAll})
	defer r.Close()
	counts := make([]atomic.Int64, n)
	body := func(int) {
		for i := 0; i < n; i++ {
			cell := &counts[i]
			failHere := i == 1
			r.Submit(Spec{
				Label: fmt.Sprintf("t%d", i),
				InOut: []graph.Key{3},
				Do: func(any) error {
					if failHere && cell.Load() == 1 {
						return fail
					}
					cell.Add(1)
					return nil
				},
			})
		}
	}
	err := r.Persistent(6, body, Frozen())
	if !errors.Is(err, fail) {
		t.Fatalf("Persistent = %v, want the body failure", err)
	}
	for i := 0; i < n; i++ {
		want := int64(2) // iterations 0 and... task 0 also ran on iter 1
		if i >= 1 {
			want = 1 // failed/skipped on iteration 1
		}
		if got := counts[i].Load(); got != want {
			t.Fatalf("task %d ran %d times, want %d", i, got, want)
		}
	}
}

// TestFrozenDetachedRejected: frozen replay cannot re-fire a detached
// task's completion event, so the region must fail loudly instead of
// deadlocking on iteration 1.
func TestFrozenDetachedRejected(t *testing.T) {
	r := newRuntime(t, Config{Workers: 1, Opts: graph.OptAll})
	defer r.Close()
	body := func(int) {
		r.Submit(Spec{
			Label:        "det",
			Out:          []graph.Key{1},
			Detached:     true,
			DetachedBody: func(_ any, ev *Event) { ev.Fulfill() },
		})
	}
	err := r.Persistent(3, body, Frozen())
	if !errors.Is(err, graph.ErrCompileDetached) {
		t.Fatalf("Persistent = %v, want ErrCompileDetached", err)
	}
}

// TestCompiledReplayEmptyRecording: a frozen region that records no
// tasks must still run its iterations without wedging.
func TestCompiledReplayEmptyRecording(t *testing.T) {
	r := newRuntime(t, Config{Workers: 1, Opts: graph.OptAll})
	defer r.Close()
	if err := r.Persistent(4, func(int) {}, Frozen()); err != nil {
		t.Fatalf("Persistent: %v", err)
	}
}
