package rt

import (
	"errors"
	"testing"

	"taskdep/internal/graph"
	"taskdep/internal/verify"
)

// TestVerifyOffReturnsNil: without Config.Verify the verifier is absent.
func TestVerifyOffReturnsNil(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 2, Opts: graph.OptAll})
	defer rt.Close()
	rt.Submit(Spec{Label: "t", Body: func(any) {}})
	rt.Taskwait()
	if rep := rt.Verify(); rep != nil {
		t.Fatalf("Verify with mode Off should return nil, got %s", rep)
	}
}

// TestVerifyObserveCleanRun: a correctly declared pipeline audits clean,
// including an inoutset group routed through a redirect node.
func TestVerifyObserveCleanRun(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 4, Opts: graph.OptAll, Verify: verify.Observe})
	defer rt.Close()
	var x int
	rt.Submit(Spec{Label: "produce", Out: []graph.Key{1}, Body: func(any) { x = 1 }})
	for i := 0; i < 3; i++ {
		rt.Submit(Spec{Label: "accum", In: []graph.Key{1}, InOutSet: []graph.Key{2}, Body: func(any) {}})
	}
	rt.Submit(Spec{Label: "consume", In: []graph.Key{2}, Body: func(any) { _ = x }})
	rt.Taskwait()
	rep := rt.Verify()
	if rep == nil || !rep.OK() {
		t.Fatalf("clean run flagged: %s", rep)
	}
	if rep.Tasks < 5 {
		t.Errorf("audit saw %d tasks, want at least the 5 submitted", rep.Tasks)
	}
}

// TestVerifyFullAuditsAtTaskwait: Full mode leaves a report behind every
// taskwait.
func TestVerifyFullAuditsAtTaskwait(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 2, Opts: graph.OptAll, Verify: verify.Full})
	defer rt.Close()
	rt.Submit(Spec{Label: "a", Out: []graph.Key{1}, Body: func(any) {}})
	rt.Submit(Spec{Label: "b", In: []graph.Key{1}, Body: func(any) {}})
	rt.Taskwait()
	rep := rt.LastVerifyReport()
	if rep == nil {
		t.Fatal("Full mode should audit at Taskwait")
	}
	if !rep.OK() {
		t.Fatalf("clean run flagged: %s", rep)
	}
}

// TestVerifyPersistentClean: an unchanged PTSG replay verifies clean
// across iterations.
func TestVerifyPersistentClean(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 2, Opts: graph.OptAll, Verify: verify.Observe})
	defer rt.Close()
	sum := make([]int, 4)
	err := rt.Persistent(3, func(iter int) {
		for c := 0; c < 4; c++ {
			c := c
			rt.Submit(Spec{
				Label: "cell", InOut: []graph.Key{graph.Key(c)},
				Body: func(any) { sum[c]++ },
			})
		}
	})
	if err != nil {
		t.Fatalf("unchanged replay must verify clean, got %v", err)
	}
	rep := rt.Verify()
	if !rep.OK() {
		t.Fatalf("clean persistent run flagged: %s", rep)
	}
	for c, s := range sum {
		if s != 3 {
			t.Errorf("cell %d ran %d times, want 3", c, s)
		}
	}
}

// TestVerifyPersistentDivergence: a Persistent body whose dependence
// declarations change mid-replay (same task count, so FinishReplay
// alone cannot see it) is caught by the verifier.
func TestVerifyPersistentDivergence(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 2, Opts: graph.OptAll, Verify: verify.Observe})
	defer rt.Close()
	err := rt.Persistent(3, func(iter int) {
		key := graph.Key(1)
		if iter == 2 {
			key = 99 // hidden iteration dependence: stale TDG replayed
		}
		rt.Submit(Spec{Label: "t", InOut: []graph.Key{key}, Body: func(any) {}})
	})
	if !errors.Is(err, ErrReplayDivergence) {
		t.Fatalf("diverging replay not caught: err = %v", err)
	}
}

// TestVerifyAdaptiveLyingChanged: an Adaptive region with a `changed`
// callback that lies (reports no change while the stream's shape moved)
// replays stale structure; the verifier catches it. The honest variant
// re-records and passes.
func TestVerifyAdaptiveLyingChanged(t *testing.T) {
	body := func(rt *Runtime) func(int) {
		return func(iter int) {
			key := graph.Key(1)
			if iter >= 2 {
				key = 7
			}
			rt.Submit(Spec{Label: "t", InOut: []graph.Key{key}, Body: func(any) {}})
		}
	}
	liar := newRuntime(t, Config{Workers: 2, Opts: graph.OptAll, Verify: verify.Observe})
	defer liar.Close()
	err := liar.Persistent(4, body(liar), Adaptive(func(iter int) bool { return false }))
	if !errors.Is(err, ErrReplayDivergence) {
		t.Fatalf("lying changed() not caught: err = %v", err)
	}

	honest := newRuntime(t, Config{Workers: 2, Opts: graph.OptAll, Verify: verify.Observe})
	defer honest.Close()
	err = honest.Persistent(4, body(honest), Adaptive(func(iter int) bool { return iter == 2 }))
	if err != nil {
		t.Fatalf("honest changed() flagged: %v", err)
	}
	if rep := honest.Verify(); !rep.OK() {
		t.Fatalf("honest adaptive run flagged: %s", rep)
	}
}

// TestVerifyDetachedClean: detached tasks participate in the audit like
// any other node.
func TestVerifyDetachedClean(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 2, Opts: graph.OptAll, Verify: verify.Observe})
	defer rt.Close()
	rt.Submit(Spec{
		Label: "detached", Out: []graph.Key{1}, Detached: true,
		DetachedBody: func(_ any, ev *Event) { ev.Fulfill() },
	})
	rt.Submit(Spec{Label: "after", In: []graph.Key{1}, Body: func(any) {}})
	rt.Taskwait()
	if rep := rt.Verify(); !rep.OK() {
		t.Fatalf("detached chain flagged: %s", rep)
	}
}

// TestVerifyThrottledRun: verification composes with throttling (tasks
// complete during discovery; OptKeepPrunedEdges keeps the orderings
// visible so the audit stays clean).
func TestVerifyThrottledRun(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 2, Opts: graph.OptAll, Verify: verify.Observe, ThrottleTotal: 4})
	defer rt.Close()
	for i := 0; i < 64; i++ {
		rt.Submit(Spec{Label: "chain", InOut: []graph.Key{1}, Body: func(any) {}})
	}
	rt.Taskwait()
	if rep := rt.Verify(); !rep.OK() {
		t.Fatalf("throttled chain flagged: %s", rep)
	}
}
