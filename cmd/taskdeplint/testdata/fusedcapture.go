package fixtures

import "taskdep"

// Positive: buf is per-iteration (no later iteration overwrites it)
// but the iteration reassigns it after the Submit; the body may run at
// once on the finishing worker and observe either value.
func fusedCaptureReassign(rt *taskdep.Runtime, xs []int) {
	for i := 0; i < len(xs); i++ {
		buf := make([]int, 4)
		rt.Submit(taskdep.Spec{ // want "loop-capture"
			Label: "bad",
			Out:   []taskdep.Key{taskdep.Key(i)},
			Body:  func(any) { _ = buf[0] },
		})
		buf = nil
	}
}

// Positive: the post-submit write can hide in a conditional; the body
// still races with it on the iterations that take the branch.
func fusedCaptureConditional(rt *taskdep.Runtime, xs []int) {
	for i, x := range xs {
		acc := x
		rt.Submit(taskdep.Spec{ // want "loop-capture"
			Label: "bad",
			Out:   []taskdep.Key{taskdep.Key(i)},
			Body:  func(any) { _ = acc },
		})
		if x > 0 {
			acc++
		}
	}
}

// Negative: every write to the loop-local happens before the Spec is
// built, so the captured value is settled by submission time.
func fusedCaptureSettled(rt *taskdep.Runtime, xs []int) {
	for i := 0; i < len(xs); i++ {
		v := xs[i]
		v *= 2
		rt.Submit(taskdep.Spec{
			Label: "good",
			Out:   []taskdep.Key{taskdep.Key(i)},
			Body:  func(any) { _ = v },
		})
	}
}

// Negative: the later write targets a fresh copy, not the captured
// variable.
func fusedCaptureCopy(rt *taskdep.Runtime, xs []int) {
	for i := 0; i < len(xs); i++ {
		v := xs[i]
		snap := v
		rt.Submit(taskdep.Spec{
			Label: "good",
			Out:   []taskdep.Key{taskdep.Key(i)},
			Body:  func(any) { _ = snap },
		})
		v = 0
		_ = v
	}
}

// Negative: a per-iteration index mutated only by the loop header post
// statement is settled before the body can see it change.
func fusedCaptureHeaderOnly(rt *taskdep.Runtime, xs []int) {
	for i := 0; i < len(xs); i++ {
		rt.Submit(taskdep.Spec{
			Label: "good",
			Out:   []taskdep.Key{taskdep.Key(i)},
			Body:  func(any) { _ = xs[i] },
		})
	}
}
