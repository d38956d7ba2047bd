package fusedcapture

import "taskdep"

// Seeded defect: res is per-iteration (no later iteration overwrites
// it) but the iteration keeps writing to it after the Submit. The
// finishing worker may execute the body at once, before, between, or
// after those writes and observe any of the three values. Exactly one
// loop-capture at the Spec.
func pipeline(rt *taskdep.Runtime, xs []float64) {
	for i := range xs {
		res := xs[i]
		rt.Submit(taskdep.Spec{
			Label: "stage",
			Out:   []taskdep.Key{taskdep.Key(i)},
			Body:  func(any) { xs[i] = res },
		})
		res = res * 2
		res = res + 1
	}
}

// Negative twin: the writes are hoisted before the Spec, so the
// captured value is settled by submission time.
func pipelineFixed(rt *taskdep.Runtime, xs []float64) {
	for i := range xs {
		res := xs[i]
		res = res * 2
		res = res + 1
		rt.Submit(taskdep.Spec{
			Label: "stage",
			Out:   []taskdep.Key{taskdep.Key(i)},
			Body:  func(any) { xs[i] = res },
		})
	}
}
