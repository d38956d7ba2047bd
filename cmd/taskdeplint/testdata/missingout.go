package fixtures

import (
	"example.com/ext"

	"taskdep"
)

var counter int
var table [4]float64

// Positive: the body mutates package-level counter with no declared
// write dependence — nothing orders two of these tasks. The effect
// analysis sees the write, so this is undeclared-write territory.
func missingOutIncr(rt *taskdep.Runtime) {
	rt.Submit(taskdep.Spec{ // want "undeclared-write"
		Label: "incr",
		Body:  func(any) { counter++ },
	})
}

// Positive: element writes to package-level state count too.
func missingOutIndex(rt *taskdep.Runtime) {
	rt.Submit(taskdep.Spec{ // want "undeclared-write"
		Label: "fill",
		In:    []taskdep.Key{1},
		Body:  func(any) { table[0] = 1.0 },
	})
}

// Positive: a write through another package's qualifier. The stub
// importer cannot type it, but it is package-level state all the same.
func missingOutCrossPackage(rt *taskdep.Runtime) {
	rt.Submit(taskdep.Spec{ // want "undeclared-write"
		Label: "cross",
		Body:  func(any) { ext.Counter = 1 },
	})
}

// Negative: declaring the write makes it a dependence the runtime
// orders.
func declaredOut(rt *taskdep.Runtime) {
	rt.Submit(taskdep.Spec{
		Label: "incr",
		Out:   []taskdep.Key{1},
		Body:  func(any) { counter++ },
	})
}

// Negative: InOut also declares the write.
func declaredInOut(rt *taskdep.Runtime) {
	rt.Submit(taskdep.Spec{
		Label: "incr",
		InOut: []taskdep.Key{1},
		Body:  func(any) { counter++ },
	})
}

// Negative: function-local state is the caller's business.
func localWrite(rt *taskdep.Runtime) {
	x := 0
	rt.Submit(taskdep.Spec{Label: "local", Body: func(any) { x = 1 }})
	rt.Taskwait()
	_ = x
}

// Negative: suppression comment.
func suppressed(rt *taskdep.Runtime) {
	// This task is the only writer and runs before Taskwait; ordering is
	// external to the graph. taskdeplint:ignore
	rt.Submit(taskdep.Spec{
		Label: "solo",
		Body:  func(any) { counter = 0 },
	})
}
