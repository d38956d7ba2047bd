package fixtures

import "taskdep"

// Positive: submitting and waiting after Close.
func closeThenUse() {
	rt, err := taskdep.NewRuntime(taskdep.Config{Workers: 1})
	if err != nil {
		return
	}
	rt.Submit(taskdep.Spec{Label: "a", Body: func(any) {}})
	rt.Close()
	rt.Submit(taskdep.Spec{Label: "b", Body: func(any) {}}) // want "use-after-close"
	rt.Taskwait()                                           // want "use-after-close"
}

// Positive: the validation error dropped, the runtime still tracked.
func closeThenUseUnchecked() {
	rt, _ := taskdep.NewRuntime(taskdep.Config{Workers: 1})
	rt.Close()
	rt.Taskwait() // want "use-after-close"
}

// Positive: persistent iteration after Close.
func closeThenPersistent() {
	rt, _ := taskdep.NewRuntime(taskdep.Config{Workers: 1})
	rt.Close()
	_ = rt.Persistent(2, func(iter int) {}) // want "use-after-close"
}

// Positive: recording, and replaying a recording, after Close.
func closeThenRecordReplay() {
	rt, _ := taskdep.NewRuntime(taskdep.Config{Workers: 1})
	rec, _ := rt.Record(func() {})
	rt.Close()
	_ = rt.Replay(rec, 1, 1)    // want "use-after-close"
	_, _ = rt.Record(func() {}) // want "use-after-close"
}

// Negative: the deferred-Close idiom runs at return, after every use.
func closeDeferred() {
	rt, err := taskdep.NewRuntime(taskdep.Config{Workers: 1})
	if err != nil {
		return
	}
	defer rt.Close()
	rt.Submit(taskdep.Spec{Label: "a", Body: func(any) {}})
	rt.Taskwait()
}

// Negative: a fresh runtime revives the variable.
func closeThenReplace() {
	rt, _ := taskdep.NewRuntime(taskdep.Config{Workers: 1})
	rt.Close()
	rt, _ = taskdep.NewRuntime(taskdep.Config{Workers: 1})
	defer rt.Close()
	rt.Taskwait()
}

// Negative: Close on an unrelated type with the same method set is not
// tracked (only taskdep.NewRuntime results are).
type fakeCloser struct{}

func (fakeCloser) Close()    {}
func (fakeCloser) Taskwait() {}

func unrelatedClose() {
	var c fakeCloser
	c.Close()
	c.Taskwait()
}
