package taskdep_test

import (
	"errors"
	"fmt"
	"sync/atomic"

	"taskdep"
)

// Error handling: a task whose Do closure fails aborts and poisons its
// successor cone; Taskwait reports the failure as a *TaskError naming
// the task and carrying the cause.
func ExampleRuntime_submitError() {
	r, err := taskdep.NewRuntime(taskdep.Config{Workers: 2})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer r.Close()
	r.Submit(taskdep.Spec{
		Label: "load", Out: []taskdep.Key{1},
		Do: func(any) error { return errors.New("disk on fire") },
	})
	r.Submit(taskdep.Spec{
		Label: "use", In: []taskdep.Key{1},
		Do: func(any) error { fmt.Println("never runs: its input failed"); return nil },
	})
	err = r.Taskwait()
	var te *taskdep.TaskError
	if errors.As(err, &te) {
		fmt.Printf("failed task: %s\ncause: %v\n", te.Label, te.Cause)
	}
	// Output:
	// failed task: load
	// cause: disk on fire
}

// SubmitBatch amortizes discovery overhead over a whole slice of
// submissions — the natural form for a tiled kernel's inner loop.
func ExampleRuntime_SubmitBatch() {
	r, err := taskdep.NewRuntime(taskdep.Config{Workers: 4})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer r.Close()
	var sum atomic.Int64
	specs := make([]taskdep.Spec, 8)
	for i := range specs {
		n := int64(i)
		specs[i] = taskdep.Spec{Label: "add", Do: func(any) error { sum.Add(n); return nil }}
	}
	r.SubmitBatch(specs)
	if err := r.Taskwait(); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("sum:", sum.Load())
	// Output: sum: 28
}

// Persistent records the task graph once and replays it each
// iteration; Frozen() additionally reuses the captured closures, so the
// body only runs at iteration 0 (the OpenMP taskgraph semantics).
func ExampleRuntime_Persistent() {
	r, err := taskdep.NewRuntime(taskdep.Config{Workers: 2})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer r.Close()
	x := 1.0
	bodyRuns := 0
	err = r.Persistent(3, func(iter int) {
		bodyRuns++
		r.Submit(taskdep.Spec{
			Label: "double", InOut: []taskdep.Key{1},
			Do: func(any) error { x *= 2; return nil },
		})
	}, taskdep.Frozen())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("x = %g after 3 iterations, body ran %d time\n", x, bodyRuns)
	// Output: x = 8 after 3 iterations, body ran 1 time
}

// Adaptive re-records the graph only when the application signals a
// shape change; unchanged iterations replay the recorded structure
// with the body re-run (so firstprivate data can evolve). Here the
// task count changes at iteration 2 and only that iteration pays
// re-recording.
func ExampleRuntime_Persistent_adaptive() {
	r, err := taskdep.NewRuntime(taskdep.Config{Workers: 2})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer r.Close()
	var executed atomic.Int64
	tasksFor := func(iter int) int {
		if iter >= 2 {
			return 3 // "mesh refined": shape changes once
		}
		return 2
	}
	err = r.Persistent(4, func(iter int) {
		for c := 0; c < tasksFor(iter); c++ {
			r.Submit(taskdep.Spec{
				Label: "cell", InOut: []taskdep.Key{taskdep.Key(c)},
				Do: func(any) error { executed.Add(1); return nil },
			})
		}
	}, taskdep.Adaptive(func(iter int) bool {
		return tasksFor(iter) != tasksFor(iter-1)
	}))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("tasks executed:", executed.Load())
	// Output: tasks executed: 10
}

// Abort cancels the window cooperatively: pending tasks are skipped,
// the graph drains, and the next Taskwait returns the cause.
func ExampleRuntime_Abort() {
	r, err := taskdep.NewRuntime(taskdep.Config{Workers: 2})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer r.Close()
	r.Abort(errors.New("quota exceeded"))
	fmt.Println(r.Taskwait())
	// Output: quota exceeded
}

// NewRuntime reports invalid configuration as a descriptive error
// instead of panicking (New is the panicking must-form).
func ExampleNewRuntime() {
	_, err := taskdep.NewRuntime(taskdep.Config{Workers: -1})
	fmt.Println(err)
	// Output: rt: Workers is -1; want >= 0 (0 selects the default of 1)
}

// Typed dataflow: tasks Provide and Consume values bound to named
// slots of a ValueStore instead of bare ordering keys — the
// reconciliation-workflow model. The bindings lower onto ordinary
// In/Out dependences, so a value graph records and replays under
// Persistent exactly like a key-only graph; with Frozen it runs the
// compiled replay path, recomputing the slot values every iteration.
func ExampleRuntime_Persistent_values() {
	r, err := taskdep.NewRuntime(taskdep.Config{Workers: 2})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer r.Close()
	st := taskdep.NewValueStore()
	price := taskdep.BindValue[float64](st, "price")
	qty := taskdep.BindValue[float64](st, "qty")
	total := taskdep.BindValue[float64](st, "total")
	qty.Set(3)
	err = r.Persistent(3, func(iter int) {
		r.Submit(taskdep.LowerValues(taskdep.ValueSpec{
			Label:   "quote",
			Provide: []taskdep.Value{price.Ref()},
			Do:      func() error { price.Set(10); return nil },
		}))
		r.Submit(taskdep.LowerValues(taskdep.ValueSpec{
			Label:   "bill",
			Consume: []taskdep.Value{price.Ref()},
			Update:  []taskdep.Value{qty.Ref()},
			Provide: []taskdep.Value{total.Ref()},
			Do: func() error {
				total.Set(price.Get() * qty.Get())
				qty.Set(qty.Get() + 1) // next iteration bills one more
				return nil
			},
		}))
	}, taskdep.Frozen())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("total = %g after 3 frozen iterations\n", total.Get())
	// Output: total = 50 after 3 frozen iterations
}
