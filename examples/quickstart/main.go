// Quickstart: a four-stage dependent-task pipeline on the taskdep
// public API. Stages communicate through data keys exactly like OpenMP
// depend clauses; the runtime discovers the graph while workers execute
// it depth-first.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"taskdep"
)

func main() {
	rt, err := taskdep.NewRuntime(taskdep.Config{Workers: 4, Opts: taskdep.OptAll})
	if err != nil {
		panic(err)
	}
	defer rt.Close()

	const n = 8
	data := make([]float64, n)

	// Keys: one per array slot (separate namespaces for the raw and
	// smoothed arrays), plus one for the final reduction.
	slot := func(i int) taskdep.Key { return taskdep.Key(100 + i) }
	smoothSlot := func(i int) taskdep.Key { return taskdep.Key(1000 + i) }
	const sumKey taskdep.Key = 1

	// Stage 1: produce each slot (independent tasks).
	for i := 0; i < n; i++ {
		i := i
		rt.Submit(taskdep.Spec{
			Label: fmt.Sprintf("produce-%d", i),
			Out:   []taskdep.Key{slot(i)},
			Do:    func(any) error { data[i] = float64(i * i); return nil },
		})
	}
	// Stage 2: smooth each interior slot (reads neighbors: a stencil).
	smoothed := make([]float64, n)
	for i := 1; i < n-1; i++ {
		i := i
		rt.Submit(taskdep.Spec{
			Label: fmt.Sprintf("smooth-%d", i),
			In:    []taskdep.Key{slot(i - 1), slot(i), slot(i + 1)},
			Out:   []taskdep.Key{smoothSlot(i)},
			Do:    func(any) error { smoothed[i] = (data[i-1] + data[i] + data[i+1]) / 3; return nil },
		})
	}
	// Stage 3: concurrent accumulation with inoutset (order-independent).
	var sum float64
	var partial [4]float64
	for c := 0; c < 4; c++ {
		c := c
		lo, hi := 1+c*(n-2)/4, 1+(c+1)*(n-2)/4
		deps := []taskdep.Key{}
		for i := lo; i < hi; i++ {
			deps = append(deps, smoothSlot(i))
		}
		rt.Submit(taskdep.Spec{
			Label:    fmt.Sprintf("accumulate-%d", c),
			In:       deps,
			InOutSet: []taskdep.Key{sumKey},
			Do: func(any) error {
				for i := lo; i < hi; i++ {
					partial[c] += smoothed[i]
				}
				return nil
			},
		})
	}
	// Stage 4: read the reduction (depends on every accumulator).
	rt.Submit(taskdep.Spec{
		Label: "report",
		In:    []taskdep.Key{sumKey},
		Do: func(any) error {
			for _, p := range partial {
				sum += p
			}
			return nil
		},
	})
	rt.Taskwait()

	fmt.Printf("data:     %v\n", data)
	fmt.Printf("smoothed: %v\n", smoothed[1:n-1])
	fmt.Printf("sum of smoothed interior = %.3f\n", sum)
	st := rt.Graph().Stats()
	fmt.Printf("graph: %d tasks, %d edges (%d deduplicated, %d redirect nodes)\n",
		st.Tasks, st.EdgesCreated, st.EdgesDuplicate, st.RedirectNodes)
}
