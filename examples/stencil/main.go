// Stencil: an iterative 1-D heat-diffusion solver distributed over
// in-process MPI ranks, in the style of the paper's applications —
// chunked loops as dependent tasks, halo exchange nested in detached
// tasks, and a persistent task graph replayed across iterations (the
// paper's optimization (p)).
//
//	go run ./examples/stencil
package main

import (
	"fmt"
	"math"

	"taskdep"
)

const (
	ranks  = 4
	nLocal = 4096 // cells per rank
	chunks = 8    // tasks per loop (TPL)
	iters  = 200
	alpha  = 0.25
)

// keys
func cellKey(c int) taskdep.Key { return taskdep.Key(100 + c) }
func newKey(c int) taskdep.Key  { return taskdep.Key(1000 + c) }

const (
	ghostLoKey taskdep.Key = 1
	ghostHiKey taskdep.Key = 2
)

func main() {
	w := taskdep.NewWorld(ranks)
	results := make([]float64, ranks)

	w.Run(func(comm *taskdep.Comm) {
		rank := comm.Rank()
		u := make([]float64, nLocal)
		un := make([]float64, nLocal)
		// Initial condition: a hot spike in the global middle.
		if rank == ranks/2 {
			u[0] = 1000
		}
		var ghostLo, ghostHi [1]float64

		rt, err := taskdep.NewRuntime(taskdep.Config{Workers: 4, Opts: taskdep.OptAll})
		if err != nil {
			panic(err)
		}
		defer rt.Close()

		err = rt.Persistent(iters, func(iter int) {
			// Halo exchange: receives first (posted early), sends when
			// the frontier cells of the previous iteration are final.
			if rank > 0 {
				rt.Submit(taskdep.Spec{
					Label: "irecv-lo", Out: []taskdep.Key{ghostLoKey}, Detached: true,
					DetachedBody: func(_ any, ev *taskdep.Event) {
						comm.Irecv(ghostLo[:], rank-1, 1).OnComplete(ev.Fulfill)
					},
				})
				rt.Submit(taskdep.Spec{
					Label: "isend-lo", In: []taskdep.Key{cellKey(0)}, Detached: true,
					DetachedBody: func(_ any, ev *taskdep.Event) {
						comm.Isend(u[:1], rank-1, 2).OnComplete(ev.Fulfill)
					},
				})
			}
			if rank < ranks-1 {
				rt.Submit(taskdep.Spec{
					Label: "irecv-hi", Out: []taskdep.Key{ghostHiKey}, Detached: true,
					DetachedBody: func(_ any, ev *taskdep.Event) {
						comm.Irecv(ghostHi[:], rank+1, 2).OnComplete(ev.Fulfill)
					},
				})
				rt.Submit(taskdep.Spec{
					Label: "isend-hi", In: []taskdep.Key{cellKey(chunks - 1)}, Detached: true,
					DetachedBody: func(_ any, ev *taskdep.Event) {
						comm.Isend(u[nLocal-1:], rank+1, 1).OnComplete(ev.Fulfill)
					},
				})
			}
			// Diffusion: chunk c reads neighbor chunks (and ghosts at
			// the domain frontier), writes its "new" chunk. The whole
			// sweep is staged into one slice and submitted with a single
			// SubmitBatch call — one pass over the discovery engine.
			specs := make([]taskdep.Spec, 0, 2*chunks)
			for c := 0; c < chunks; c++ {
				c := c
				lo, hi := c*nLocal/chunks, (c+1)*nLocal/chunks
				in := []taskdep.Key{cellKey(c)}
				if c > 0 {
					in = append(in, cellKey(c-1))
				} else if rank > 0 {
					in = append(in, ghostLoKey)
				}
				if c < chunks-1 {
					in = append(in, cellKey(c+1))
				} else if rank < ranks-1 {
					in = append(in, ghostHiKey)
				}
				specs = append(specs, taskdep.Spec{
					Label: "diffuse", In: in, Out: []taskdep.Key{newKey(c)},
					Do: func(any) error {
						for i := lo; i < hi; i++ {
							left := ghostLo[0]
							if i > 0 {
								left = u[i-1]
							} else if rank == 0 {
								left = u[i]
							}
							right := ghostHi[0]
							if i < nLocal-1 {
								right = u[i+1]
							} else if rank == ranks-1 {
								right = u[i]
							}
							un[i] = u[i] + alpha*(left-2*u[i]+right)
						}
						return nil
					},
				})
			}
			// Commit: copy back per chunk (writer of the cell key).
			for c := 0; c < chunks; c++ {
				c := c
				lo, hi := c*nLocal/chunks, (c+1)*nLocal/chunks
				specs = append(specs, taskdep.Spec{
					Label: "commit", In: []taskdep.Key{newKey(c)},
					InOut: []taskdep.Key{cellKey(c)},
					Do:    func(any) error { copy(u[lo:hi], un[lo:hi]); return nil },
				})
			}
			rt.SubmitBatch(specs)
		})
		if err != nil {
			panic(err)
		}
		total := 0.0
		for _, v := range u {
			total += v
		}
		results[rank] = total
	})

	sum := 0.0
	for r, v := range results {
		fmt.Printf("rank %d local heat: %10.4f\n", r, v)
		sum += v
	}
	fmt.Printf("total heat: %.6f (conserved: %v)\n", sum, math.Abs(sum-1000) < 1e-6)
}
