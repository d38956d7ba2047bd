// Overlap: demonstrates communication/computation overlap with detached
// tasks — the paper's §4.1 mechanism. Two ranks exchange a large
// (rendezvous) message while independent compute tasks keep the workers
// busy; the profiler's overlap ratio shows how much of the communication
// window was covered by work. A second run serializes communication with
// a taskwait to show the lost overlap.
//
//	go run ./examples/overlap
package main

import (
	"fmt"
	"time"

	"taskdep"
)

const (
	msgLen   = 1 << 20 // 8 MiB: rendezvous protocol
	nCompute = 32
)

func run(serialize bool) (wall time.Duration, overlap float64) {
	w := taskdep.NewWorld(2)
	var measured float64
	t0 := time.Now()
	w.Run(func(comm *taskdep.Comm) {
		// One clock for requests and task boxes: the profile's own.
		prof := taskdep.NewProfile(4+1, true)
		comm.SetProfile(prof, nil)
		rt, err := taskdep.NewRuntime(taskdep.Config{Workers: 4, Profile: prof, Opts: taskdep.OptAll})
		if err != nil {
			panic(err)
		}

		buf := make([]float64, msgLen)
		peer := 1 - comm.Rank()

		// Post the exchange as detached tasks.
		rt.Submit(taskdep.Spec{
			Label: "irecv", Out: []taskdep.Key{1}, Detached: true,
			DetachedBody: func(_ any, ev *taskdep.Event) {
				comm.Irecv(buf, peer, 7).OnComplete(ev.Fulfill)
			},
		})
		sdata := make([]float64, msgLen)
		rt.Submit(taskdep.Spec{
			Label: "isend", Out: []taskdep.Key{2}, Detached: true,
			DetachedBody: func(_ any, ev *taskdep.Event) {
				comm.Isend(sdata, peer, 7).OnComplete(ev.Fulfill)
			},
		})
		if serialize {
			// The anti-pattern: wait for communications before any
			// compute (what coarse barriers do in BSP codes).
			rt.Taskwait()
		}
		// Independent computation, available for overlap.
		sink := make([]float64, nCompute)
		for i := 0; i < nCompute; i++ {
			i := i
			rt.Submit(taskdep.Spec{
				Label: "compute", Out: []taskdep.Key{taskdep.Key(100 + i)},
				Do: func(any) error {
					s := 0.0
					for k := 0; k < 400000; k++ {
						s += float64(k%7) * 1e-9
					}
					sink[i] = s
					return nil
				},
			})
		}
		// Consumer of the received data.
		rt.Submit(taskdep.Spec{
			Label: "use-recv", In: []taskdep.Key{1},
			Do: func(any) error { _ = buf[0]; return nil },
		})
		rt.Close()
		if comm.Rank() == 0 {
			measured = prof.CommSummary().OverlapRatio
		}
	})
	return time.Since(t0), measured
}

func main() {
	wallOverlap, ratioOverlap := run(false)
	wallSerial, ratioSerial := run(true)
	fmt.Printf("detached tasks (overlapped):  wall=%v overlap ratio=%.0f%%\n", wallOverlap, 100*ratioOverlap)
	fmt.Printf("taskwait before compute:      wall=%v overlap ratio=%.0f%%\n", wallSerial, 100*ratioSerial)
	fmt.Printf("fine MPI+task integration reclaims the communication window for work\n")
}
