package rt

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taskdep/internal/fault"
	"taskdep/internal/graph"
	"taskdep/internal/mpi"
	"taskdep/internal/obs"
	"taskdep/internal/sched"
	"taskdep/internal/trace"
)

// TestBreadthFirstPersistentReplay: under BreadthFirst every executed
// task, recorded or replayed, passes through the global FIFO — no
// finisher keeps a successor for itself.
func TestBreadthFirstPersistentReplay(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []PersistentOption
	}{
		{"plain", nil},
		{"adaptive", []PersistentOption{Adaptive(func(iter int) bool { return iter == 2 })}},
		{"frozen", []PersistentOption{Frozen()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newRuntime(t, Config{Workers: 3, Policy: sched.BreadthFirst, Opts: graph.OptAll})
			var runs atomic.Int32
			err := rt.Persistent(4, func(iter int) {
				for i := 0; i < 24; i++ {
					rt.Submit(Spec{InOut: []graph.Key{graph.Key(i % 6)}, Body: func(any) { runs.Add(1) }})
				}
			}, tc.opts...)
			rt.Close()
			if err != nil {
				t.Fatal(err)
			}
			if runs.Load() != 4*24 {
				t.Fatalf("runs = %d", runs.Load())
			}
			c := rt.Obs().Counter
			if popped, exec := c(obs.CDequePop)+c(obs.CDequeSteal), c(obs.CTasksExecuted); popped != exec || c(obs.CTasksFused) != 0 {
				t.Fatalf("%d of %d executed tasks came off a queue, %d kept by their finisher", popped, exec, c(obs.CTasksFused))
			}
		})
	}
}

func TestDetachedInsidePersistentRegion(t *testing.T) {
	// Detached tasks recorded in iteration 0 must work on every replay:
	// each instance gets a fresh event whose fulfillment releases the
	// successor of that iteration.
	rt := newRuntime(t, Config{Workers: 2, Opts: graph.OptAll})
	w := mpi.NewWorld(2)
	c0, c1 := w.Comm(0), w.Comm(1)
	const iters = 4
	buf := make([]float64, 1)
	var got []float64
	var mu sync.Mutex

	// Peer: send one message per iteration, from a plain goroutine.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for it := 0; it < iters; it++ {
			c1.Send([]float64{float64(10 + it)}, 0, 3)
		}
	}()

	err := rt.Persistent(iters, func(iter int) {
		rt.Submit(Spec{
			Label: "irecv", Out: []graph.Key{1}, Detached: true,
			DetachedBody: func(_ any, ev *Event) {
				c0.Irecv(buf, 1, 3).OnComplete(ev.Fulfill)
			},
		})
		rt.Submit(Spec{
			Label: "use", In: []graph.Key{1},
			Body: func(any) {
				mu.Lock()
				got = append(got, buf[0])
				mu.Unlock()
			},
		})
	})
	rt.Close()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != iters {
		t.Fatalf("received %d messages, want %d", len(got), iters)
	}
	for i, v := range got {
		if v != float64(10+i) {
			t.Fatalf("got[%d] = %v", i, v)
		}
	}

	// A body that fulfils its own event and then fails. The fulfilment
	// completes the task, so the region may move on and replay it —
	// attaching the next iteration's event — while the executor of the
	// previous instance is still on its way into fail. fail must settle
	// the event that executor read before the body: claiming the new one
	// would abort the next instance and skip its successor. The body only
	// yields between the two (no channel, no atomic), so that nothing
	// orders its failure against the replay but the runtime itself.
	rt = newRuntime(t, Config{Workers: 2, Opts: graph.OptAll})
	var started, used atomic.Int32
	err = rt.Persistent(iters, func(iter int) {
		rt.Submit(Spec{
			Label: "selfdone", Out: []graph.Key{1}, Detached: true,
			DetachedBody: func(_ any, ev *Event) {
				started.Add(1)
				ev.Fulfill()
				for i := 0; i < 200; i++ {
					runtime.Gosched()
				}
				panic("failed after fulfilling")
			},
		})
		rt.Submit(Spec{Label: "use", In: []graph.Key{1}, Body: func(any) { used.Add(1) }})
	})
	// A failure surfaces at whichever wait follows its recording, which
	// may be none of this region's.
	var te *fault.TaskError
	if err != nil && (!errors.As(err, &te) || te.Label != "selfdone") {
		t.Fatalf("Persistent: %v, want the selfdone failure", err)
	}
	if err := rt.Close(); err != nil && (!errors.As(err, &te) || te.Label != "selfdone") {
		t.Fatalf("Close: %v, want the selfdone failure", err)
	}
	if s, u := started.Load(), used.Load(); s == 0 || u != s {
		t.Fatalf("%d instances fulfilled but %d successors ran", s, u)
	}
}

func TestProfileSeparatesProducerSlot(t *testing.T) {
	const workers = 2
	p := trace.New(workers+1, false)
	rt := newRuntime(t, Config{Workers: workers, ThrottleTotal: 2, Profile: p})
	// With an aggressive throttle the producer must execute tasks
	// itself — its slot (index `workers`) accumulates work time.
	for i := 0; i < 64; i++ {
		rt.Submit(Spec{Body: func(any) { time.Sleep(100 * time.Microsecond) }})
	}
	rt.Close()
	b := p.Breakdown()
	if b.Work <= 0 {
		t.Fatalf("no work recorded")
	}
}

func TestManySmallPersistentIterations(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 4, Opts: graph.OptAll})
	var n atomic.Int64
	const iters = 50
	err := rt.Persistent(iters, func(iter int) {
		for i := 0; i < 8; i++ {
			rt.Submit(Spec{
				InOutSet: []graph.Key{1},
				Body:     func(any) { n.Add(1) },
			})
		}
		rt.Submit(Spec{In: []graph.Key{1}, Body: func(any) { n.Add(1) }})
	})
	rt.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n.Load() != iters*9 {
		t.Fatalf("ran %d, want %d", n.Load(), iters*9)
	}
}

func TestGraphStatsExposedThroughRuntime(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 2, Opts: graph.OptDedup})
	gate := make(chan struct{})
	// Hold the writer open so the reader's edges are created (not
	// pruned) regardless of scheduling.
	rt.Submit(Spec{Out: []graph.Key{1, 2}, Body: func(any) { <-gate }})
	rt.Submit(Spec{In: []graph.Key{1, 2}, Body: func(any) {}})
	close(gate)
	rt.Close()
	st := rt.Graph().Stats()
	if st.Tasks != 2 || st.EdgesDuplicate != 1 || st.EdgesCreated != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCloseIdempotentAfterWorkDone(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 2})
	for i := 0; i < 10; i++ {
		rt.Submit(Spec{Body: func(any) {}})
	}
	rt.Taskwait()
	rt.Close() // must return; no tasks remain
}

func TestHeavyChurnManyKeys(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 4, Opts: graph.OptAll, ThrottleTotal: 256})
	var n atomic.Int64
	for i := 0; i < 5000; i++ {
		k := graph.Key(i % 97)
		spec := Spec{Label: fmt.Sprintf("t%d", i), Body: func(any) { n.Add(1) }}
		switch i % 3 {
		case 0:
			spec.Out = []graph.Key{k}
		case 1:
			spec.In = []graph.Key{k}
		case 2:
			spec.InOutSet = []graph.Key{k}
		}
		rt.Submit(spec)
	}
	rt.Close()
	if n.Load() != 5000 {
		t.Fatalf("ran %d", n.Load())
	}
}

func TestPersistentFrozenReplaysCapturedClosures(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 3, Opts: graph.OptAll})
	var mu sync.Mutex
	var seen []int
	const iters = 4
	err := rt.Persistent(iters, func(int) {
		for i := 0; i < 8; i++ {
			i := i
			rt.Submit(Spec{
				InOut:        []graph.Key{graph.Key(i % 2)},
				FirstPrivate: i,
				Body: func(fp any) {
					mu.Lock()
					seen = append(seen, fp.(int))
					mu.Unlock()
				},
			})
		}
	}, Frozen())
	rt.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != iters*8 {
		t.Fatalf("ran %d, want %d", len(seen), iters*8)
	}
	// Captured firstprivates: each value appears exactly iters times.
	counts := map[int]int{}
	for _, v := range seen {
		counts[v]++
	}
	for i := 0; i < 8; i++ {
		if counts[i] != iters {
			t.Fatalf("value %d ran %d times: %v", i, counts[i], counts)
		}
	}
}

func TestPersistentAdaptiveReRecordsOnShapeChange(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 3, Opts: graph.OptAll})
	var n atomic.Int64
	const iters = 12
	// The task stream widens at iterations 4 and 8 (AMR-style).
	width := func(iter int) int { return 4 + (iter/4)*2 }
	err := rt.Persistent(iters,
		func(iter int) {
			for i := 0; i < width(iter); i++ {
				rt.Submit(Spec{
					InOut:        []graph.Key{graph.Key(i % 3)},
					FirstPrivate: iter,
					Body:         func(any) { n.Add(1) },
				})
			}
		},
		Adaptive(func(iter int) bool { return iter == 4 || iter == 8 }),
	)
	rt.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for it := 0; it < iters; it++ {
		want += int64(width(it))
	}
	if n.Load() != want {
		t.Fatalf("ran %d, want %d", n.Load(), want)
	}
	// Three recordings (iterations 0, 4, 8) and 9 replays.
	st := rt.Graph().Stats()
	if st.ReplayedTasks == 0 {
		t.Fatalf("no replays")
	}
}

func TestPersistentAdaptiveUndetectedChangeErrors(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 2})
	err := rt.Persistent(3,
		func(iter int) {
			n := 2
			if iter == 1 {
				n = 1 // shape change NOT flagged by changed()
			}
			for i := 0; i < n; i++ {
				rt.Submit(Spec{InOut: []graph.Key{1}, Body: func(any) {}})
			}
		},
		Adaptive(func(iter int) bool { return false }),
	)
	rt.Close()
	if err == nil {
		t.Fatalf("undetected shape change did not error")
	}
}

func TestCrossBoundaryDependenceIntoPersistentRegion(t *testing.T) {
	// A task submitted before the persistent region writes a key the
	// recorded tasks read: iteration 0 must wait for it; replays must
	// not deadlock on it (epoch fix).
	rt := newRuntime(t, Config{Workers: 2, Opts: graph.OptAll})
	gate := make(chan struct{})
	var order []string
	var mu sync.Mutex
	rt.Submit(Spec{Label: "pre", Out: []graph.Key{1}, Body: func(any) {
		<-gate
		mu.Lock()
		order = append(order, "pre")
		mu.Unlock()
	}})
	done := make(chan error, 1)
	go func() {
		done <- rt.Persistent(3, func(iter int) {
			rt.Submit(Spec{Label: "body", In: []graph.Key{1}, InOut: []graph.Key{2}, Body: func(any) {
				mu.Lock()
				order = append(order, "body")
				mu.Unlock()
			}})
		})
	}()
	close(gate)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("replay deadlocked on cross-boundary edge")
	}
	rt.Close()
	if len(order) != 4 || order[0] != "pre" {
		t.Fatalf("order = %v", order)
	}
}

// TestDetachedFulfillBeforeStartStaysTerminal: a detached task the
// producer fulfills while a worker is about to start it must stay
// terminal. The start is a claim a finished task refuses; a plain store
// of Running after the Fulfill left the task live forever, and every
// later task on its keys waiting on it. The window is a few
// instructions wide, so the loop runs many short rounds; each round's
// task is checked one round later, once its worker has moved on.
func TestDetachedFulfillBeforeStartStaysTerminal(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 2, CPath: CPathOptions{Enable: true}})
	defer rt.Close()
	rounds, budget := 200_000, 2*time.Second
	if testing.Short() {
		rounds = 20_000
	}
	deadline := time.Now().Add(budget)
	var prev *graph.Task
	for i := 0; i < rounds && time.Now().Before(deadline); i++ {
		ev := rt.Submit(Spec{Label: "d", Out: []graph.Key{1}, Detached: true, DetachedBody: func(any, *Event) {}})
		ev.Fulfill()
		if err := rt.Taskwait(); err != nil {
			t.Fatal(err)
		}
		if prev != nil && !prev.State().Done() {
			t.Fatalf("round %d: fulfilled task left %v", i-1, prev.State())
		}
		prev = ev.t.Load()
	}
}

// TestDetachedFulfillBeforeReadyStaysTerminal: a detached task fulfilled
// while it still waits on a predecessor is finished for good: the
// predecessor's finish does not move it back to Ready, and the ready
// gauge ends at 0.
func TestDetachedFulfillBeforeReadyStaysTerminal(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 1})
	defer rt.Close()
	gate := make(chan struct{})
	rt.Submit(Spec{Label: "a", Out: []graph.Key{1}, Body: func(any) { <-gate }})
	ev := rt.Submit(Spec{Label: "d", InOut: []graph.Key{1}, Detached: true, DetachedBody: func(any, *Event) {}})
	ev.Fulfill()
	close(gate)
	if err := rt.Taskwait(); err != nil {
		t.Fatal(err)
	}
	if d := ev.t.Load(); d.State() != graph.Completed || rt.g.ReadyCount() != 0 {
		t.Fatalf("fulfilled task ends %v with the ready gauge at %d, want completed and 0", d.State(), rt.g.ReadyCount())
	}
}

// TestProfileCountsTheProducer: the producer's slot is in the
// breakdown from NewRuntime on, discovery included, so work, overhead
// and idle over every slot add up to the wall clock.
func TestProfileCountsTheProducer(t *testing.T) {
	p := trace.New(2, false)
	rt := newRuntime(t, Config{Workers: 1, Profile: p})
	specs := make([]Spec, 256)
	for i := range specs {
		specs[i] = Spec{Label: "b", InOut: []graph.Key{graph.Key(i % 16)}, Body: func(any) {}}
	}
	for b := 0; b < 400; b++ {
		rt.SubmitBatch(specs)
	}
	rt.Close()
	wall := p.Now()
	bd := p.Breakdown()
	sum := bd.Work + bd.OverheadTime + bd.IdleTime + bd.SkipTime
	if residual := 1 - sum/(float64(bd.Workers)*wall); residual > 0.1 {
		t.Fatalf("breakdown residual %.3f of %d slots x %.3f s, want <= 0.1", residual, bd.Workers, wall)
	}
}
