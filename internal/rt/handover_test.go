package rt

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"taskdep/internal/fault"
	"taskdep/internal/graph"
	"taskdep/internal/obs"
	"taskdep/internal/trace"
)

func TestFusionChainExecutesInOrder(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 4})
	const n = 500
	var order []int
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		i := i
		rt.Submit(Spec{
			Label: fmt.Sprintf("c%d", i),
			InOut: []graph.Key{1},
			Body: func(any) {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			},
		})
	}
	rt.Close()
	if len(order) != n {
		t.Fatalf("ran %d of %d", len(order), n)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("order[%d] = %d", i, order[i])
		}
	}
	if fused := rt.Obs().Counter(obs.CTasksFused); fused == 0 {
		t.Fatal("a serial chain must hand some successors over to their finisher")
	}
}

// TestFusionAbortConePreserved: a failing task mid-chain poisons its
// fused successors exactly as queued ones — the cone drains Skipped
// and the accounting (executed + skipped + aborted == submitted) holds.
func TestFusionAbortConePreserved(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 4})
	const n = 100
	boom := errors.New("boom")
	var after atomic.Int64
	for i := 0; i < n; i++ {
		i := i
		switch {
		case i == n/2:
			rt.Submit(Spec{Label: "boom", InOut: []graph.Key{1}, Do: func(any) error { return boom }})
		default:
			rt.Submit(Spec{InOut: []graph.Key{1}, Body: func(any) {
				if i > n/2 {
					after.Add(1)
				}
			}})
		}
	}
	err := rt.Taskwait()
	var te *fault.TaskError
	if !errors.As(err, &te) || !errors.Is(te.Cause, boom) {
		t.Fatalf("Taskwait = %v, want TaskError wrapping boom", err)
	}
	if after.Load() != 0 {
		t.Fatalf("%d poisoned successors ran their body", after.Load())
	}
	rt.Close()
	c := func(i obs.Counter) int64 { return rt.Obs().Counter(i) }
	exec, skip, abrt := c(obs.CTasksExecuted), c(obs.CTasksSkipped), c(obs.CTasksAborted)
	if exec+skip+abrt != n {
		t.Fatalf("executed %d + skipped %d + aborted %d != submitted %d", exec, skip, abrt, n)
	}
	if skip != n/2-1 || abrt != 1 {
		t.Fatalf("skipped %d aborted %d; want %d and 1", skip, abrt, n/2-1)
	}
}

// TestFusionPanicMidChain: a panicking fused task is recovered and its
// cone skipped, like on the queued path.
func TestFusionPanicMidChain(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 2})
	const n = 50
	for i := 0; i < n; i++ {
		i := i
		rt.Submit(Spec{InOut: []graph.Key{1}, Body: func(any) {
			if i == 10 {
				panic("mid-chain")
			}
		}})
	}
	err := rt.Close()
	var pe *fault.PanicError
	var te *fault.TaskError
	if !errors.As(err, &te) || !errors.As(te.Cause, &pe) {
		t.Fatalf("Close = %v, want TaskError wrapping PanicError", err)
	}
}

// TestFusionUnderConcurrentSubmitBatch exercises fusion while the
// producer feeds two disjoint-key chains through the batch path and four
// workers run them (-race).
func TestFusionUnderConcurrentSubmitBatch(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 4})
	const chains, chain = 2, 300
	var ran atomic.Int64
	specs := make([]Spec, 0, chains*chain)
	for i := 0; i < chain; i++ {
		for c := 0; c < chains; c++ {
			specs = append(specs, Spec{
				InOut: []graph.Key{graph.Key(100 + c)},
				Body:  func(any) { ran.Add(1) },
			})
		}
	}
	rt.SubmitBatch(specs)
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if ran.Load() != chains*chain {
		t.Fatalf("ran %d of %d", ran.Load(), chains*chain)
	}
}

// TestHandOverKeepsSerialChain: every link of a serial chain but the
// first is kept by the finisher of the link before it — n−1 hand-overs
// for n links, on one worker or four, in a plain window and in every
// iteration of a Frozen region. The first link waits on a gate (a
// detached task, or a body blocked until the chain is discovered) so
// no edge is pruned and the count is exact.
func TestHandOverKeepsSerialChain(t *testing.T) {
	const n, iters = 64, 4
	chain := func(rt *Runtime, first func(any)) {
		for i := 0; i < n; i++ {
			s := Spec{InOut: []graph.Key{1}, Body: func(any) {}}
			if i == 0 {
				s.In, s.Body = []graph.Key{0}, first
			}
			rt.Submit(s)
		}
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("plain/%dw", workers), func(t *testing.T) {
			rt := newRuntime(t, Config{Workers: workers})
			gate := rt.Submit(Spec{Out: []graph.Key{0}, Detached: true})
			chain(rt, func(any) {})
			gate.Fulfill()
			if err := rt.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if got := rt.Obs().Counter(obs.CTasksFused); got != n-1 {
				t.Fatalf("%d hand-overs, want %d", got, n-1)
			}
		})
		t.Run(fmt.Sprintf("frozen/%dw", workers), func(t *testing.T) {
			rt := newRuntime(t, Config{Workers: workers})
			open := make(chan struct{})
			err := rt.Persistent(iters, func(int) {
				chain(rt, func(any) { <-open })
				close(open)
			}, Frozen())
			if err != nil {
				t.Fatalf("Persistent: %v", err)
			}
			if err := rt.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if got := rt.Obs().Counter(obs.CTasksFused); got != iters*(n-1) {
				t.Fatalf("%d hand-overs over %d iterations, want %d", got, iters, iters*(n-1))
			}
		})
	}
}

// TestHandOverSpreadsBurstRelease: a finish that releases a burst keeps
// one task and publishes the rest, so a second P takes released work.
// Every join of a layered graph releases 16 spinning tasks; at two P
// with two workers no executor slot may run more than 75 % of them.
// A finisher that kept the whole burst to itself would run every layer
// alone while the other slots park. The spin is 200 µs so that a run
// spans many OS time slices: with 20 µs, a thread the OS descheduled
// for one slice on a loaded machine missed whole layers.
func TestHandOverSpreadsBurstRelease(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const layers, width = 60, 16
	const gateKey graph.Key = 1
	spin := func(any) {
		for t0 := time.Now(); time.Since(t0) < 200*time.Microsecond; {
		}
	}
	prof := trace.New(3, true)
	rt := newRuntime(t, Config{Workers: 2, Profile: prof})
	defer rt.Close()
	gate := rt.Submit(Spec{Out: []graph.Key{gateKey}, Detached: true})
	join := gateKey
	for l := 0; l < layers; l++ {
		keys := make([]graph.Key, width)
		for i := range keys {
			keys[i] = graph.Key(1<<20 + l*width + i)
			rt.Submit(Spec{In: []graph.Key{join}, Out: keys[i : i+1], Body: spin})
		}
		join = graph.Key(1<<30 + l)
		rt.Submit(Spec{In: keys, Out: []graph.Key{join}, Body: func(any) {}})
	}
	gate.Fulfill()
	if err := rt.Taskwait(); err != nil {
		t.Fatalf("Taskwait: %v", err)
	}
	tasks := prof.Tasks()
	perSlot := map[int]int{}
	for _, r := range tasks {
		perSlot[r.Worker]++
	}
	for w, n := range perSlot {
		if share := float64(n) / float64(len(tasks)); share > 0.75 {
			t.Fatalf("slot %d ran %d of %d tasks (%.0f %%), want <= 75 %%; per slot %v",
				w, n, len(tasks), 100*share, perSlot)
		}
	}
}

// TestSlotStateIsOneCacheLine: neighbouring slots' records never share
// a line (see slotState).
func TestSlotStateIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(slotState{}); n != 64 {
		t.Fatalf("slotState is %d bytes, want 64", n)
	}
}

// TestThrottledProducerHoldsNoWork: a successor the producer released
// while stalled at the throttle is not kept on its slot once it returns
// to discovery — the idle worker runs it without waiting for the next
// stall or Taskwait.
func TestThrottledProducerHoldsNoWork(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 1, ThrottleTotal: 3})
	started, open, ranY := make(chan struct{}), make(chan struct{}), make(chan struct{})
	rt.Submit(Spec{Label: "gated", Body: func(any) { close(started); <-open }})
	<-started
	rt.Submit(Spec{Label: "X", Out: []graph.Key{1}, Body: func(any) {}})
	rt.Submit(Spec{Label: "Y", In: []graph.Key{1}, Body: func(any) { close(ranY) }})
	// Three live tasks: this Submit stalls, runs X on the producer's
	// slot (the worker is blocked), and discovers once Y is all that X
	// left behind.
	rt.Submit(Spec{Label: "on", Body: func(any) {}})
	close(open)
	select {
	case <-ranY:
	case <-time.After(2 * time.Second):
		t.Fatal("Y did not run: the producer's slot still holds it")
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestThrottleReadyBoundsReadyTasks: under a ready window the producer
// stalls while ready-or-running tasks fill it, and completions wake it
// (-race: no interleaving may wedge). Bodies record the largest ready
// count they see.
func TestThrottleReadyBoundsReadyTasks(t *testing.T) {
	const limit = 2
	rt := newRuntime(t, Config{Workers: 2, ThrottleReady: limit})
	var ran, maxReady atomic.Int64
	const n = 3000
	for i := 0; i < n; i++ {
		rt.Submit(Spec{Body: func(any) {
			ran.Add(1)
			r := rt.Graph().ReadyCount()
			for {
				m := maxReady.Load()
				if r <= m || maxReady.CompareAndSwap(m, r) {
					break
				}
			}
		}})
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if ran.Load() != n {
		t.Fatalf("ran %d of %d", ran.Load(), n)
	}
	// The producer may overshoot by the task it is currently submitting.
	if maxReady.Load() > limit+1 {
		t.Fatalf("ready tasks reached %d, throttle %d", maxReady.Load(), limit)
	}
}

// TestHandOverDrainAllocatesNothing: draining parallel chains of empty
// tasks — the depth-first hand-over on every link of a plain window —
// allocates nothing once the slots' buffers are warm. The chains sit
// behind a detached gate; only Fulfill through Taskwait is counted,
// because discovery allocates task records by design.
func TestHandOverDrainAllocatesNothing(t *testing.T) {
	const chains, links = 32, 1500
	const gateKey, chainKey graph.Key = 1, 1 << 20
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("%dw", workers), func(t *testing.T) {
			rt := newRuntime(t, Config{Workers: workers, Opts: graph.OptAll})
			defer rt.Close()
			nop := func(any) {}
			specs := make([]Spec, links)
			drain := func() uint64 {
				gate := rt.Submit(Spec{Out: []graph.Key{gateKey}, Detached: true})
				for c := 0; c < chains; c++ {
					for i := range specs {
						specs[i] = Spec{InOut: []graph.Key{chainKey + graph.Key(c)}, Body: nop}
					}
					specs[0].In = []graph.Key{gateKey}
					rt.SubmitBatch(specs)
				}
				runtime.GC()
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				gate.Fulfill()
				if err := rt.Taskwait(); err != nil {
					t.Fatalf("Taskwait: %v", err)
				}
				runtime.ReadMemStats(&m1)
				return m1.Mallocs - m0.Mallocs
			}
			drain() // warm-up: release buffers, deques
			best := drain()
			for i := 1; i < 3; i++ {
				best = min(best, drain())
			}
			if perTask := float64(best) / (chains * links); perTask > 0.01 {
				t.Fatalf("chain drain allocates %.4f/task, want <= 0.01", perTask)
			}
		})
	}
}
