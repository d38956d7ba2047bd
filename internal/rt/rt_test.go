package rt

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"taskdep/internal/graph"
	"taskdep/internal/sched"
	"taskdep/internal/trace"
)

// newRuntime is NewRuntime for a test: a configuration it rejects fails
// the test.
func newRuntime(tb testing.TB, cfg Config) *Runtime {
	tb.Helper()
	r, err := NewRuntime(cfg)
	if err != nil {
		tb.Fatalf("NewRuntime: %v", err)
	}
	return r
}

func TestSingleTaskRuns(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 2})
	var ran atomic.Bool
	rt.Submit(Spec{Label: "t", Body: func(any) { ran.Store(true) }})
	rt.Close()
	if !ran.Load() {
		t.Fatalf("task did not run")
	}
}

func TestFirstPrivateDelivered(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 2})
	got := make(chan int, 1)
	rt.Submit(Spec{Body: func(fp any) { got <- fp.(int) }, FirstPrivate: 42})
	rt.Close()
	if v := <-got; v != 42 {
		t.Fatalf("fp = %d", v)
	}
}

func TestDependenceOrderChain(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 4, Opts: graph.OptAll})
	const n = 200
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
}

func TestIndependentTasksRunInParallel(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 4})
	var concurrent, peak atomic.Int32
	var wgStart sync.WaitGroup
	wgStart.Add(4)
	for i := 0; i < 4; i++ {
		rt.Submit(Spec{Body: func(any) {
			c := concurrent.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			wgStart.Done()
			wgStart.Wait() // rendezvous: requires all 4 running at once
			concurrent.Add(-1)
		}})
	}
	done := make(chan struct{})
	go func() { rt.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("deadlock: tasks did not run concurrently")
	}
	if peak.Load() != 4 {
		t.Fatalf("peak concurrency = %d, want 4", peak.Load())
	}
}

func TestTaskwaitWaitsForAll(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 3})
	var done atomic.Int32
	for i := 0; i < 50; i++ {
		rt.Submit(Spec{Body: func(any) {
			time.Sleep(100 * time.Microsecond)
			done.Add(1)
		}})
	}
	rt.Taskwait()
	if done.Load() != 50 {
		t.Fatalf("taskwait returned with %d of 50 done", done.Load())
	}
	rt.Close()
}

func TestDiamondDependence(t *testing.T) {
	// a -> (b, c) -> d
	rt := newRuntime(t, Config{Workers: 4})
	var log []string
	var mu sync.Mutex
	add := func(s string) func(any) {
		return func(any) {
			mu.Lock()
			log = append(log, s)
			mu.Unlock()
		}
	}
	rt.Submit(Spec{Label: "a", Out: []graph.Key{1}, Body: add("a")})
	rt.Submit(Spec{Label: "b", In: []graph.Key{1}, Out: []graph.Key{2}, Body: add("b")})
	rt.Submit(Spec{Label: "c", In: []graph.Key{1}, Out: []graph.Key{3}, Body: add("c")})
	rt.Submit(Spec{Label: "d", In: []graph.Key{2, 3}, Body: add("d")})
	rt.Close()
	if len(log) != 4 || log[0] != "a" || log[3] != "d" {
		t.Fatalf("order = %v", log)
	}
}

func TestTaskLoopCoversRange(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 4})
	const n = 1000
	covered := make([]atomic.Int32, n)
	rt.TaskLoop(n, 7,
		func(c, lo, hi int) Spec {
			return Spec{Label: fmt.Sprintf("chunk%d", c), Out: []graph.Key{graph.Key(c)}}
		},
		func(lo, hi int) {
			for i := lo; i < hi; i++ {
				covered[i].Add(1)
			}
		})
	rt.Close()
	for i := range covered {
		if covered[i].Load() != 1 {
			t.Fatalf("index %d covered %d times", i, covered[i].Load())
		}
	}
}

func TestDetachedTaskCompletesOnFulfill(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 2})
	fired := make(chan *Event, 1)
	ev := rt.Submit(Spec{
		Label:        "detach",
		Out:          []graph.Key{1},
		Detached:     true,
		DetachedBody: func(any, *Event) {}, // posts a request in real use
	})
	if ev == nil {
		t.Fatalf("no event returned")
	}
	var after atomic.Bool
	rt.Submit(Spec{In: []graph.Key{1}, Body: func(any) { after.Store(true) }})
	// Successor must not run until Fulfill.
	time.Sleep(20 * time.Millisecond)
	if after.Load() {
		t.Fatalf("successor ran before Fulfill")
	}
	go func() { ev.Fulfill(); fired <- ev }()
	rt.Close()
	<-fired
	if !after.Load() {
		t.Fatalf("successor never ran")
	}
}

// TestDetachedSubmitAllocatesOnlyItsEvent: warm detached Submits,
// their bodies' Fulfills and the Taskwait allocate each task's Event and
// nothing else per task — the executor calls the DetachedBody through
// that event, so no closure is made per submission to bind the two.
// The window's task chunks are the only other allocations: a detached
// task pins its chunk, which is then not recycled (graph.EndWindow).
func TestDetachedSubmitAllocatesOnlyItsEvent(t *testing.T) {
	const n = 512
	rt := newRuntime(t, Config{Workers: 1, Opts: graph.OptAll})
	defer rt.Close()
	var bodies atomic.Int64
	body := func(_ any, ev *Event) { bodies.Add(1); ev.Fulfill() }
	keys := make([][]graph.Key, n)
	for i := range keys {
		keys[i] = []graph.Key{graph.Key(i)}
	}
	run := func() {
		for i := range keys {
			rt.Submit(Spec{Out: keys[i], Detached: true, DetachedBody: body})
		}
		if err := rt.Taskwait(); err != nil {
			t.Fatalf("Taskwait: %v", err)
		}
	}
	run() // warm-up: key states, queues
	// A chunk is two allocations (header and tasks) of 128 tasks.
	const chunks = n/128 + 1
	if allocs := testing.AllocsPerRun(10, run); allocs > n+2*chunks {
		t.Fatalf("%d detached Submits + Fulfills + Taskwait: %.0f allocations, want <= %d events and %d task chunks",
			n, allocs, n, chunks)
	}
	// AllocsPerRun adds a warm-up run of its own.
	if got := bodies.Load(); got != 12*n {
		t.Fatalf("DetachedBody ran %d times, want %d", got, 12*n)
	}
}

func TestThrottleTotalBoundsLiveTasks(t *testing.T) {
	const limit = 8
	rt := newRuntime(t, Config{Workers: 2, ThrottleTotal: limit})
	var maxLive atomic.Int64
	for i := 0; i < 200; i++ {
		rt.Submit(Spec{InOut: []graph.Key{1}, Body: func(any) {
			l := rt.Graph().Live()
			for {
				m := maxLive.Load()
				if l <= m || maxLive.CompareAndSwap(m, l) {
					break
				}
			}
		}})
	}
	rt.Close()
	// The producer may overshoot by the task it is currently submitting.
	if maxLive.Load() > limit+1 {
		t.Fatalf("live tasks reached %d, throttle %d", maxLive.Load(), limit)
	}
}

func TestPersistentReplayRunsEveryIteration(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 4, Opts: graph.OptAll})
	const iters, chain = 5, 32
	runs := make([]atomic.Int32, chain)
	err := rt.Persistent(iters, func(iter int) {
		for i := 0; i < chain; i++ {
			i := i
			rt.Submit(Spec{
				Label:        fmt.Sprintf("t%d", i),
				InOut:        []graph.Key{graph.Key(i % 4)},
				FirstPrivate: iter,
				Body:         func(fp any) { runs[i].Add(1) },
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()
	for i := range runs {
		if runs[i].Load() != iters {
			t.Fatalf("task %d ran %d times, want %d", i, runs[i].Load(), iters)
		}
	}
	st := rt.Graph().Stats()
	if st.ReplayedTasks != int64((iters-1)*chain) {
		t.Fatalf("replayed = %d, want %d", st.ReplayedTasks, (iters-1)*chain)
	}
}

func TestPersistentFirstPrivateUpdatedPerIteration(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 2})
	var mu sync.Mutex
	seen := map[int]bool{}
	err := rt.Persistent(4, func(iter int) {
		rt.Submit(Spec{
			InOut:        []graph.Key{1},
			FirstPrivate: iter,
			Body: func(fp any) {
				mu.Lock()
				seen[fp.(int)] = true
				mu.Unlock()
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()
	for i := 0; i < 4; i++ {
		if !seen[i] {
			t.Fatalf("iteration %d firstprivate never seen: %v", i, seen)
		}
	}
}

func TestPersistentIterationBarrier(t *testing.T) {
	// Within Persistent, iteration n+1 tasks must not start until all of
	// iteration n completed (implicit barrier).
	rt := newRuntime(t, Config{Workers: 4})
	var cur atomic.Int32
	var bad atomic.Bool
	err := rt.Persistent(3, func(iter int) {
		// The barrier at the end of the previous iteration guarantees
		// no stale task is still running when the body re-enters, so
		// bumping cur here is race-free with respect to task bodies.
		cur.Store(int32(iter))
		for i := 0; i < 16; i++ {
			rt.Submit(Spec{
				Out:          []graph.Key{graph.Key(100 + i)},
				FirstPrivate: iter,
				Body: func(fp any) {
					if int32(fp.(int)) != cur.Load() {
						bad.Store(true)
					}
					time.Sleep(50 * time.Microsecond)
				},
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()
	if bad.Load() {
		t.Fatalf("task from a stale iteration overlapped the next one")
	}
}

func TestPersistentShapeMismatchFails(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 1})
	err := rt.Persistent(2, func(iter int) {
		n := 3
		if iter == 1 {
			n = 2 // shrink: FinishReplay must error
		}
		for i := 0; i < n; i++ {
			rt.Submit(Spec{InOut: []graph.Key{1}, Body: func(any) {}})
		}
	})
	if err == nil {
		t.Fatalf("shape change not detected")
	}
	rt.Close()
}

func TestBreadthFirstPolicyRunsAll(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 4, Policy: sched.BreadthFirst})
	var n atomic.Int32
	for i := 0; i < 500; i++ {
		rt.Submit(Spec{InOut: []graph.Key{graph.Key(i % 10)}, Body: func(any) { n.Add(1) }})
	}
	rt.Close()
	if n.Load() != 500 {
		t.Fatalf("ran %d of 500", n.Load())
	}
}

func TestProfileBreakdownSane(t *testing.T) {
	const workers = 3
	p := trace.New(workers+1, true)
	rt := newRuntime(t, Config{Workers: workers, Profile: p})
	for i := 0; i < 64; i++ {
		rt.Submit(Spec{InOut: []graph.Key{graph.Key(i % 8)}, Body: func(any) {
			time.Sleep(200 * time.Microsecond)
		}})
	}
	rt.Close()
	b := p.Breakdown()
	if b.Tasks != 64 {
		t.Fatalf("tasks = %d", b.Tasks)
	}
	// 64 * 200us = 12.8ms of work, spread over 8 dependency chains.
	if b.Work < 0.010 {
		t.Fatalf("work = %v s, want >= ~12.8ms", b.Work)
	}
	if got := len(p.Tasks()); got != 64 {
		t.Fatalf("task records = %d", got)
	}
}

func TestInOutSetConcurrentWriters(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 4, Opts: graph.OptAll})
	var sum atomic.Int64
	var after atomic.Bool
	var bad atomic.Bool
	for i := 0; i < 8; i++ {
		v := int64(i)
		rt.Submit(Spec{InOutSet: []graph.Key{1}, Body: func(any) {
			if after.Load() {
				bad.Store(true)
			}
			sum.Add(v)
		}})
	}
	rt.Submit(Spec{In: []graph.Key{1}, Body: func(any) {
		if sum.Load() != 28 {
			bad.Store(true)
		}
		after.Store(true)
	}})
	rt.Close()
	if bad.Load() {
		t.Fatalf("inoutset ordering violated")
	}
}

// TestPropertyRandomDAGExecutesSerially: random programs over few keys
// must always complete all tasks and respect per-key write ordering.
func TestPropertyRandomDAGExecutesSerially(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(60) + 10
		keys := rng.Intn(5) + 1
		rt := newRuntime(t, Config{Workers: 4, Opts: graph.Opt(rng.Intn(4))})
		var mu sync.Mutex
		lastWriter := make(map[graph.Key]int)
		violation := false
		for i := 0; i < n; i++ {
			i := i
			k := graph.Key(rng.Intn(keys))
			typ := rng.Intn(4)
			spec := Spec{FirstPrivate: i}
			switch typ {
			case 0:
				spec.In = []graph.Key{k}
			case 1:
				spec.Out = []graph.Key{k}
			case 2:
				spec.InOut = []graph.Key{k}
			case 3:
				spec.InOutSet = []graph.Key{k}
			}
			isWrite := typ != 0
			spec.Body = func(any) {
				mu.Lock()
				if isWrite && typ != 3 {
					if lastWriter[k] > i {
						violation = true
					}
					lastWriter[k] = i
				}
				mu.Unlock()
			}
			rt.Submit(spec)
		}
		rt.Close()
		return !violation
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSubmitExecuteIndependent(b *testing.B) {
	rt := newRuntime(b, Config{Workers: 4})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt.Submit(Spec{Body: func(any) {}})
	}
	rt.Close()
}

func BenchmarkPersistentIteration(b *testing.B) {
	rt := newRuntime(b, Config{Workers: 4, Opts: graph.OptAll})
	const chain = 256
	b.ReportAllocs()
	b.ResetTimer()
	err := rt.Persistent(b.N+1, func(iter int) {
		for i := 0; i < chain; i++ {
			rt.Submit(Spec{InOut: []graph.Key{graph.Key(i % 16)}, Body: func(any) {}})
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	rt.Close()
}
