package rt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taskdep/internal/graph"
	"taskdep/internal/obs"
	"taskdep/internal/verify"
)

// TestSubmitBatchOrder submits a dependence chain through SubmitBatch
// and checks the execution order matches submission order.
func TestSubmitBatchOrder(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 4, Opts: graph.OptAll})
	const n = 300
	var order []int
	var mu sync.Mutex
	specs := make([]Spec, 0, n)
	for i := 0; i < n; i++ {
		i := i
		specs = append(specs, Spec{
			Label: "c",
			InOut: []graph.Key{1},
			Body: func(any) {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			},
		})
	}
	if evs := rt.SubmitBatch(specs); evs != nil {
		t.Fatalf("batch without detached specs returned events: %v", evs)
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

// TestSubmitBatchLargerThanChunk covers the internal chunking path
// (batches longer than batchChunk) plus FirstPrivate delivery.
func TestSubmitBatchLargerThanChunk(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 4, Opts: graph.OptAll})
	n := 3*batchChunk + 17
	var sum atomic.Int64
	specs := make([]Spec, 0, n)
	for i := 0; i < n; i++ {
		specs = append(specs, Spec{
			Body:         func(fp any) { sum.Add(int64(fp.(int))) },
			FirstPrivate: i,
		})
	}
	rt.SubmitBatch(specs)
	rt.Taskwait()
	rt.Close()
	want := int64(n*(n-1)) / 2
	if got := sum.Load(); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

// TestClosedRuntimeFreedInOneCycle: once a runtime that took a batch is
// closed and dropped, one collection frees it and what its tasks hold.
// Staging buffers kept in a sync.Pool field pinned the whole Runtime for
// a cycle (the pool stays on the runtime's global pool list), which kept
// a closed runtime's last region live and doubled the heap goal.
func TestClosedRuntimeFreedInOneCycle(t *testing.T) {
	freed := make(chan struct{})
	func() {
		r := newRuntime(t, Config{Workers: 1})
		payload := new([64]byte)
		runtime.SetFinalizer(payload, func(*[64]byte) { close(freed) })
		r.SubmitBatch([]Spec{{Body: func(any) {}, FirstPrivate: payload}})
		if err := r.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("a closed runtime's task outlived one collection")
	}
}

// TestSubmitBatchDetached mixes detached and regular specs in one batch
// and fulfills the detached events out of band.
func TestSubmitBatchDetached(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 2, Opts: graph.OptAll})
	var got atomic.Int64
	fulfill := make(chan *Event, 2)
	specs := []Spec{
		{Label: "d1", Out: []graph.Key{1}, Detached: true,
			DetachedBody: func(_ any, ev *Event) { fulfill <- ev }},
		{Label: "r1", In: []graph.Key{1}, Body: func(any) { got.Add(1) }},
		{Label: "d2", Out: []graph.Key{2}, Detached: true,
			DetachedBody: func(_ any, ev *Event) { fulfill <- ev }},
		{Label: "r2", In: []graph.Key{2}, Body: func(any) { got.Add(1) }},
	}
	evs := rt.SubmitBatch(specs)
	if evs[0] == nil || evs[2] == nil || evs[1] != nil || evs[3] != nil {
		t.Fatalf("event slots wrong: %v", evs)
	}
	(<-fulfill).Fulfill()
	(<-fulfill).Fulfill()
	rt.Taskwait()
	rt.Close()
	if got.Load() != 2 {
		t.Fatalf("readers ran %d times", got.Load())
	}
}

// TestSubmitBatchVerifyObserve checks the verifier observes batched
// submissions without re-serializing them: the audit sees every task of
// a batch (including inoutset redirects) and a clean run stays clean.
func TestSubmitBatchVerifyObserve(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 2, Opts: graph.OptAll, Verify: verify.Observe})
	shared := make([]int, 1)
	specs := []Spec{
		{Label: "w1", InOut: []graph.Key{7}, Body: func(any) { shared[0]++ }},
		{Label: "w2", InOut: []graph.Key{7}, Body: func(any) { shared[0]++ }},
		{Label: "s1", InOutSet: []graph.Key{8}, Body: func(any) {}},
		{Label: "s2", InOutSet: []graph.Key{8}, Body: func(any) {}},
		{Label: "rd", In: []graph.Key{7, 8}, Body: func(any) { _ = shared[0] }},
	}
	rt.SubmitBatch(specs)
	rt.Taskwait()
	rt.Close()
	rep := rt.Verify()
	if !rep.OK() {
		t.Fatalf("clean batched run reported: %v", rep)
	}
	if rep.Tasks < len(specs) {
		t.Fatalf("audit saw %d tasks, want at least the %d batched", rep.Tasks, len(specs))
	}
}

// TestSubmitBatchPersistentDivergence: a Persistent body that batches
// different dependences on replay iterations is caught as divergence.
func TestSubmitBatchPersistentDivergence(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 2, Opts: graph.OptAll, Verify: verify.Observe})
	defer rt.Close()
	err := rt.Persistent(3, func(iter int) {
		k := graph.Key(1)
		if iter == 2 {
			k = 2 // structure mutates on the last replay
		}
		rt.SubmitBatch([]Spec{
			{Label: "a", InOut: []graph.Key{k}, Body: func(any) {}},
			{Label: "b", In: []graph.Key{k}, Body: func(any) {}},
		})
	})
	if err == nil {
		t.Fatal("diverging batched replay not reported")
	}
}

// TestSubmitBatchPersistentReplay uses SubmitBatch inside a Persistent
// region with verification on: recording and replays must agree.
func TestSubmitBatchPersistentReplay(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 2, Opts: graph.OptAll, Verify: verify.Observe})
	defer rt.Close()
	const iters = 5
	const chunksN = 8
	count := make([]int, chunksN)
	specs := make([]Spec, 0, chunksN)
	err := rt.Persistent(iters, func(iter int) {
		specs = specs[:0]
		for c := 0; c < chunksN; c++ {
			c := c
			specs = append(specs, Spec{
				Label: "step",
				InOut: []graph.Key{graph.Key(c)},
				Body:  func(any) { count[c]++ },
			})
		}
		rt.SubmitBatch(specs)
	})
	if err != nil {
		t.Fatalf("Persistent: %v", err)
	}
	for c, n := range count {
		if n != iters {
			t.Fatalf("chunk %d ran %d times, want %d", c, n, iters)
		}
	}
	if rep := rt.Verify(); !rep.OK() {
		t.Fatalf("persistent batched run reported: %v", rep)
	}
}

// TestRegionOpensWithRedirectOwner: the first submission of a persistent
// region is a batch whose first task owns redirect nodes — a read run's
// pair, or an inoutset group's node — so position 1 of the recording is a
// redirect node and position 0 must not be: a replayed body releases a
// redirect node with the task recorded before it. Plain, Adaptive (which
// re-records once) and Frozen regions all run every task every iteration.
func TestRegionOpensWithRedirectOwner(t *testing.T) {
	const iters, readers = 6, 5
	shared := []graph.Key{1, 2, 3, 4, 5, 6, 7, 8, 9} // nine keys, five readers: a run pays
	modes := []struct {
		name       string
		opts       []PersistentOption
		recordings int64
	}{
		{"plain", nil, 1},
		{"adaptive", []PersistentOption{Adaptive(func(it int) bool { return it == 3 })}, 2},
		{"frozen", []PersistentOption{Frozen()}, 1},
	}
	for _, first := range []string{"read run", "inoutset group"} {
		for _, m := range modes {
			t.Run(first+"/"+m.name, func(t *testing.T) {
				r := newRuntime(t, Config{Workers: 2, Opts: graph.OptAll, Verify: verify.Observe})
				defer r.Close()
				// Writers outside the region: the run has an entry node.
				var seed []Spec
				for _, k := range shared {
					seed = append(seed, Spec{Out: []graph.Key{k}, Body: func(any) {}})
				}
				r.SubmitBatch(seed)
				if err := r.Taskwait(); err != nil {
					t.Fatal(err)
				}
				var ran [readers + 1]atomic.Int64
				var specs []Spec
				for i := 0; i < readers; i++ {
					i := i
					sp := Spec{Label: fmt.Sprintf("m%d", i), Body: func(any) { ran[i].Add(1) }}
					if first == "read run" {
						sp.In, sp.Out = shared, []graph.Key{graph.Key(20 + i)}
					} else {
						sp.InOutSet = shared[:1]
					}
					specs = append(specs, sp)
				}
				specs = append(specs, Spec{Label: "next", InOut: shared, Body: func(any) { ran[readers].Add(1) }})
				var err error
				finishes(t, m.name, func() {
					err = r.Persistent(iters, func(int) { r.SubmitBatch(specs) }, m.opts...)
				})
				if err != nil {
					t.Fatalf("Persistent: %v", err)
				}
				rec := r.Graph().Recorded()
				if rec[0].Redirect || !rec[1].Redirect {
					t.Fatalf("the recording does not open with a task and its redirect node")
				}
				for i := range ran {
					if n := ran[i].Load(); n != iters {
						t.Fatalf("task %d ran %d times in %d iterations", i, n, iters)
					}
				}
				if got, want := r.Obs().Counter(obs.CReplayCompiled), iters-m.recordings; got != want {
					t.Fatalf("%d compiled iterations, want %d", got, want)
				}
				checkQuiescent(t, r, "after the region")
				if rep := r.Verify(); !rep.OK() {
					t.Fatalf("audit: %v", rep)
				}
			})
		}
	}
}

// TestBatchProducerHandsOverItsP: on one P, a producer that keeps it after
// publishing a chunk discovers thousands of tasks against predecessors
// that are ready and have not run. SubmitBatch yields once per chunk
// instead: the worker drains what is ready, the graph's live count stays
// within a few chunks, and the next chunk materializes no edge to a
// predecessor it finds finished — the graph has drained, so its window
// ends and no constraint on the finished chunk is even attempted. Each
// batch's task i waits on the last one's, so an edge created is a
// predecessor the worker had not run. With a second P the yield returns
// at once and must change nothing.
func TestBatchProducerHandsOverItsP(t *testing.T) {
	const batches = 40
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			r := newRuntime(t, Config{Workers: 1, Opts: graph.OptAll})
			var count [batchChunk]int // count[i] is ordered by key i
			specs := make([]Spec, batchChunk)
			for i := range specs {
				i := i
				specs[i] = Spec{InOut: []graph.Key{graph.Key(i)}, Body: func(any) { count[i]++ }}
			}
			var maxLive int64
			finishes(t, "the batches", func() {
				for b := 0; b < batches; b++ {
					r.SubmitBatch(specs)
					if live := r.Graph().Live(); live > maxLive {
						maxLive = live
					}
				}
				if err := r.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			})
			for i, n := range count {
				if n != batches {
					t.Fatalf("task %d ran %d times, want %d", i, n, batches)
				}
			}
			checkQuiescent(t, r, "after Close")
			if procs != 1 {
				return
			}
			if maxLive > 3*batchChunk {
				t.Fatalf("%d tasks live after a SubmitBatch: the producer ran ahead of the worker", maxLive)
			}
			st := r.Graph().Stats()
			if declared := int64((batches - 1) * batchChunk); 2*st.EdgesCreated >= declared {
				t.Fatalf("%d of %d constraints between batches materialized, want fewer than half", st.EdgesCreated, declared)
			}
			if 2*st.WindowsEnded < batches {
				t.Fatalf("%d windows ended over %d batches, want at least half", st.WindowsEnded, batches)
			}
		})
	}
}

// TestSubmitBatchSharedReadsAllocateNoDeps: a batch hands the graph its
// specs' key lists as they are. 256 specs that share one 120-key In slice
// — one read run — allocate task chunks and the run's entry node's
// successor blocks, and nothing per dependence: no staged copy of a key,
// no per-member compare buffer, not one allocation per member.
func TestSubmitBatchSharedReadsAllocateNoDeps(t *testing.T) {
	const n, m = batchChunk, 120
	rt := newRuntime(t, Config{Workers: 1, Opts: graph.OptAll})
	defer rt.Close()
	in := make([]graph.Key, m)
	for i := range in {
		in[i] = graph.Key(i)
	}
	nop := func(any) {}
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = Spec{In: in, Out: []graph.Key{graph.Key(m + i)}, Body: nop}
	}
	run := func() {
		// The writer keeps the keys' reader lists from growing run by run.
		rt.Submit(Spec{Label: "w", Out: in, Body: nop})
		rt.SubmitBatch(specs)
		if err := rt.Taskwait(); err != nil {
			t.Fatalf("Taskwait: %v", err)
		}
	}
	run() // warm-up: key states, staging buffers, queues
	// The graph carves tasks from chunks of 128 — the writer, n members
	// and the run's two nodes span at most chunks of them — and chains a
	// long successor list in blocks of 15: the entry node's n successors.
	const chunks, blocks = (n+3+127)/128 + 1, (n + 14) / 15
	if allocs := testing.AllocsPerRun(10, run); allocs > chunks+blocks {
		t.Fatalf("SubmitBatch of %d specs sharing %d reads: %.1f allocations, want <= %d task chunks and %d successor blocks",
			n, m, allocs, chunks, blocks)
	}
	if st := rt.Graph().Stats(); st.RedirectNodes == 0 {
		t.Fatalf("no read run formed: %+v", st)
	}
}
