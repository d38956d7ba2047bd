package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// collector is a trivial executor: it records ready tasks in order and can
// drain them (completing each) until quiescence.
type collector struct {
	mu    sync.Mutex
	ready []*Task
	order []int64
}

func (c *collector) onReady(t *Task) {
	c.mu.Lock()
	c.ready = append(c.ready, t)
	c.order = append(c.order, t.ID)
	c.mu.Unlock()
}

func (c *collector) pop() *Task {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.ready) == 0 {
		return nil
	}
	t := c.ready[0]
	c.ready = c.ready[1:]
	return t
}

// complete finishes t and feeds released successors back into the ready
// queue, as a real executor would.
func (c *collector) complete(g *Graph, t *Task) {
	for _, s := range g.Complete(t) {
		c.onReady(s)
	}
}

// drain completes every ready task (and those they release) in FIFO
// order, returning the completion order of IDs.
func (c *collector) drain(g *Graph) []int64 {
	var done []int64
	for {
		t := c.pop()
		if t == nil {
			return done
		}
		g.Start(t)
		c.complete(g, t)
		done = append(done, t.ID)
	}
}

func newTestGraph(opts Opt) (*Graph, *collector) {
	c := &collector{}
	return NewWithConfig(Config{Opts: opts, OnReady: c.onReady}), c
}

func TestSubmitNoDepsIsImmediatelyReady(t *testing.T) {
	g, c := newTestGraph(0)
	tk := g.Submit("a", nil, nil, nil)
	if tk.State() != Ready {
		t.Fatalf("state = %v, want Ready", tk.State())
	}
	if len(c.ready) != 1 || c.ready[0] != tk {
		t.Fatalf("ready queue = %v", c.ready)
	}
}

func TestReadAfterWriteDependence(t *testing.T) {
	g, c := newTestGraph(0)
	w := g.Submit("w", []Dep{{1, Out}}, nil, nil)
	r := g.Submit("r", []Dep{{1, In}}, nil, nil)
	if w.State() != Ready {
		t.Fatalf("writer not ready")
	}
	if r.State() != Created {
		t.Fatalf("reader state = %v, want Created", r.State())
	}
	g.Complete(w)
	if r.State() != Ready {
		t.Fatalf("reader not released by writer completion")
	}
	_ = c
}

func TestWriteAfterReadDependsOnAllReaders(t *testing.T) {
	g, _ := newTestGraph(0)
	w0 := g.Submit("w0", []Dep{{1, Out}}, nil, nil)
	g.Complete(w0)
	var readers []*Task
	for i := 0; i < 4; i++ {
		readers = append(readers, g.Submit(fmt.Sprintf("r%d", i), []Dep{{1, In}}, nil, nil))
	}
	w := g.Submit("w", []Dep{{1, Out}}, nil, nil)
	if w.State() != Created {
		t.Fatalf("writer should wait on readers")
	}
	for i, r := range readers {
		g.Complete(r)
		if i < len(readers)-1 && w.State() == Ready {
			t.Fatalf("writer released after only %d readers", i+1)
		}
	}
	if w.State() != Ready {
		t.Fatalf("writer not released after all readers")
	}
}

func TestInOutBehavesLikeOut(t *testing.T) {
	g, _ := newTestGraph(0)
	a := g.Submit("a", []Dep{{1, InOut}}, nil, nil)
	b := g.Submit("b", []Dep{{1, InOut}}, nil, nil)
	if b.State() != Created {
		t.Fatalf("second inout should depend on first")
	}
	g.Complete(a)
	if b.State() != Ready {
		t.Fatalf("second inout not released")
	}
}

func TestEdgePruningToCompletedPredecessor(t *testing.T) {
	g, _ := newTestGraph(0)
	w := g.Submit("w", []Dep{{1, Out}}, nil, nil)
	g.Complete(w)
	r := g.Submit("r", []Dep{{1, In}}, nil, nil)
	if r.State() != Ready {
		t.Fatalf("reader should be immediately ready (pruned edge)")
	}
	st := g.Stats()
	if st.EdgesPruned != 1 || st.EdgesCreated != 0 {
		t.Fatalf("stats = %+v, want 1 pruned, 0 created", st)
	}
}

func TestDuplicateEdgeEliminationOptB(t *testing.T) {
	// Task w writes x and y; task r reads x and y: two attempted edges,
	// one duplicate with OptDedup.
	for _, opts := range []Opt{0, OptDedup} {
		g, _ := newTestGraph(opts)
		w := g.Submit("w", []Dep{{1, Out}, {2, Out}}, nil, nil)
		r := g.Submit("r", []Dep{{1, In}, {2, In}}, nil, nil)
		st := g.Stats()
		if st.EdgesAttempted != 2 {
			t.Fatalf("opts=%v attempted=%d, want 2", opts, st.EdgesAttempted)
		}
		wantCreated, wantDup := int64(2), int64(0)
		if opts&OptDedup != 0 {
			wantCreated, wantDup = 1, 1
		}
		if st.EdgesCreated != wantCreated || st.EdgesDuplicate != wantDup {
			t.Fatalf("opts=%v stats=%+v", opts, st)
		}
		g.Complete(w)
		if r.State() != Ready {
			t.Fatalf("opts=%v reader not released", opts)
		}
	}
}

func TestInOutSetMembersRunConcurrently(t *testing.T) {
	g, _ := newTestGraph(0)
	var members []*Task
	for i := 0; i < 5; i++ {
		members = append(members, g.Submit(fmt.Sprintf("x%d", i), []Dep{{1, InOutSet}}, nil, nil))
	}
	for _, m := range members {
		if m.State() != Ready {
			t.Fatalf("inoutset member %s not concurrent: %v", m.Label, m.State())
		}
	}
	// A reader depends on every member.
	r := g.Submit("r", []Dep{{1, In}}, nil, nil)
	for i, m := range members {
		g.Complete(m)
		if i < len(members)-1 && r.State() == Ready {
			t.Fatalf("reader released before all members (after %d)", i+1)
		}
	}
	if r.State() != Ready {
		t.Fatalf("reader not released")
	}
}

// TestInOutSetEdgeCounts verifies the m*n vs m+n identity of
// optimization (c).
func TestInOutSetEdgeCounts(t *testing.T) {
	const m, n = 7, 5
	run := func(opts Opt) (Stats, []*Task, *Graph) {
		g, _ := newTestGraph(opts)
		// Writer first so the set has a base dependence to prune later
		// (completed, so pruned; keeps counts clean).
		for i := 0; i < m; i++ {
			g.Submit("x", []Dep{{1, InOutSet}}, nil, nil)
		}
		var ys []*Task
		for j := 0; j < n; j++ {
			ys = append(ys, g.Submit("y", []Dep{{1, In}}, nil, nil))
		}
		return g.Stats(), ys, g
	}

	stNone, _, _ := run(0)
	if stNone.EdgesCreated != m*n {
		t.Fatalf("without opt c: created=%d, want %d", stNone.EdgesCreated, m*n)
	}
	stC, ys, g := run(OptInOutSetNode)
	// m member->redirect edges, n redirect->reader edges... but only the
	// first reader closes the group; subsequent readers depend on the
	// redirect node directly: still m + n total.
	if stC.EdgesCreated != m+n {
		t.Fatalf("with opt c: created=%d, want %d", stC.EdgesCreated, m+n)
	}
	if stC.RedirectNodes != 1 {
		t.Fatalf("redirect nodes = %d, want 1", stC.RedirectNodes)
	}
	// Completing the redirect node (once ready) must release readers.
	for _, y := range ys {
		if y.State() == Ready {
			t.Fatalf("reader ready before members complete")
		}
	}
	_ = g
}

func TestInOutSetRedirectDrains(t *testing.T) {
	g, c := newTestGraph(OptInOutSetNode)
	for i := 0; i < 3; i++ {
		g.Submit("x", []Dep{{1, InOutSet}}, nil, nil)
	}
	r := g.Submit("r", []Dep{{1, In}}, nil, nil)
	done := c.drain(g)
	if r.State() != Completed {
		t.Fatalf("reader not completed; drain order %v", done)
	}
	// 3 members + redirect + reader
	if len(done) != 5 {
		t.Fatalf("completed %d tasks, want 5", len(done))
	}
}

func TestInOutSetGroupFollowedByWriter(t *testing.T) {
	g, c := newTestGraph(OptInOutSetNode)
	for i := 0; i < 3; i++ {
		g.Submit("x", []Dep{{1, InOutSet}}, nil, nil)
	}
	w := g.Submit("w", []Dep{{1, Out}}, nil, nil)
	r := g.Submit("r", []Dep{{1, In}}, nil, nil)
	if w.State() == Ready {
		t.Fatalf("writer ready before group completes")
	}
	c.drain(g)
	if w.State() != Completed || r.State() != Completed {
		t.Fatalf("w=%v r=%v", w.State(), r.State())
	}
}

func TestInOutSetBaseDependences(t *testing.T) {
	// Members of a set must wait for the preceding writer.
	g, c := newTestGraph(OptInOutSetNode)
	w := g.Submit("w", []Dep{{1, Out}}, nil, nil)
	m0 := g.Submit("x0", []Dep{{1, InOutSet}}, nil, nil)
	m1 := g.Submit("x1", []Dep{{1, InOutSet}}, nil, nil)
	if m0.State() == Ready || m1.State() == Ready {
		t.Fatalf("members ready before base writer completed")
	}
	g.Complete(w)
	if m0.State() != Ready || m1.State() != Ready {
		t.Fatalf("members not released together: %v %v", m0.State(), m1.State())
	}
	_ = c
}

func TestFlushReleasesOpenGroupRedirect(t *testing.T) {
	g, c := newTestGraph(OptInOutSetNode)
	g.Submit("x0", []Dep{{1, InOutSet}}, nil, nil)
	g.Submit("x1", []Dep{{1, InOutSet}}, nil, nil)
	// No consumer ever arrives; without Flush the redirect node would
	// leak (live count never reaches zero).
	c.drain(g)
	if g.Live() != 1 {
		t.Fatalf("live = %d, want 1 (redirect pending)", g.Live())
	}
	g.Flush()
	c.drain(g)
	if g.Live() != 0 {
		t.Fatalf("live = %d after flush, want 0", g.Live())
	}
}

func TestLiveAndReadyCounters(t *testing.T) {
	g, c := newTestGraph(0)
	a := g.Submit("a", []Dep{{1, Out}}, nil, nil)
	b := g.Submit("b", []Dep{{1, In}}, nil, nil)
	if g.Live() != 2 || g.ReadyCount() != 1 {
		t.Fatalf("live=%d ready=%d", g.Live(), g.ReadyCount())
	}
	g.Complete(a)
	if g.Live() != 1 || g.ReadyCount() != 1 {
		t.Fatalf("after complete(a): live=%d ready=%d", g.Live(), g.ReadyCount())
	}
	g.Complete(b)
	if g.Live() != 0 || g.ReadyCount() != 0 {
		t.Fatalf("after complete(b): live=%d ready=%d", g.Live(), g.ReadyCount())
	}
	_ = c
}

// --- persistence ---

// buildChain submits a linear chain of n tasks on one key inside the
// current mode of g.
func buildChain(g *Graph, n int) []*Task {
	var ts []*Task
	for i := 0; i < n; i++ {
		ts = append(ts, g.Submit(fmt.Sprintf("t%d", i), []Dep{{1, InOut}}, nil, i))
	}
	return ts
}

func TestPersistentRecordAndReplay(t *testing.T) {
	g, c := newTestGraph(OptAll)
	g.BeginRecording()
	ts := buildChain(g, 4)
	g.Flush()
	g.EndRecording()

	order0 := c.drain(g)
	if len(order0) != 4 {
		t.Fatalf("iteration 0 completed %d, want 4", len(order0))
	}
	for iter := 1; iter <= 3; iter++ {
		if err := g.BeginReplay(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for i := 0; i < 4; i++ {
			tk := g.Replay(iter*10+i, nil, nil, nil)
			if tk != ts[i] {
				t.Fatalf("replay returned wrong task instance")
			}
			if tk.FirstPrivate.(int) != iter*10+i {
				t.Fatalf("firstprivate not updated")
			}
		}
		if err := g.FinishReplay(); err != nil {
			t.Fatalf("iter %d finish: %v", iter, err)
		}
		order := c.drain(g)
		if len(order) != 4 {
			t.Fatalf("iter %d completed %d, want 4", iter, len(order))
		}
		// Chain order must be preserved on every iteration.
		for i := 1; i < len(order); i++ {
			if order[i] < order[i-1] {
				t.Fatalf("iter %d out-of-order completions %v", iter, order)
			}
		}
	}
	st := g.Stats()
	if st.ReplayedTasks != 12 {
		t.Fatalf("replayed = %d, want 12", st.ReplayedTasks)
	}
}

func TestPersistentCreatesAllEdgesNoPruning(t *testing.T) {
	// In a throttled/overlapped run, edges to completed predecessors are
	// pruned — but not while recording, since replays rely on them.
	g, c := newTestGraph(0)
	g.BeginRecording()
	a := g.Submit("a", []Dep{{1, Out}}, nil, nil)
	c.drain(g) // a completes before b is discovered
	b := g.Submit("b", []Dep{{1, In}}, nil, nil)
	if b.State() != Ready {
		t.Fatalf("b should be ready (pred completed)")
	}
	st := g.Stats()
	if st.EdgesPruned != 0 || st.EdgesCreated != 1 {
		t.Fatalf("stats = %+v; recording must not prune", st)
	}
	g.EndRecording()
	c.drain(g)

	// On replay, the a->b edge must enforce order.
	if err := g.BeginReplay(); err != nil {
		t.Fatal(err)
	}
	g.Replay(nil, nil, nil, nil) // a
	ra := c.pop()
	if ra != a {
		t.Fatalf("expected a ready first")
	}
	g.Replay(nil, nil, nil, nil) // b
	if b.State() == Ready {
		t.Fatalf("b ready before a completed on replay")
	}
	if err := g.FinishReplay(); err != nil {
		t.Fatal(err)
	}
	g.Start(ra)
	c.complete(g, ra)
	if b.State() != Ready {
		t.Fatalf("b not released on replay")
	}
	c.complete(g, c.pop())
}

func TestReplayBeforeCompletionFails(t *testing.T) {
	g, _ := newTestGraph(0)
	g.BeginRecording()
	buildChain(g, 2)
	g.EndRecording()
	if err := g.BeginReplay(); err == nil {
		t.Fatalf("BeginReplay must fail while tasks are pending")
	}
}

func TestReplayWithRedirectNodes(t *testing.T) {
	g, c := newTestGraph(OptInOutSetNode)
	g.BeginRecording()
	for i := 0; i < 3; i++ {
		g.Submit("x", []Dep{{1, InOutSet}}, nil, nil)
	}
	r := g.Submit("r", []Dep{{1, In}}, nil, nil)
	g.Flush()
	g.EndRecording()
	c.drain(g)
	if r.State() != Completed {
		t.Fatalf("iteration 0 incomplete")
	}

	for iter := 0; iter < 2; iter++ {
		if err := g.BeginReplay(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ { // 3 members + reader (redirect skipped)
			g.Replay(nil, nil, nil, nil)
		}
		if err := g.FinishReplay(); err != nil {
			t.Fatal(err)
		}
		done := c.drain(g)
		if len(done) != 5 {
			t.Fatalf("iter %d drained %d, want 5", iter, len(done))
		}
		if r.State() != Completed {
			t.Fatalf("reader incomplete on replay")
		}
	}
}

func TestNestedRecordingPanics(t *testing.T) {
	g, _ := newTestGraph(0)
	g.BeginRecording()
	defer func() {
		if recover() == nil {
			t.Fatalf("nested BeginRecording did not panic")
		}
	}()
	g.BeginRecording()
}

// --- concurrency ---

// TestConcurrentCompletion hammers Complete from many goroutines on a
// wide fan-in/fan-out graph and checks no wake-up is lost. Run with -race.
func TestConcurrentCompletion(t *testing.T) {
	const width, layers = 64, 8
	var mu sync.Mutex
	ready := make([]*Task, 0, width*layers)
	g := NewWithConfig(Config{Opts: OptAll, OnReady: func(tk *Task) {
		mu.Lock()
		ready = append(ready, tk)
		mu.Unlock()
	}})
	// Layered graph: layer k tasks write key k reading key k-1 via a
	// shared reduction key to create fan-in.
	for l := 0; l < layers; l++ {
		for i := 0; i < width; i++ {
			deps := []Dep{{Key(1000*l + i), Out}}
			if l > 0 {
				deps = append(deps, Dep{Key(1000*(l-1) + i), In}, Dep{Key(999999), InOutSet})
			}
			g.Submit(fmt.Sprintf("t%d.%d", l, i), deps, nil, nil)
		}
	}
	g.Flush()

	var wg sync.WaitGroup
	var completed atomic.Int64
	total := g.Stats().Tasks
	work := func() {
		defer wg.Done()
		for {
			mu.Lock()
			if len(ready) == 0 {
				mu.Unlock()
				if completed.Load() >= total {
					return
				}
				runtime.Gosched()
				continue
			}
			tk := ready[len(ready)-1]
			ready = ready[:len(ready)-1]
			mu.Unlock()
			g.Start(tk)
			for _, r := range g.Complete(tk) {
				mu.Lock()
				ready = append(ready, r)
				mu.Unlock()
			}
			completed.Add(1)
		}
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go work()
	}
	wg.Wait()
	if g.Live() != 0 {
		t.Fatalf("live = %d after drain", g.Live())
	}
	if completed.Load() != total {
		t.Fatalf("completed %d of %d", completed.Load(), total)
	}
}

// --- property-based tests ---

// TestPropertyCompletionRespectsProgramOrderPerKey: for a random stream
// of single-key accesses, completions must respect the serializability
// rules: a writer never completes before all earlier accesses, and a
// reader never completes before the last earlier writer.
func TestPropertyCompletionRespectsProgramOrderPerKey(t *testing.T) {
	f := func(seed int64, nOps uint8, optBits uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nOps%40) + 2
		opts := Opt(optBits) & OptAll
		c := &collector{}
		g := NewWithConfig(Config{Opts: opts, OnReady: c.onReady})
		types := make([]DepType, n)
		tasks := make([]*Task, n)
		for i := 0; i < n; i++ {
			types[i] = DepType(rng.Intn(4))
			tasks[i] = g.Submit(fmt.Sprintf("%d", i), []Dep{{1, types[i]}}, nil, nil)
		}
		g.Flush()
		// Complete in random-ready order.
		completedAt := make(map[int64]int)
		step := 0
		for {
			c.mu.Lock()
			if len(c.ready) == 0 {
				c.mu.Unlock()
				break
			}
			k := rng.Intn(len(c.ready))
			tk := c.ready[k]
			c.ready = append(c.ready[:k], c.ready[k+1:]...)
			c.mu.Unlock()
			c.complete(g, tk)
			completedAt[tk.ID] = step
			step++
		}
		if g.Live() != 0 {
			return false
		}
		// Check pairwise ordering constraints implied by OpenMP rules.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				ti, tj := types[i], types[j]
				conflict := false
				switch {
				case ti == In && tj == In:
				case ti == InOutSet && tj == InOutSet:
					// concurrent only if no non-inoutset access
					// in between
					conflict = false
					for k := i + 1; k < j; k++ {
						if types[k] != InOutSet {
							conflict = true
							break
						}
					}
				default:
					conflict = true
				}
				if conflict && !(ti == In && tj == In) {
					if completedAt[tasks[i].ID] > completedAt[tasks[j].ID] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEdgeIdentityInOutSet checks created(m,n) is m*n without (c)
// and m+n with (c), for random m, n >= 1.
func TestPropertyEdgeIdentityInOutSet(t *testing.T) {
	f := func(mRaw, nRaw uint8) bool {
		m := int(mRaw%9) + 1
		n := int(nRaw%9) + 1
		count := func(opts Opt) int64 {
			g, _ := newTestGraph(opts)
			for i := 0; i < m; i++ {
				g.Submit("x", []Dep{{7, InOutSet}}, nil, nil)
			}
			for j := 0; j < n; j++ {
				g.Submit("y", []Dep{{7, In}}, nil, nil)
			}
			return g.Stats().EdgesCreated
		}
		return count(0) == int64(m*n) && count(OptInOutSetNode) == int64(m+n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyReplayEquivalence: a random multi-key program replayed
// persistently completes the same multiset of tasks on every iteration
// with the same precedence relations (checked via per-key completion
// ordering).
func TestPropertyReplayEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 5
		nKeys := rng.Intn(4) + 1
		type op struct {
			key Key
			typ DepType
		}
		prog := make([]op, n)
		for i := range prog {
			prog[i] = op{Key(rng.Intn(nKeys)), DepType(rng.Intn(4))}
		}
		c := &collector{}
		g := NewWithConfig(Config{Opts: OptAll, OnReady: c.onReady})
		g.BeginRecording()
		for i, o := range prog {
			g.Submit(fmt.Sprintf("%d", i), []Dep{{o.key, o.typ}}, nil, i)
		}
		g.Flush()
		g.EndRecording()
		base := len(c.drain(g))
		if g.Live() != 0 {
			return false
		}
		for iter := 0; iter < 3; iter++ {
			if err := g.BeginReplay(); err != nil {
				return false
			}
			for i := range prog {
				g.Replay(i, nil, nil, nil)
			}
			if err := g.FinishReplay(); err != nil {
				return false
			}
			if got := len(c.drain(g)); got != base {
				return false
			}
			if g.Live() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSubmitChain(b *testing.B) {
	g := NewWithConfig(Config{Opts: OptAll, OnReady: func(*Task) {}})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Submit("t", []Dep{{1, InOut}}, nil, nil)
	}
}

func BenchmarkPersistentReplay(b *testing.B) {
	c := &collector{}
	g := NewWithConfig(Config{Opts: OptAll, OnReady: c.onReady})
	g.BeginRecording()
	const chain = 1024
	buildChain(g, chain)
	g.Flush()
	g.EndRecording()
	c.drain(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.BeginReplay(); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < chain; j++ {
			g.Replay(j, nil, nil, nil)
		}
		if err := g.FinishReplay(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.drain(g)
		b.StartTimer()
	}
}
