package graph

import (
	"sync"
	"testing"
)

// mpCollector is a thread-safe ready sink usable as OnReady/OnReadyBatch.
type mpCollector struct {
	mu    sync.Mutex
	ready []*Task
	batch int // OnReadyBatch invocations
}

func (c *mpCollector) one(t *Task) {
	c.mu.Lock()
	c.ready = append(c.ready, t)
	c.mu.Unlock()
}

func (c *mpCollector) many(ts []*Task) {
	c.mu.Lock()
	c.batch++
	c.ready = append(c.ready, ts...)
	c.mu.Unlock()
}

func (c *mpCollector) pop() *Task {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.ready)
	if n == 0 {
		return nil
	}
	t := c.ready[n-1]
	c.ready = c.ready[:n-1]
	return t
}

// drain completes every discovered task, feeding released successors
// back, until the graph is empty.
func drain(t *testing.T, g *Graph, c *mpCollector) {
	t.Helper()
	for g.Live() > 0 {
		tk := c.pop()
		if tk == nil {
			t.Fatalf("drain stuck: %d live tasks but nothing ready", g.Live())
		}
		for _, s := range g.Complete(tk) {
			c.one(s)
		}
	}
}

// TestConcurrentProducersDisjointKeys drives P producers over disjoint
// key ranges (the supported multi-producer pattern) and checks that
// per-producer chains execute in submission order.
func TestConcurrentProducersDisjointKeys(t *testing.T) {
	const producers = 8
	const perProducer = 2000
	c := &mpCollector{}
	g := NewWithConfig(Config{Opts: OptAll, OnReady: c.one, OnReadyBatch: c.many})

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			base := Key(p * 1000)
			deps := make([]Dep, 0, 3)
			for i := 0; i < perProducer; i++ {
				deps = deps[:0]
				deps = append(deps,
					Dep{Key: base + Key(i%7), Type: InOut},
					Dep{Key: base + Key((i+1)%7), Type: In},
				)
				g.Submit("t", deps, nil, int64(p)<<32|int64(i))
			}
		}(p)
	}
	wg.Wait()

	st := g.Stats()
	if st.Tasks != producers*perProducer {
		t.Fatalf("Stats.Tasks = %d, want %d", st.Tasks, producers*perProducer)
	}
	if got := g.Live(); got != producers*perProducer {
		t.Fatalf("Live = %d, want %d", got, producers*perProducer)
	}

	// Execution order per producer chain must respect submission order:
	// task i+7 InOut-depends on task i (same key), so within one key's
	// chain completion order is forced.
	last := make(map[int64]int64) // producer|key -> last seen i
	for g.Live() > 0 {
		tk := c.pop()
		if tk == nil {
			t.Fatalf("drain stuck with %d live", g.Live())
		}
		fp := tk.FirstPrivate.(int64)
		p, i := fp>>32, fp&0xffffffff
		ck := p<<8 | i%7
		if prev, ok := last[ck]; ok && i < prev {
			t.Fatalf("producer %d key-chain %d ran task %d after %d", p, i%7, i, prev)
		}
		last[ck] = i
		for _, s := range g.Complete(tk) {
			c.one(s)
		}
	}
}

// TestConcurrentSubmitSharedKeys hammers the same small key set from
// many producers with single-dependence tasks (the shared-key pattern
// the contract supports): any shard-lock linearization is valid, but
// counters must balance and the graph must drain. Multi-key dependence
// lists on shared keys are deliberately absent — per-key serialization
// could order two concurrent multi-key submissions oppositely on two
// keys and discover a cycle, which is why the contract forbids them.
func TestConcurrentSubmitSharedKeys(t *testing.T) {
	const producers = 8
	const perProducer = 1500
	c := &mpCollector{}
	g := NewWithConfig(Config{Opts: OptAll, OnReady: c.one})

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			deps := make([]Dep, 0, 1)
			for i := 0; i < perProducer; i++ {
				deps = deps[:0]
				switch i % 3 {
				case 0:
					deps = append(deps, Dep{Key: Key(i % 5), Type: InOut})
				case 1:
					deps = append(deps, Dep{Key: Key(i % 5), Type: In})
				case 2:
					deps = append(deps, Dep{Key: Key(i % 5), Type: Out})
				}
				g.Submit("t", deps, nil, nil)
			}
		}(p)
	}
	wg.Wait()
	drain(t, g, c)
	assertQuiescentStats(t, g, producers*perProducer)
}

// TestConcurrentSubmitBatch runs SubmitBatch from several producers at
// once (disjoint keys) interleaved with Submit from others.
func TestConcurrentSubmitBatch(t *testing.T) {
	const producers = 6
	const batches = 40
	const batchLen = 50
	c := &mpCollector{}
	g := NewWithConfig(Config{Opts: OptAll, OnReady: c.one, OnReadyBatch: c.many})

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			base := Key(p * 100)
			descs := make([]TaskDesc, 0, batchLen)
			depStore := make([]Dep, 0, batchLen*2)
			var tasks []*Task
			for b := 0; b < batches; b++ {
				descs = descs[:0]
				depStore = depStore[:0]
				for i := 0; i < batchLen; i++ {
					j := b*batchLen + i
					start := len(depStore)
					depStore = append(depStore,
						Dep{Key: base + Key(j%11), Type: InOut},
						Dep{Key: base + Key((j+3)%11), Type: In})
					descs = append(descs, TaskDesc{Label: "b", Deps: depStore[start : start+2 : start+2]})
				}
				tasks = g.SubmitBatch(descs, tasks[:0])
				if len(tasks) != batchLen {
					t.Errorf("SubmitBatch returned %d tasks, want %d", len(tasks), batchLen)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	drain(t, g, c)
	assertQuiescentStats(t, g, producers*batches*batchLen)
	if c.batch == 0 {
		t.Fatalf("OnReadyBatch was never used by SubmitBatch")
	}
}

// TestSubmitBatchEquivalence checks that a batch submission discovers
// the same structure as per-task Submit of the same stream.
func TestSubmitBatchEquivalence(t *testing.T) {
	mkDeps := func(i int) []Dep {
		switch i % 4 {
		case 0:
			return []Dep{{Key: Key(i % 9), Type: InOut}}
		case 1:
			return []Dep{{Key: Key(i % 9), Type: In}, {Key: Key((i + 2) % 9), Type: In}}
		case 2:
			return []Dep{{Key: Key(i % 3), Type: InOutSet}}
		default:
			return []Dep{{Key: Key(i % 3), Type: Out}, {Key: Key(i % 9), Type: In}}
		}
	}
	const n = 4000

	c1 := &mpCollector{}
	g1 := New(OptAll, c1.one)
	for i := 0; i < n; i++ {
		g1.Submit("t", mkDeps(i), nil, nil)
	}
	g1.Flush()

	c2 := &mpCollector{}
	g2 := NewWithConfig(Config{Opts: OptAll, OnReady: c2.one, OnReadyBatch: c2.many})
	descs := make([]TaskDesc, 0, 128)
	for lo := 0; lo < n; lo += 128 {
		descs = descs[:0]
		for i := lo; i < lo+128 && i < n; i++ {
			descs = append(descs, TaskDesc{Label: "t", Deps: mkDeps(i)})
		}
		g2.SubmitBatch(descs, nil)
	}
	g2.Flush()

	s1, s2 := g1.Stats(), g2.Stats()
	if s1 != s2 {
		t.Fatalf("stats diverge:\n  Submit:      %+v\n  SubmitBatch: %+v", s1, s2)
	}
	drain(t, g1, c1)
	drain(t, g2, c2)
}

// TestFlushStripedGroups opens inoutset groups on keys spread across
// every shard, concurrently, and checks Flush closes them all so the
// graph can drain.
func TestFlushStripedGroups(t *testing.T) {
	const producers = 4
	const keysPerProducer = 64
	const membersPerGroup = 3
	c := &mpCollector{}
	g := NewWithConfig(Config{Opts: OptAll, OnReady: c.one, OnReadyBatch: c.many})

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := 0; k < keysPerProducer; k++ {
				key := Key(p*keysPerProducer + k)
				for m := 0; m < membersPerGroup; m++ {
					g.Submit("member", []Dep{{Key: key, Type: InOutSet}}, nil, nil)
				}
			}
		}(p)
	}
	wg.Wait()

	// Every group is still open: its redirect node holds a producer
	// sentinel, so live = members + redirects and the redirects are not
	// ready yet.
	groups := producers * keysPerProducer
	members := groups * membersPerGroup
	st := g.Stats()
	if st.RedirectNodes != int64(groups) {
		t.Fatalf("RedirectNodes = %d, want %d", st.RedirectNodes, groups)
	}
	g.Flush()
	drain(t, g, c)
	assertQuiescentStats(t, g, members)

	// Idempotent: a second flush must be a no-op.
	g.Flush()
	if got := g.Live(); got != 0 {
		t.Fatalf("Live after second Flush = %d", got)
	}
}

// TestReplayPoolReuse checks that a persistent replay cycle
// (BeginReplay .. FinishReplay) performs no per-task allocation: task
// objects, successor lists and the recorded sequence are all reused.
func TestReplayPoolReuse(t *testing.T) {
	c := &mpCollector{}
	g := New(OptAll, c.one)
	const n = 500

	g.BeginRecording()
	for i := 0; i < n; i++ {
		deps := []Dep{{Key: Key(i % 16), Type: InOut}}
		if i%5 == 0 {
			deps = append(deps, Dep{Key: Key(16 + i%4), Type: InOutSet})
		}
		g.Submit("t", deps, nil, i)
	}
	g.Flush()
	g.EndRecording()
	drain(t, g, c)

	relBuf := make([]*Task, 0, 16)
	replayOnce := func() {
		if err := g.BeginReplay(); err != nil {
			t.Fatal(err)
		}
		for _, tk := range g.Recorded() {
			if !tk.Redirect {
				g.Replay(tk.FirstPrivate, nil, nil, nil)
			}
		}
		if err := g.FinishReplay(); err != nil {
			t.Fatal(err)
		}
		for g.Live() > 0 {
			tk := c.pop()
			if tk == nil {
				t.Fatal("replay drain stuck")
			}
			rel := g.CompleteInto(tk, relBuf)
			for _, s := range rel {
				c.one(s)
			}
		}
	}
	replayOnce() // warm up mpCollector capacity

	allocs := testing.AllocsPerRun(10, replayOnce)
	// The whole iteration (recorded tasks + redirects + drain) must not
	// allocate proportionally to n; allow a small constant slack.
	if allocs > 8 {
		t.Fatalf("replay iteration allocated %.1f times (want ~0 for %d tasks)", allocs, g.RecordedLen())
	}
	g.EndPersistent()
}

// assertQuiescentStats checks the documented quiescent-point guarantees
// of Stats/Live/ReadyCount after a full drain.
func assertQuiescentStats(t *testing.T, g *Graph, wantNonRedirect int) {
	t.Helper()
	st := g.Stats()
	if st.Tasks != int64(wantNonRedirect)+st.RedirectNodes {
		t.Fatalf("Tasks = %d, want %d + %d redirects", st.Tasks, wantNonRedirect, st.RedirectNodes)
	}
	if st.EdgesAttempted != st.EdgesCreated+st.EdgesPruned+st.EdgesDuplicate {
		t.Fatalf("edge counters unbalanced: attempted %d != created %d + pruned %d + dup %d",
			st.EdgesAttempted, st.EdgesCreated, st.EdgesPruned, st.EdgesDuplicate)
	}
	if live := g.Live(); live != 0 {
		t.Fatalf("Live = %d at quiescence", live)
	}
	if rdy := g.ReadyCount(); rdy != 0 {
		t.Fatalf("ReadyCount = %d at quiescence", rdy)
	}
}

// TestStatsUnderConcurrentLoad reads Stats/Live/ReadyCount continuously
// while producers and completers run, checking monotonicity of the
// cumulative counters (the documented mid-flight guarantee).
func TestStatsUnderConcurrentLoad(t *testing.T) {
	const producers = 4
	const perProducer = 1000
	c := &mpCollector{}
	g := NewWithConfig(Config{Opts: OptAll, OnReady: c.one})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // concurrent Stats reader
		defer wg.Done()
		var prev Stats
		for {
			st := g.Stats()
			if st.Tasks < prev.Tasks || st.EdgesAttempted < prev.EdgesAttempted ||
				st.EdgesCreated < prev.EdgesCreated || st.EdgesDuplicate < prev.EdgesDuplicate {
				t.Errorf("counters went backwards: %+v -> %+v", prev, st)
				return
			}
			prev = st
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			base := Key(p * 50)
			for i := 0; i < perProducer; i++ {
				g.Submit("t", []Dep{{Key: base + Key(i%13), Type: InOut}}, nil, nil)
			}
		}(p)
	}
	// Complete concurrently with submission from this goroutine.
	done := 0
	for done < producers*perProducer {
		tk := c.pop()
		if tk == nil {
			continue
		}
		for _, s := range g.Complete(tk) {
			c.one(s)
		}
		done++
	}
	close(stop)
	wg.Wait()
	assertQuiescentStats(t, g, producers*perProducer)
}
