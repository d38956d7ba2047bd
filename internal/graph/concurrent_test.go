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
	g1 := NewWithConfig(Config{Opts: OptAll, OnReady: c1.one})
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
			descs = append(descs, DescOf("t", mkDeps(i)))
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

// TestFlushStripedGroups opens inoutset groups on many keys, and checks
// Flush closes them all so the graph can drain.
func TestFlushStripedGroups(t *testing.T) {
	const groups = 256
	const membersPerGroup = 3
	c := &mpCollector{}
	g := NewWithConfig(Config{Opts: OptAll, OnReady: c.one, OnReadyBatch: c.many})
	for k := 0; k < groups; k++ {
		for m := 0; m < membersPerGroup; m++ {
			g.Submit("member", []Dep{{Key: Key(k), Type: InOutSet}}, nil, nil)
		}
	}

	// Every group is still open: its redirect node holds a producer
	// sentinel, so live = members + redirects and the redirects are not
	// ready yet.
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
	g := NewWithConfig(Config{Opts: OptAll, OnReady: c.one})
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

// TestStatsUnderConcurrentLoad reads Stats continuously while the
// producer and a completer run, checking monotonicity of the cumulative
// counters (the documented mid-flight guarantee).
func TestStatsUnderConcurrentLoad(t *testing.T) {
	const tasks = 4000
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
	wg.Add(1)
	go func() { // the producer
		defer wg.Done()
		for i := 0; i < tasks; i++ {
			g.Submit("t", []Dep{{Key: Key(i % 13), Type: InOut}}, nil, nil)
		}
	}()
	// Complete concurrently with submission from this goroutine.
	done := 0
	for done < tasks {
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
	assertQuiescentStats(t, g, tasks)
}
