package graph_test

// Stress and regression tests for the discovery protocols: the lock-free
// prune of finished predecessors, the zero-based release counter, the
// discovery lock against concurrent completers and Stats readers, and the
// chained successor blocks. Everything
// here is meant to run under -race; the package is external so that the
// verifier and the critical-path oracle (which import graph) can audit
// what was discovered.

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taskdep/internal/cpath"
	"taskdep/internal/graph"
	"taskdep/internal/verify"
)

// executor is a ready sink plus the bookkeeping the assertions need: how
// often each task was handed over as ready, and a logical clock stamped
// when a task starts and just before it completes.
type executor struct {
	mu         sync.Mutex
	queue      []*graph.Task
	readied    map[*graph.Task]int
	start, end map[*graph.Task]int64
	clock      int64
}

func newExecutor() *executor {
	return &executor{
		readied: make(map[*graph.Task]int),
		start:   make(map[*graph.Task]int64),
		end:     make(map[*graph.Task]int64),
	}
}

func (e *executor) one(t *graph.Task) { e.many([]*graph.Task{t}) }

func (e *executor) many(ts []*graph.Task) {
	e.mu.Lock()
	for _, t := range ts {
		e.readied[t]++
	}
	e.queue = append(e.queue, ts...)
	e.mu.Unlock()
}

// pop takes a ready task and stamps its start; nil when none is queued.
func (e *executor) pop() *graph.Task {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := len(e.queue)
	if n == 0 {
		return nil
	}
	// Alternate ends so neither FIFO nor LIFO order is baked in.
	i := n - 1
	if e.clock&1 == 0 {
		i = 0
	}
	t := e.queue[i]
	e.queue[i] = e.queue[n-1]
	e.queue = e.queue[:n-1]
	e.clock++
	e.start[t] = e.clock
	return t
}

func (e *executor) stampEnd(t *graph.Task) {
	e.mu.Lock()
	e.clock++
	e.end[t] = e.clock
	e.mu.Unlock()
}

// complete runs tasks until discovery is over and the graph is empty.
func (e *executor) complete(g *graph.Graph, discovered *atomic.Bool) {
	var buf []*graph.Task
	for {
		t := e.pop()
		if t == nil {
			if discovered.Load() && g.Live() == 0 {
				return
			}
			runtime.Gosched()
			continue
		}
		g.Start(t)
		e.stampEnd(t)
		buf = g.CompleteInto(t, buf)
		e.many(buf)
	}
}

// drain completes everything ready on the calling goroutine.
func (e *executor) drain(g *graph.Graph) {
	done := new(atomic.Bool)
	done.Store(true)
	e.complete(g, done)
}

// check asserts the quiescent invariants: gauges at zero, the edge
// counters balanced, every task readied exactly once, and every recorded
// edge respected by the order tasks actually ran in.
func (e *executor) check(t *testing.T, g *graph.Graph) graph.Stats {
	t.Helper()
	if l, r := g.Live(), g.ReadyCount(); l != 0 || r != 0 {
		t.Fatalf("gauges at quiescence: live %d ready %d, want 0 0", l, r)
	}
	st := g.Stats()
	if st.EdgesAttempted != st.EdgesCreated+st.EdgesPruned+st.EdgesDuplicate {
		t.Fatalf("edge counters do not balance: %+v", st)
	}
	if int64(len(e.readied)) != st.Tasks {
		t.Fatalf("%d tasks became ready, %d were discovered", len(e.readied), st.Tasks)
	}
	for tk, n := range e.readied {
		if n != 1 {
			t.Fatalf("task %d (%s) became ready %d times", tk.ID, tk.Label, n)
		}
		for _, s := range tk.Successors() {
			if e.end[tk] >= e.start[s] {
				t.Fatalf("task %d (%s) started at %d, before its predecessor %d (%s) finished at %d",
					s.ID, s.Label, e.start[s], tk.ID, tk.Label, e.end[tk])
			}
		}
	}
	return st
}

// within fails the test if f has not returned after d: a deadlock (locks
// taken out of order, a task never released) must not hang CI.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		buf := make([]byte, 1<<16)
		t.Fatalf("no progress after %v; goroutines:\n%s", d, buf[:runtime.Stack(buf, true)])
	}
}

// genTDG generates a random dependence stream over keys base..: ordinary
// tasks with 1-4 distinct keys of mixed access types, inoutset groups,
// fan bursts — one writer, up to 200 readers of it, and one collector
// reading what each of them wrote (fan-out and fan-in of the same width)
// — and read runs: up to 24 tasks in a row reading the same 4-9 keys,
// between the keys' writers, now and then one of them writing a shared
// key as well (which a batch must not take into the run), their In lists
// one shared slice in half the runs and a copy each in the other half.
func genTDG(rng *rand.Rand, base graph.Key, n int) []graph.TaskDesc {
	const shared = 16
	types := []graph.DepType{graph.In, graph.In, graph.In, graph.Out, graph.InOut, graph.InOutSet, graph.InOutSet}
	next := base + shared // private keys of burst readers
	descs := make([]graph.TaskDesc, 0, n)
	add := func(label string, deps ...graph.Dep) {
		descs = append(descs, graph.DescOf(label, deps))
	}
	for len(descs) < n {
		switch p := rng.Intn(100); {
		case p < 2: // fan burst
			hub := base + graph.Key(rng.Intn(shared))
			width := 50 + rng.Intn(151)
			add("hub", graph.Dep{Key: hub, Type: graph.Out})
			collect := make([]graph.Dep, 0, width)
			for i := 0; i < width; i++ {
				add("leaf", graph.Dep{Key: hub, Type: graph.In}, graph.Dep{Key: next, Type: graph.Out})
				collect = append(collect, graph.Dep{Key: next, Type: graph.In})
				next++
			}
			add("collect", collect...)
		case p < 8: // inoutset group and its consumer
			k := base + graph.Key(rng.Intn(shared))
			for i, m := 0, 2+rng.Intn(19); i < m; i++ {
				add("member", graph.Dep{Key: k, Type: graph.InOutSet})
			}
			add("consumer", graph.Dep{Key: k, Type: graph.In})
		case p < 16: // read run between the writers of its keys
			keys := rng.Perm(shared)[:4+rng.Intn(6)]
			reads := make([]graph.Dep, len(keys))
			for i, k := range keys {
				reads[i] = graph.Dep{Key: base + graph.Key(k), Type: graph.In}
				if rng.Intn(4) != 0 {
					add("writer", graph.Dep{Key: reads[i].Key, Type: graph.Out})
				}
			}
			width := 2 + rng.Intn(23)
			cut := rng.Intn(2 * width) // the member that writes a shared key, if there is one
			share := rng.Intn(2) == 0  // the members' In lists are one slice, or a copy each
			first := len(descs)
			for i := 0; i < width; i++ {
				deps := append(append([]graph.Dep(nil), reads...), graph.Dep{Key: next, Type: graph.Out})
				next++
				if i == cut {
					deps = append(deps, graph.Dep{Key: reads[rng.Intn(len(reads))].Key, Type: types[3+rng.Intn(4)]})
				}
				add("reader", deps...)
				if share {
					descs[len(descs)-1].In = descs[first].In
				}
			}
			add("rewriter", graph.Dep{Key: reads[0].Key, Type: graph.InOut}, graph.Dep{Key: reads[1].Key, Type: graph.Out})
		default:
			perm := rng.Perm(shared)[:1+rng.Intn(4)]
			deps := make([]graph.Dep, len(perm))
			for i, k := range perm {
				deps[i] = graph.Dep{Key: base + graph.Key(k), Type: types[rng.Intn(len(types))]}
			}
			add("task", deps...)
		}
	}
	return descs
}

// submitMixed discovers descs through SubmitBatch calls of several
// sizes, one among them, returning the tasks in submission order.
func submitMixed(g *graph.Graph, descs []graph.TaskDesc) []*graph.Task {
	sizes := []int{1, 3, 64, 1, 257, 16}
	tasks := make([]*graph.Task, 0, len(descs))
	for i, lo := 0, 0; lo < len(descs); i++ {
		hi := lo + sizes[i%len(sizes)]
		if hi > len(descs) {
			hi = len(descs)
		}
		tasks = g.SubmitBatch(descs[lo:hi], tasks)
		lo = hi
	}
	return tasks
}

// TestStressDiscoveryWhileCompleting discovers generated TDGs while 1-4
// goroutines complete tasks as fast as they become ready, so that
// finishes race every stage of a successor's discovery: before the edge
// (prune), between edge and release (the counter goes below zero, where
// no finisher can ready the task), and after.
func TestStressDiscoveryWhileCompleting(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		opts := graph.OptAll
		if seed%2 == 0 {
			opts |= graph.OptKeepPrunedEdges
		}
		completers := 1 + int(seed)%4
		t.Run(fmt.Sprintf("seed%d/completers%d/opts%d", seed, completers, opts), func(t *testing.T) {
			e := newExecutor()
			g := graph.NewWithConfig(graph.Config{Opts: opts, OnReady: e.one, OnReadyBatch: e.many})
			descs := genTDG(rand.New(rand.NewSource(seed)), 0, 2500)
			var tasks []*graph.Task
			within(t, time.Minute, func() {
				var discovered atomic.Bool
				var wg sync.WaitGroup
				for i := 0; i < completers; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						e.complete(g, &discovered)
					}()
				}
				tasks = submitMixed(g, descs)
				g.Flush()
				discovered.Store(true)
				wg.Wait()
			})
			st := e.check(t, g)
			if want := int64(len(descs)) + st.RedirectNodes; st.Tasks != want {
				t.Fatalf("Stats.Tasks = %d, want %d", st.Tasks, want)
			}
			if opts&graph.OptKeepPrunedEdges == 0 {
				return
			}
			if st.EdgesPruned != 0 {
				t.Fatalf("%d edges pruned under OptKeepPrunedEdges", st.EdgesPruned)
			}
			infos := make([]verify.TaskInfo, len(tasks))
			for i, tk := range tasks {
				infos[i] = verify.TaskInfo{Task: tk, Deps: graph.DepsOf(descs[i])}
			}
			if rep := verify.Audit(infos, opts, g.RedirectNodes()); !rep.OK() || rep.Truncated {
				t.Fatalf("audit of the discovered graph:\n%v", rep)
			}
		})
	}
}

// TestStressReadRunsKeepTheDeclaredOrder is the read runs' oracle: the
// same stream discovered in batches, where runs form, and task by task,
// where they cannot, must order the same pairs of tasks — every pair, not
// only the conflicting ones the audit looks at: a run may add no ordering
// either. Nothing completes, so nothing is pruned and the comparison is
// exact. The batches must also have had something to group.
func TestStressReadRunsKeepTheDeclaredOrder(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		descs := genTDG(rand.New(rand.NewSource(seed)), 0, 1000)
		discover := func(batched bool) ([]*graph.Task, graph.Stats) {
			g := graph.NewWithConfig(graph.Config{Opts: graph.OptAll, OnReady: func(*graph.Task) {}})
			var tasks []*graph.Task
			if batched {
				tasks = submitMixed(g, descs)
			} else {
				for i := range descs {
					tasks = g.SubmitBatch(descs[i:i+1], tasks)
				}
			}
			g.Flush()
			return tasks, g.Stats()
		}
		// order[i] has bit j set when task i precedes task j, redirect nodes
		// followed through and left out.
		order := func(tasks []*graph.Task) [][]uint64 {
			index := make(map[*graph.Task]int, len(tasks))
			for i, tk := range tasks {
				index[tk] = i
			}
			words := (len(tasks) + 63) / 64
			memo := make(map[*graph.Task][]uint64)
			var below func(tk *graph.Task) []uint64
			below = func(tk *graph.Task) []uint64 {
				if set, ok := memo[tk]; ok {
					return set
				}
				set := make([]uint64, words)
				for _, s := range tk.Successors() {
					if j, ok := index[s]; ok {
						set[j>>6] |= 1 << (j & 63)
					}
					for w, x := range below(s) {
						set[w] |= x
					}
				}
				memo[tk] = set
				return set
			}
			out := make([][]uint64, len(tasks))
			for i, tk := range tasks {
				out[i] = below(tk)
			}
			return out
		}
		grouped, gst := discover(true)
		plain, pst := discover(false)
		if gst.RedirectNodes <= pst.RedirectNodes || gst.EdgesCreated >= pst.EdgesCreated {
			t.Fatalf("seed %d: batches made %d redirect nodes and %d edges, single tasks %d and %d: no run formed",
				seed, gst.RedirectNodes, gst.EdgesCreated, pst.RedirectNodes, pst.EdgesCreated)
		}
		want := order(plain)
		for i, got := range order(grouped) {
			for w := range got {
				if d := got[w] ^ want[i][w]; d != 0 {
					j := w<<6 + bits.TrailingZeros64(d)
					t.Fatalf("seed %d: task %d (%s %v) before task %d (%s %v): %v in batches, %v task by task",
						seed, i, descs[i].Label, graph.DepsOf(descs[i]), j, descs[j].Label, graph.DepsOf(descs[j]),
						got[w]&(d&-d) != 0, want[i][w]&(d&-d) != 0)
				}
			}
		}
	}
}

// TestStressConcurrentProducersShareStripes (named for the stripe table
// concurrent producers used to meet on; both are gone) checks what
// /metrics does to a running graph (rt.registerCollectors): one producer
// submits single tasks and batches while completers finish tasks under it
// and another goroutine reads Stats all the while. Each snapshot is taken
// under the discovery lock, so it is balanced and monotonic, not only the
// quiescent one, and the scrapes change nothing the producer discovers.
func TestStressConcurrentProducersShareStripes(t *testing.T) {
	opts := graph.OptAll | graph.OptKeepPrunedEdges // nothing pruned: structure is timing-independent
	descs := genTDG(rand.New(rand.NewSource(11)), 0, 3000)
	t.Run("scrape", func(t *testing.T) {
		serial := newExecutor()
		ref := graph.NewWithConfig(graph.Config{Opts: opts, OnReady: serial.one})
		submitMixed(ref, descs)
		ref.Flush()
		serial.drain(ref)
		want := serial.check(t, ref)

		e := newExecutor()
		g := graph.NewWithConfig(graph.Config{Opts: opts, OnReady: e.one, OnReadyBatch: e.many})
		var scrapeErr error
		within(t, time.Minute, func() {
			var discovered atomic.Bool
			var completers, scraper sync.WaitGroup
			for i := 0; i < 2; i++ {
				completers.Add(1)
				go func() {
					defer completers.Done()
					e.complete(g, &discovered)
				}()
			}
			scraper.Add(1)
			go func() {
				defer scraper.Done()
				var last graph.Stats
				for !discovered.Load() && scrapeErr == nil {
					st := g.Stats()
					switch {
					case st.EdgesAttempted != st.EdgesCreated+st.EdgesPruned+st.EdgesDuplicate:
						scrapeErr = fmt.Errorf("snapshot does not balance: %+v", st)
					case st.Tasks < last.Tasks || st.EdgesAttempted < last.EdgesAttempted ||
						st.EdgesCreated < last.EdgesCreated || st.RedirectNodes < last.RedirectNodes:
						scrapeErr = fmt.Errorf("counters went backwards: %+v after %+v", st, last)
					}
					last = st
					runtime.Gosched()
				}
			}()
			submitMixed(g, descs)
			g.Flush()
			discovered.Store(true)
			completers.Wait()
			scraper.Wait()
		})
		if scrapeErr != nil {
			t.Fatal(scrapeErr)
		}
		if got := e.check(t, g); got != want {
			t.Fatalf("discovered %+v under scrapes, %+v without", got, want)
		}
	})
}

// TestFastPruneKeepsFailureSemantics pins what the lock-free prune must
// not lose: a predecessor that failed in the current window poisons a
// successor discovered after it finished; one whose window was consumed
// does not; and a finished predecessor of the same recording still gets
// a real, replayable edge.
func TestFastPruneKeepsFailureSemantics(t *testing.T) {
	e := newExecutor()
	g := graph.NewWithConfig(graph.Config{Opts: graph.OptAll, OnReady: e.one})
	out := func(k graph.Key) []graph.Dep { return []graph.Dep{{Key: k, Type: graph.Out}} }
	in := func(k graph.Key) []graph.Dep { return []graph.Dep{{Key: k, Type: graph.In}} }

	failed := g.Submit("failed", out(1), nil, nil)
	g.Start(e.pop())
	g.AbortInto(failed, nil)
	after := g.Submit("after", in(1), nil, nil)
	if !after.Poisoned() {
		t.Fatal("successor discovered after its predecessor aborted is not poisoned")
	}
	if st := g.Stats(); st.EdgesPruned != 1 || st.EdgesCreated != 0 || failed.NumSuccessors() != 0 {
		t.Fatalf("edge to the finished predecessor was not pruned: %+v", st)
	}
	g.SkipInto(e.pop(), nil)

	g.ConsumeFailures()
	later := g.Submit("later", in(1), nil, nil)
	if later.Poisoned() {
		t.Fatal("a failure of a consumed window still poisons")
	}
	g.Complete(e.pop())

	g.BeginRecording()
	a := g.Submit("a", out(2), nil, nil)
	g.Complete(e.pop())
	b := g.Submit("b", in(2), nil, nil)
	if a.NumSuccessors() != 1 || b.Indegree() != 1 {
		t.Fatalf("finished same-recording predecessor: %d successors, recorded indegree %d, want 1 1",
			a.NumSuccessors(), b.Indegree())
	}
	if got := e.pop(); got != b {
		t.Fatal("b must be ready at once: its only predecessor had finished")
	}
	g.Complete(b)
	g.EndRecording()
	if err := g.BeginReplay(); err != nil {
		t.Fatal(err)
	}
	g.Replay(nil, nil, nil, nil)
	g.Replay(nil, nil, nil, nil)
	if err := g.FinishReplay(); err != nil {
		t.Fatal(err)
	}
	if got := e.pop(); got != a || e.pop() != nil {
		t.Fatal("replay must hold b back until a finishes")
	}
	if rel := g.Complete(a); len(rel) != 1 || rel[0] != b {
		t.Fatalf("a's replayed completion released %v, want b", rel)
	}
	g.Complete(b)
	g.EndPersistent()
	if l, r := g.Live(), g.ReadyCount(); l != 0 || r != 0 {
		t.Fatalf("gauges: live %d ready %d", l, r)
	}
}

// TestSuccessorBlocksKeepOrderEverywhere gives one task a successor list
// several blocks long and checks that every consumer of the list sees the
// same edges in discovery order — Successors, the compiled CSR row, the
// DOT export and the critical-path oracle — and that the recording
// replays, generic and compiled, releasing every successor once.
func TestSuccessorBlocksKeepOrderEverywhere(t *testing.T) {
	const width = 100 // inline entries plus more than six blocks
	e := newExecutor()
	g := graph.NewWithConfig(graph.Config{Opts: graph.OptAll, OnReady: e.one, Clock: graph.StepClock(3)})
	g.BeginRecording()
	hub := g.Submit("hub", []graph.Dep{{Key: 0, Type: graph.Out}}, nil, nil)
	leaves := make([]*graph.Task, width)
	collect := make([]graph.Dep, width)
	for i := range leaves {
		k := graph.Key(1 + i)
		leaves[i] = g.Submit("leaf", []graph.Dep{{Key: 0, Type: graph.In}, {Key: k, Type: graph.Out}}, nil, nil)
		collect[i] = graph.Dep{Key: k, Type: graph.In}
	}
	tail := g.Submit("tail", collect, nil, nil)
	g.EndRecording()

	sameOrder := func(what string, got []*graph.Task) {
		t.Helper()
		if len(got) != width {
			t.Fatalf("%s: %d successors, want %d", what, len(got), width)
		}
		for i := range got {
			if got[i] != leaves[i] {
				t.Fatalf("%s: successor %d is task %d, want %d", what, i, got[i].ID, leaves[i].ID)
			}
		}
	}
	if n := hub.NumSuccessors(); n != width {
		t.Fatalf("NumSuccessors = %d, want %d", n, width)
	}
	sameOrder("Successors", hub.Successors())

	// Recording iteration: the hub's completion releases the leaves in
	// list order; stamps feed the critical-path fold.
	run := func(tk *graph.Task) []*graph.Task {
		g.Start(tk)
		g.StampFinish(tk)
		return g.Complete(tk)
	}
	sameOrder("Complete", run(hub))
	for i, l := range leaves {
		if rel := run(l); (i == width-1) != (len(rel) == 1) {
			t.Fatalf("leaf %d released %d tasks", i, len(rel))
		}
	}
	run(tail)
	all := g.Recorded()
	exact, err := cpath.ExactCP(all)
	if err != nil {
		t.Fatal(err)
	}
	online, _, _, _ := tail.CP()
	if exact.CPLen != 3 || exact.TInfNs != online {
		t.Fatalf("ExactCP: path of %d tasks weighing %d, online fold %d over 3", exact.CPLen, exact.TInfNs, online)
	}

	var dot bytes.Buffer
	if err := graph.WriteDOT(&dot, all, "blocks"); err != nil {
		t.Fatal(err)
	}
	var edges []string
	prefix := fmt.Sprintf("  t%d -> ", hub.ID)
	for _, line := range strings.Split(dot.String(), "\n") {
		if strings.HasPrefix(line, prefix) {
			edges = append(edges, strings.TrimSuffix(strings.TrimPrefix(line, prefix), ";"))
		}
	}
	if len(edges) != width {
		t.Fatalf("DOT has %d hub edges, want %d", len(edges), width)
	}
	for i, to := range edges {
		if to != fmt.Sprintf("t%d", leaves[i].ID) {
			t.Fatalf("DOT hub edge %d goes to %s, want t%d", i, to, leaves[i].ID)
		}
	}

	// Generic replay: same release order, everything readied once more.
	e.queue, e.readied = nil, make(map[*graph.Task]int)
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
	if got := e.pop(); got != hub || e.pop() != nil {
		t.Fatal("generic replay must start with the hub alone")
	}
	e.stampEnd(hub)
	rel := g.Complete(hub)
	sameOrder("replayed Complete", rel)
	e.many(rel)
	e.drain(g)
	e.check(t, g)

	// Compiled replay: the hub's CSR row is the list, in order.
	cs, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.BeginIteration(); err != nil {
		t.Fatal(err)
	}
	if roots := cs.Roots(); len(roots) != 1 || roots[0] != hub {
		t.Fatalf("compiled roots %v, want the hub", roots)
	}
	sameOrder("compiled row", cs.FinishInto(hub, nil, graph.Completed))
	released := 0
	for _, l := range leaves {
		released += len(cs.FinishInto(l, nil, graph.Completed))
	}
	if released != 1 || len(cs.FinishInto(tail, nil, graph.Completed)) != 0 || g.Live() != 0 {
		t.Fatalf("compiled iteration: leaves released %d tasks, %d live", released, g.Live())
	}
	g.EndPersistent()
}
