package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// Read runs (batch.go): what a run must and must not do to the graph a
// batch discovers. The generated, executed and audited side is
// discover_stress_test.go's; these are the cases picked by hand.

func keysOf(lo, n int, typ DepType) []Dep {
	deps := make([]Dep, n)
	for i := range deps {
		deps[i] = Dep{Key: Key(lo + i), Type: typ}
	}
	return deps
}

// writers returns one Out task per key lo..lo+m-1.
func writers(lo, m int) []TaskDesc {
	descs := make([]TaskDesc, m)
	for i := range descs {
		descs[i] = DescOf("w", keysOf(lo+i, 1, Out))
	}
	return descs
}

// readers returns n tasks reading keys lo..lo+m-1, each also writing a
// key of its own from private up.
func readers(lo, m, n, private int) []TaskDesc {
	descs := make([]TaskDesc, n)
	for i := range descs {
		deps := append(keysOf(lo, m, In), Dep{Key: Key(private + i), Type: Out})
		descs[i] = DescOf("r", deps)
	}
	return descs
}

// reaches reports whether a path of successor edges leads from a to b.
func reaches(a, b *Task) bool {
	seen := map[*Task]bool{a: true}
	stack := []*Task{a}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range t.Successors() {
			if s == b {
				return true
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// noMarks fails if a run's mark survived the call that made it.
func noMarks(t *testing.T, g *Graph) {
	t.Helper()
	g.keys.each(func(k Key, ks *keyState) {
		if ks.run != nil {
			t.Fatalf("key %d still carries the mark of a run after its discover call returned", k)
		}
	})
}

// TestReadRunEdgeCounts: m writers, n readers of all their keys, m
// writers again. One batch with optimization (c) materializes 2(m+n)
// constraints through one redirect pair; without it, or task by task,
// the 2mn the declarations spell out. (And m either way from each key's
// first writer to its second.)
func TestReadRunEdgeCounts(t *testing.T) {
	const m, n = 6, 8 // (m-1)(n-1) = 35, over minRunSaving
	descs := slices.Concat(writers(0, m), readers(0, m, n, 100), writers(0, m))
	for _, tc := range []struct {
		name      string
		opts      Opt
		batched   bool
		edges     int64
		redirects int64
	}{
		{"batch", OptAll, true, 2*(m+n) + m, 2},
		{"batch without (c)", OptDedup, true, 2*m*n + m, 0},
		{"task by task", OptAll, false, 2*m*n + m, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, c := newTestGraph(tc.opts)
			var ts []*Task
			if tc.batched {
				ts = g.SubmitBatch(descs, nil)
			} else {
				for i := range descs {
					ts = g.SubmitBatch(descs[i:i+1], ts)
				}
			}
			noMarks(t, g)
			st := g.Stats()
			if st.EdgesCreated != tc.edges || st.RedirectNodes != tc.redirects {
				t.Fatalf("%d edges and %d redirect nodes, want %d and %d", st.EdgesCreated, st.RedirectNodes, tc.edges, tc.redirects)
			}
			// The orderings are the declared ones either way.
			for r := m; r < m+n; r++ {
				for w := 0; w < m; w++ {
					if !reaches(ts[w], ts[r]) || !reaches(ts[r], ts[m+n+w]) {
						t.Fatalf("reader %d is not between writers %d and %d", r, w, m+n+w)
					}
				}
				for r2 := m; r2 < m+n; r2++ {
					if reaches(ts[r], ts[r2]) {
						t.Fatalf("reader %d ordered before reader %d", r, r2)
					}
				}
			}
			c.drain(g)
			assertQuiescentStats(t, g, len(descs))
		})
	}
}

// TestReadRunClosesBeforeSharedKeyWriter: a task that has the run's reads
// and also writes one of the shared keys is not a member. It succeeds the
// members before it, the members after it succeed it, and both halves are
// runs of their own.
func TestReadRunClosesBeforeSharedKeyWriter(t *testing.T) {
	const m, half = 9, 5 // either half pays on its own
	for _, typ := range []DepType{Out, InOut, InOutSet} {
		t.Run(typ.String(), func(t *testing.T) {
			g, c := newTestGraph(OptAll)
			cut := DescOf("cut", append(keysOf(0, m, In), Dep{Key: 2, Type: typ}))
			descs := slices.Concat(writers(0, m), readers(0, m, half, 100), []TaskDesc{cut}, readers(0, m, half, 200))
			ts := g.SubmitBatch(descs, nil)
			g.Flush()
			noMarks(t, g)
			w := ts[m+half]
			for i := 0; i < half; i++ {
				before, after := ts[m+i], ts[m+half+1+i]
				if !reaches(before, w) || !reaches(w, after) {
					t.Fatalf("the task that writes a shared key is not between the members around it")
				}
			}
			// Two runs of two nodes; an inoutset write adds its own.
			want := int64(4)
			if typ == InOutSet {
				want++
			}
			if st := g.Stats(); st.RedirectNodes != want {
				t.Fatalf("%d redirect nodes, want %d", st.RedirectNodes, want)
			}
			c.drain(g)
			assertQuiescentStats(t, g, len(descs))
		})
	}
}

// TestReadRunClosesAtFirstOtherTask: a task with other reads ends the
// run, whatever it touches, and the same reads after it start another.
func TestReadRunClosesAtFirstOtherTask(t *testing.T) {
	const m = 33 // a run of two pays
	g, c := newTestGraph(OptAll)
	other := DescOf("other", keysOf(50, 1, InOut))
	short := DescOf("short", keysOf(0, m-1, In)) // a prefix of the reads is not the reads
	descs := slices.Concat(writers(0, m), readers(0, m, 2, 100), []TaskDesc{other}, readers(0, m, 2, 200),
		[]TaskDesc{short}, readers(0, m, 2, 300), writers(0, m))
	ts := g.SubmitBatch(descs, nil)
	noMarks(t, g)
	if st := g.Stats(); st.RedirectNodes != 6 {
		t.Fatalf("%d redirect nodes, want three runs' pairs", st.RedirectNodes)
	}
	// Each run's exit node is a reader of every shared key: the last
	// writers succeed all six members.
	for r := m; r < len(descs)-m; r++ {
		if descs[r].Label != "r" {
			continue
		}
		for w := len(descs) - m; w < len(descs); w++ {
			if !reaches(ts[r], ts[w]) {
				t.Fatalf("reader %d does not precede the next writer %d", r, w)
			}
		}
	}
	c.drain(g)
	assertQuiescentStats(t, g, len(descs))
}

// TestReadRunStaysInsideItsCall: the discovery lock is dropped between two
// SubmitBatch calls, so a run ends with the first — its exit node
// released, able to finish before the second call — and a batch of one,
// which has no next desc to look at, never opens one.
func TestReadRunStaysInsideItsCall(t *testing.T) {
	const m, n = 9, 5
	g, c := newTestGraph(OptAll)
	g.SubmitBatch(writers(0, m), nil)
	g.SubmitBatch(readers(0, m, n, 100), nil)
	noMarks(t, g)
	c.drain(g)
	if live := g.Live(); live != 0 {
		t.Fatalf("%d tasks live after the first run's members finished: its exit node was not released", live)
	}
	g.SubmitBatch(readers(0, m, n, 200), nil)
	noMarks(t, g)
	c.drain(g)
	st := g.Stats()
	if st.RedirectNodes != 4 {
		t.Fatalf("%d redirect nodes for the same reads in two calls, want two pairs", st.RedirectNodes)
	}
	assertQuiescentStats(t, g, m+2*n)

	g2, c2 := newTestGraph(OptAll)
	descs := slices.Concat(writers(0, m), readers(0, m, n, 100), writers(0, m))
	for i := range descs {
		g2.SubmitBatch(descs[i:i+1], nil)
	}
	if st := g2.Stats(); st.RedirectNodes != 0 || st.EdgesCreated != 2*m*n+m {
		t.Fatalf("batches of one grouped: %+v", st)
	}
	c2.drain(g2)
	assertQuiescentStats(t, g2, 2*m+n)
}

// TestReadRunWithoutWritersHasNoEntry: keys nobody has written give the
// members nothing to wait for, and a redirect node without a predecessor
// is what the verifier calls dangling.
func TestReadRunWithoutWritersHasNoEntry(t *testing.T) {
	const m, n = 9, 5
	g, c := newTestGraph(OptAll)
	ts := g.SubmitBatch(slices.Concat(readers(0, m, n, 100), writers(0, m)), nil)
	st := g.Stats()
	if st.RedirectNodes != 1 || st.EdgesCreated != n+m {
		t.Fatalf("%d redirect nodes and %d edges, want the exit node alone and %d", st.RedirectNodes, st.EdgesCreated, n+m)
	}
	if len(c.ready) != n {
		t.Fatalf("%d tasks ready, want the %d readers", len(c.ready), n)
	}
	for r := 0; r < n; r++ {
		if !reaches(ts[r], ts[n]) {
			t.Fatalf("reader %d does not precede the writer", r)
		}
	}
	c.drain(g)
	assertQuiescentStats(t, g, n+m)
}

// TestReadRunThreshold: a run is opened when the descs ahead make it
// save minRunSaving, (m-1)(n-1), and not one member short of that; one
// shared key never pays, and a lone task is not a run.
func TestReadRunThreshold(t *testing.T) {
	for _, tc := range []struct {
		name      string
		m, n      int
		redirects int64
	}{
		{"5 keys, 9 tasks: 32", 5, 9, 2},
		{"5 keys, 8 tasks: 28", 5, 8, 0},
		{"33 keys, 2 tasks: 32", 33, 2, 2},
		{"32 keys, 2 tasks: 31", 32, 2, 0},
		{"2 keys, 33 tasks: 32", 2, 33, 2},
		{"1 key, 100 tasks", 1, 100, 0},
		{"40 keys, 1 task", 40, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, c := newTestGraph(OptAll)
			descs := slices.Concat(writers(0, tc.m), readers(0, tc.m, tc.n, 1000))
			g.SubmitBatch(descs, nil)
			noMarks(t, g)
			if st := g.Stats(); st.RedirectNodes != tc.redirects {
				t.Fatalf("%d redirect nodes, want %d", st.RedirectNodes, tc.redirects)
			}
			c.drain(g)
			assertQuiescentStats(t, g, len(descs))
		})
	}
}

// TestReadRunRecording: both nodes of a run are recorded after the run's
// first member — so a recording that opens with a run starts with a task
// a resubmission releases — Compile takes the recording, and a frozen and
// a gated iteration of it run every member before the writers.
func TestReadRunRecording(t *testing.T) {
	const m, n = 9, 5
	g, c := newTestGraph(OptAll)
	g.SubmitBatch(writers(0, m), nil) // outside the recording: the entry node's predecessors
	g.BeginRecording()
	descs := slices.Concat(readers(0, m, n, 100), writers(0, m))
	ts := g.SubmitBatch(descs, nil)
	g.EndRecording()
	c.drain(g)
	rec := g.Recorded()
	if rec[0] != ts[0] || !rec[1].Redirect || !rec[2].Redirect || rec[3] != ts[1] {
		t.Fatalf("recorded order: %v", labelsOf(rec))
	}
	cs, err := g.CompileGated()
	if err != nil {
		t.Fatalf("CompileGated: %v", err)
	}
	for _, gated := range []bool{false, true} {
		c.order = c.order[:0]
		if gated {
			if err := cs.BeginReplay(); err != nil {
				t.Fatal(err)
			}
			for range descs {
				cs.Replay(nil, nil, nil, nil)
			}
			if err := cs.FinishReplay(); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := cs.BeginIteration(); err != nil {
				t.Fatal(err)
			}
			for _, r := range cs.Roots() {
				c.onReady(r)
			}
		}
		var buf []*Task
		done := 0
		for tk := c.pop(); tk != nil; tk = c.pop() {
			buf = cs.FinishInto(tk, buf, Completed)
			for _, s := range buf {
				c.onReady(s)
			}
			done++
		}
		if done != len(rec) || g.Live() != 0 {
			t.Fatalf("gated=%v: %d of %d recorded tasks finished, %d live", gated, done, len(rec), g.Live())
		}
		pos := map[int64]int{}
		for i, id := range c.order {
			pos[id] = i
		}
		for r := 0; r < n; r++ {
			for w := n; w < n+m; w++ {
				if pos[ts[r].ID] > pos[ts[w].ID] {
					t.Fatalf("gated=%v: writer %d became ready before reader %d", gated, w, r)
				}
			}
		}
	}
	g.EndPersistent()
	assertQuiescentStats(t, g, m+len(descs))
}

func labelsOf(ts []*Task) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = fmt.Sprintf("%d:%s", t.ID, t.Label)
	}
	return out
}

// TestCompileRefusesLeadingRedirect: Replay releases a redirect node with
// the task recorded before it, so a recording that starts with one would
// leave it held for ever. Discovery never records that; Compile says so
// instead of trusting it.
func TestCompileRefusesLeadingRedirect(t *testing.T) {
	g, c := newTestGraph(OptAll)
	g.BeginRecording()
	g.SubmitBatch(slices.Concat(readers(0, 9, 5, 100), writers(0, 9)), nil)
	g.EndRecording()
	c.drain(g)
	rec := g.recorded
	rec[0], rec[1] = rec[1], rec[0]
	for _, compile := range []func() (*Compiled, error){g.Compile, g.CompileGated} {
		if cs, err := compile(); err == nil || cs != nil {
			t.Fatalf("compiled a recording that starts with a redirect node (err %v)", err)
		}
	}
	g.EndPersistent()
}

// succIDs maps the ID of every task reachable from ts, redirect nodes
// included, to its successors' IDs in edge order.
func succIDs(ts []*Task) map[int64][]int64 {
	out := map[int64][]int64{}
	stack := slices.Clone(ts)
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, seen := out[t.ID]; seen {
			continue
		}
		ids := []int64{}
		for _, s := range t.Successors() {
			ids = append(ids, s.ID)
			stack = append(stack, s)
		}
		out[t.ID] = ids
	}
	return out
}

// sameGraphs fails unless a and b, the tasks of one stream discovered
// into two graphs, have the same successors everywhere.
func sameGraphs(t *testing.T, a, b []*Task) {
	t.Helper()
	ga, gb := succIDs(a), succIDs(b)
	if len(ga) != len(gb) {
		t.Fatalf("%d tasks reachable, want %d", len(gb), len(ga))
	}
	for id, want := range ga {
		if got, ok := gb[id]; !ok || !slices.Equal(got, want) {
			t.Fatalf("task %d: successors %v, want %v", id, got, want)
		}
	}
}

// TestReadRunSharedSliceEqualsCopied: a run admits a member whose In is
// the same slice as the run's at once, and one with a copy after a key
// compare. The graph must not tell them apart — nor take a prefix of the
// shared slice, which starts at the same element, for the reads, nor
// admit a member that shares the slice and writes one of its keys.
func TestReadRunSharedSliceEqualsCopied(t *testing.T) {
	const m, n = 120, 15 // one LULESH force layer
	stream := func(shared bool) []TaskDesc {
		in := keysOf(0, m, In)
		var reads []Key
		member := func(label string, private int, more ...Dep) TaskDesc {
			d := DescOf(label, append(append(slices.Clone(in), Dep{Key: Key(private), Type: Out}), more...))
			if shared {
				if reads == nil {
					reads = d.In
				}
				d.In = reads
			}
			return d
		}
		descs := writers(0, m)
		for i := 0; i < n; i++ {
			descs = append(descs, member("r", 1000+i))
		}
		descs = append(descs, member("cut", 2000, Dep{Key: 7, Type: InOut}))
		for i := 0; i < n; i++ {
			descs = append(descs, member("r", 3000+i))
		}
		short := member("short", 4000)
		short.In = short.In[:m-1]
		descs = append(descs, short)
		for i := 0; i < n; i++ {
			descs = append(descs, member("r", 5000+i))
		}
		return append(descs, writers(0, m)...)
	}
	discover := func(shared bool) ([]*Task, Stats) {
		g, c := newTestGraph(OptAll)
		ts := g.SubmitBatch(stream(shared), nil)
		noMarks(t, g)
		st := g.Stats()
		c.drain(g)
		assertQuiescentStats(t, g, len(ts))
		return ts, st
	}
	copied, cst := discover(false)
	shared, sst := discover(true)
	if cst.RedirectNodes != 6 {
		t.Fatalf("%d redirect nodes with copied reads, want three runs' pairs", cst.RedirectNodes)
	}
	if sst != cst {
		t.Fatalf("stats diverge:\n  copied: %+v\n  shared: %+v", cst, sst)
	}
	sameGraphs(t, copied, shared)
}

// TestSubmitGroupsByType: Submit takes a []Dep in any order and discovers
// what a TaskDesc with the same keys grouped by type gives — the order
// within a type kept — whether the list came mixed or grouped.
func TestSubmitGroupsByType(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const a, b, c, d = 1, 2, 3, 4
	lists := [][]Dep{{{a, Out}, {b, In}, {c, InOutSet}, {d, In}}}
	for len(lists) < 400 {
		deps := make([]Dep, 1+rng.Intn(5))
		for i := range deps {
			deps[i] = Dep{Key: Key(rng.Intn(6)), Type: DepType(rng.Intn(4))}
		}
		lists = append(lists, deps)
	}
	byHand := func(deps []Dep) TaskDesc {
		var desc TaskDesc
		for _, dep := range deps {
			l := [...]*[]Key{In: &desc.In, Out: &desc.Out, InOut: &desc.InOut, InOutSet: &desc.InOutSet}[dep.Type]
			*l = append(*l, dep.Key)
		}
		return desc
	}
	grouped := func(deps []Dep) []Dep {
		out := []Dep{}
		for typ := In; typ <= InOutSet; typ++ {
			for _, dep := range deps {
				if dep.Type == typ {
					out = append(out, dep)
				}
			}
		}
		return out
	}
	var want []*Task
	var wantSt Stats
	for _, form := range []string{"TaskDesc", "mixed", "grouped"} {
		g, col := newTestGraph(OptAll)
		var ts []*Task
		for _, deps := range lists {
			switch form {
			case "TaskDesc":
				ts = g.SubmitBatch([]TaskDesc{byHand(deps)}, ts)
			case "mixed":
				ts = append(ts, g.Submit("t", deps, nil, nil))
			case "grouped":
				ts = append(ts, g.Submit("t", grouped(deps), nil, nil))
			}
		}
		g.Flush()
		st := g.Stats()
		for i, tk := range ts {
			got, _ := tk.DeclaredDeps(nil)
			if w := grouped(lists[i]); !slices.Equal(got, w[:min(len(w), inlineDeps)]) {
				t.Fatalf("%s: task %d declared %v, captured %v", form, i, lists[i], got)
			}
		}
		if want == nil {
			want, wantSt = ts, st
		} else {
			if st != wantSt {
				t.Fatalf("%s: stats %+v, want %+v", form, st, wantSt)
			}
			sameGraphs(t, want, ts)
		}
		col.drain(g)
		assertQuiescentStats(t, g, len(lists))
	}
}

// BenchmarkDiscoverReadRun discovers one LULESH force layer: 15 tasks
// reading the same 120 keys and writing one key each, after the task that
// wrote the 120. With shared, the tasks' In lists are one slice, which
// the run admits on identity; with copied, each has its own copy, which
// the run admits after a key compare. ns/task is the force tasks' own.
func BenchmarkDiscoverReadRun(b *testing.B) {
	const m, n = 120, 15
	for _, shared := range []bool{true, false} {
		name := "copied"
		if shared {
			name = "shared"
		}
		b.Run(name, func(b *testing.B) {
			g, c := newTestGraph(OptAll)
			in := keysOf(0, m, In)
			writer := DescOf("w", keysOf(0, m, Out))
			descs := make([]TaskDesc, n)
			for i := range descs {
				descs[i] = DescOf("force", append(slices.Clone(in), Dep{Key: Key(m + i), Type: Out}))
				if shared {
					descs[i].In = descs[0].In
				}
			}
			var ts []*Task
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g.SubmitBatch([]TaskDesc{writer}, nil)
				b.StartTimer()
				ts = g.SubmitBatch(descs, ts[:0])
				b.StopTimer()
				c.drain(g)
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/task")
			if st := g.Stats(); st.RedirectNodes == 0 {
				b.Fatal("no read run formed")
			}
		})
	}
}

// TestReadyPublishedOutsideDiscoveryLock: every way a producer readies a
// task — Submit, SubmitBatch, a closing inoutset group's redirect node,
// Flush — hands it to OnReady (or OnReadyBatch) after discovery has let
// go of its lock.
func TestReadyPublishedOutsideDiscoveryLock(t *testing.T) {
	for _, batched := range []bool{false, true} {
		var g *Graph
		published := 0
		check := func(tk *Task) {
			if !g.mu.TryLock() {
				t.Fatalf("batched %v: task %d (%s) published under the discovery lock", batched, tk.ID, tk.Label)
			}
			g.mu.Unlock()
			published++
		}
		cfg := Config{Opts: OptAll, OnReady: check}
		if batched {
			cfg.OnReadyBatch = func(ts []*Task) {
				for _, tk := range ts {
					check(tk)
				}
			}
		}
		g = NewWithConfig(cfg)
		finish := func(ts []*Task) {
			for _, tk := range ts {
				g.Start(tk)
				g.Complete(tk)
			}
		}
		set := func(k Key) []*Task {
			d := DescOf("member", []Dep{{k, InOutSet}})
			return g.SubmitBatch([]TaskDesc{d, d}, nil)
		}
		g.Submit("w", []Dep{{1, Out}}, nil, nil)
		finish(set(2))
		g.Submit("r", []Dep{{2, In}}, nil, nil) // closes the group: its node is ready
		finish(set(3))
		g.Flush() // closes the second group
		if st := g.Stats(); st.RedirectNodes != 2 {
			t.Fatalf("batched %v: %d redirect nodes, want 2", batched, st.RedirectNodes)
		}
		if published != 7 {
			t.Fatalf("batched %v: %d tasks published, want 7", batched, published)
		}
	}
}
