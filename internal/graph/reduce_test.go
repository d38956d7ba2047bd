package graph

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// csr is a successor structure by position, the form both the compiled
// schedule and the recording's own successor lists are compared in.
type csr [][]int32

// declaredCSR rebuilds, from the tasks' own successor lists, the CSR
// Compile starts from: every same-recording edge, in discovery order.
func declaredCSR(c *Compiled) csr {
	out := make(csr, len(c.tasks))
	first := c.tasks[0].ID // the recording's first task
	for p, t := range c.tasks {
		for seg, w := t.walkSuccs(t.NumSuccessors()); len(seg) > 0; seg = w.next() {
			for _, s := range seg {
				if s.Persistent && s.ID >= first {
					out[p] = append(out[p], s.slot)
				}
			}
		}
	}
	return out
}

func compiledCSR(c *Compiled) csr {
	out := make(csr, len(c.tasks))
	for p := range c.tasks {
		out[p] = append(out[p], c.succs[c.succOff[p]:c.succOff[p+1]]...)
	}
	return out
}

func (g csr) edges() int {
	e := 0
	for _, row := range g {
		e += len(row)
	}
	return e
}

// bits is a set of positions, one bit each.
type bits []uint64

func (b bits) has(v int32) bool { return b[v>>6]&(1<<(v&63)) != 0 }

// closure returns, per position, the set of positions reachable from it
// by at least one edge: a memoised depth-first search, each set the
// union of its successors' — nothing shared with the pass under test.
// The graph must be acyclic.
func (g csr) closure() []bits {
	words := (len(g) + 63) / 64
	reach := make([]bits, len(g))
	var visit func(u int32)
	visit = func(u int32) {
		r := make(bits, words)
		for _, v := range g[u] {
			if reach[v] == nil {
				visit(v)
			}
			r[v>>6] |= 1 << (v & 63)
			for k, w := range reach[v] {
				r[k] |= w
			}
		}
		reach[u] = r
	}
	for u := range g {
		if reach[u] == nil {
			visit(int32(u))
		}
	}
	return reach
}

// checkEdges verifies c.Edges() against the kept rows, the ones succOff
// delimits — so the compaction's succOff[n] and its truncation of succs
// agree — and against the declared graph.
func checkEdges(t *testing.T, c *Compiled, declared csr) {
	t.Helper()
	kept := compiledCSR(c)
	if k, rec := c.Edges(); k != kept.edges() || rec != c.edgesRecorded || rec != declared.edges() {
		t.Fatalf("Edges() = %d, %d; the CSR rows hold %d, recorded %d, declared %d",
			k, rec, kept.edges(), c.edgesRecorded, declared.edges())
	}
}

// checkReduced verifies everything the reduction promises about c
// against the recording it was compiled from (see checkReducedCSR), and
// that the schedule's roots are the recording's.
func checkReduced(t *testing.T, c *Compiled) {
	t.Helper()
	declared := declaredCSR(c)
	checkEdges(t, c, declared)
	checkReducedCSR(t, declared, compiledCSR(c), c.template)
	roots := 0
	for p, task := range c.tasks {
		if task.recordedIndegree == 0 {
			if roots >= len(c.roots) || c.roots[roots] != task {
				t.Fatalf("position %d has no declared predecessor and is not root %d", p, roots)
			}
			roots++
		}
	}
	if roots != len(c.roots) {
		t.Fatalf("%d roots, %d positions without a declared predecessor", len(c.roots), roots)
	}
}

// checkReducedCSR verifies kept, with its indegree template, as the
// transitive reduction of declared: kept rows are subsequences of the
// declared ones, reachability is unchanged, no kept edge is implied by
// the others, a position keeps a predecessor if and only if it had one,
// and — wherever the dense oracle is within its budgets — the rows are
// the oracle's.
func checkReducedCSR(t *testing.T, declared, kept csr, template []int32) {
	t.Helper()
	n := len(declared)
	indeg, declaredIn := make([]int32, n), make([]int32, n)
	for p, row := range kept {
		// Kept edges are declared edges, in their declared order.
		i := 0
		for _, v := range row {
			for i < len(declared[p]) && declared[p][i] != v {
				i++
			}
			if i == len(declared[p]) {
				t.Fatalf("row %d keeps %v, not a subsequence of the declared %v", p, row, declared[p])
			}
			i++
			indeg[v]++
		}
	}
	// Kept edges are declared, so kept reachability lies within the
	// declared one; every declared edge is implied by kept ones, so the
	// declared reachability lies within the kept one.
	got := kept.closure()
	for u, row := range declared {
		for _, v := range row {
			if !got[u].has(v) {
				t.Fatalf("declared edge %d -> %d is no longer implied", u, v)
			}
			declaredIn[v]++
		}
	}
	// No kept edge is implied by the others: v is not reachable from any
	// other kept successor of u (and is kept once).
	for u, row := range kept {
		for i, v := range row {
			for j, w := range row {
				if i != j && (w == v || got[w].has(v)) {
					t.Fatalf("kept edge %d -> %d is implied through %d", u, v, w)
				}
			}
		}
	}
	for p := range declared {
		if template[p] != indeg[p] {
			t.Fatalf("template[%d] = %d, the CSR has %d incoming edges", p, template[p], indeg[p])
		}
		if (declaredIn[p] == 0) != (indeg[p] == 0) {
			t.Fatalf("position %d has %d declared and %d kept predecessors", p, declaredIn[p], indeg[p])
		}
	}
	if want, ok := denseReduce(declared); ok {
		for p := range want {
			if !slices.Equal(want[p], kept[p]) {
				t.Fatalf("row %d keeps %v, the dense oracle %v", p, kept[p], want[p])
			}
		}
	}
}

// The dense oracle's budgets: n*n/8 bytes of sets, (edges + n) * n/64
// word operations.
const (
	denseMaxScratch = 8 << 20
	denseMaxWork    = 1 << 26
)

// denseReduce is the transitive reduction by one n-bit reachability set
// per position, filled in reverse Kahn order — the pass as it was before
// its sets became runs, kept as the oracle for the rows. It reports
// false where that pass left a schedule alone: over its budgets, which
// refuse every schedule over 8 192 positions, or on a cycle.
func denseReduce(g csr) (csr, bool) {
	n, edges := len(g), g.edges()
	words := (n + 63) / 64
	if edges == 0 ||
		int64(n)*int64(words)*8 > denseMaxScratch ||
		(int64(edges)+int64(n))*int64(words) > denseMaxWork {
		return nil, false
	}
	order := make([]int32, 0, n)
	indeg := make([]int32, n)
	for _, row := range g {
		for _, v := range row {
			indeg[v]++
		}
	}
	for p, d := range indeg {
		if d == 0 {
			order = append(order, int32(p))
		}
	}
	for i := 0; i < len(order); i++ {
		for _, v := range g[order[i]] {
			if indeg[v]--; indeg[v] == 0 {
				order = append(order, v)
			}
		}
	}
	if len(order) != n {
		return nil, false
	}
	pos := indeg
	for i, p := range order {
		pos[p] = int32(i)
	}
	// reach[i]: the positions reachable from the i-th of the order, as
	// indices into the order.
	reach := make([]uint64, n*words)
	kept := make(csr, n)
	for i := n - 1; i >= 0; i-- {
		u := order[i]
		row := g[u]
		acc := reach[i*words : (i+1)*words]
		byPos := make([]int, len(row))
		for j := range byPos {
			byPos[j] = j
		}
		slices.SortFunc(byPos, func(a, b int) int { return cmp.Compare(pos[row[a]], pos[row[b]]) })
		drop := make([]bool, len(row))
		for _, j := range byPos {
			v := pos[row[j]]
			if acc[v>>6]&(1<<(v&63)) != 0 {
				drop[j] = true
				continue
			}
			from := reach[int(v)*words : (int(v)+1)*words]
			for k := int(v >> 6); k < words; k++ {
				acc[k] |= from[k]
			}
		}
		acc[i>>6] |= 1 << (i & 63)
		for j, v := range row {
			if !drop[j] {
				kept[u] = append(kept[u], v)
			}
		}
	}
	return kept, true
}

// compiledFrom is a schedule over the positions of g with g as its CSR,
// as Compile leaves one before the reduction.
func compiledFrom(g csr) *Compiled {
	n := len(g)
	c := &Compiled{tasks: make([]*Task, n), succOff: make([]int32, n+1), template: make([]int32, n)}
	for p, row := range g {
		c.succOff[p] = int32(len(c.succs))
		c.succs = append(c.succs, row...)
		for _, v := range row {
			c.template[v]++
		}
	}
	c.succOff[n] = int32(len(c.succs))
	c.edgesRecorded = len(c.succs)
	return c
}

// bandedCSR draws a DAG over n positions in which each position has an
// edge to each of the next window positions with probability density,
// relabelled by a random permutation when shuffled, so that the
// position order is not a topological one.
func bandedCSR(rng *rand.Rand, n, window int, density float64, shuffled bool) csr {
	label := make([]int32, n)
	for p := range label {
		label[p] = int32(p)
	}
	if shuffled {
		rng.Shuffle(n, func(i, j int) { label[i], label[j] = label[j], label[i] })
	}
	g := make(csr, n)
	for p := 0; p < n; p++ {
		// Geometric gaps between successors: drawing costs what the edges
		// do, not what the window does.
		for v := p; ; {
			v += 1 + int(math.Log(1-rng.Float64())/math.Log1p(-density))
			if v >= n || v > p+window {
				break
			}
			g[label[p]] = append(g[label[p]], label[v])
		}
	}
	return g
}

// luleshShaped submits one LULESH-like time step over the given number
// of chunks, in the application's loop order: a dt task, then the
// force, acceleration, velocity, position, kinematics, q, eos, volume and
// time-constraint loops, one task per chunk each. Force and kinematics
// read the chunks within halo of their own, as LULESH's stencils read
// neighbouring layers, and the time constraints form the inoutset
// reduction the next dt reads. 512 chunks make 4 609 tasks and the
// redirect nodes, about a LULESH iteration at 512 tasks per loop.
func luleshShaped(chunks, halo int) func(g *Graph) {
	const (
		dt Key = iota + 1
		dtCand
		force
		node
		kin
		eos
		q
	)
	key := func(f Key, c int) Key { return f<<32 | Key(c) }
	near := func(deps []Dep, f Key, c int) []Dep {
		for n := max(0, c-halo); n <= min(chunks-1, c+halo); n++ {
			deps = append(deps, Dep{key(f, n), In})
		}
		return deps
	}
	loop := func(g *Graph, label string, deps func(c int) []Dep) {
		for c := 0; c < chunks; c++ {
			g.Submit(label, deps(c), nil, nil)
		}
	}
	return func(g *Graph) {
		g.Submit("dt", []Dep{{key(dtCand, 0), In}, {key(dt, 0), Out}}, nil, nil)
		loop(g, "force", func(c int) []Dep {
			return append(near(near(near(nil, eos, c), q, c), node, c), Dep{key(force, c), Out})
		})
		loop(g, "accel", func(c int) []Dep { return []Dep{{key(force, c), InOut}} })
		loop(g, "vel", func(c int) []Dep {
			return []Dep{{key(dt, 0), In}, {key(force, c), In}, {key(node, c), InOut}}
		})
		loop(g, "pos", func(c int) []Dep { return []Dep{{key(dt, 0), In}, {key(node, c), InOut}} })
		loop(g, "kin", func(c int) []Dep {
			return append(near([]Dep{{key(dt, 0), In}}, node, c), Dep{key(kin, c), InOut})
		})
		loop(g, "q", func(c int) []Dep {
			return []Dep{{key(kin, c), In}, {key(eos, c), In}, {key(q, c), Out}}
		})
		loop(g, "eos", func(c int) []Dep {
			return []Dep{{key(q, c), In}, {key(kin, c), In}, {key(eos, c), InOut}}
		})
		loop(g, "vol", func(c int) []Dep { return []Dep{{key(kin, c), InOut}} })
		loop(g, "dtc", func(c int) []Dep {
			return []Dep{{key(kin, c), In}, {key(eos, c), In}, {key(dtCand, 0), InOutSet}}
		})
	}
}

// lattice submits serve's request shape: width x depth slots, each
// body task consuming its three upper neighbours (wrapped) and
// providing its own slot, then a tail consuming the last row.
func lattice(width, depth int) func(g *Graph) {
	slot := func(row, col int) Key { return Key(row*width + (col+width)%width + 1) }
	return func(g *Graph) {
		for col := 0; col < width; col++ {
			g.Submit("const", []Dep{{slot(0, col), Out}}, nil, nil)
		}
		for row := 1; row < depth; row++ {
			for col := 0; col < width; col++ {
				g.Submit("sum", []Dep{{slot(row-1, col-1), In}, {slot(row-1, col), In},
					{slot(row-1, col+1), In}, {slot(row, col), Out}}, nil, nil)
			}
		}
		tail := []Dep{{Key(width*depth + 1), Out}}
		for col := 0; col < width; col++ {
			tail = append(tail, Dep{slot(depth-1, col), In})
		}
		g.Submit("tail", tail, nil, nil)
	}
}

// record records the submissions made by body and drains the
// recording iteration, leaving the graph ready to compile.
func record(body func(g *Graph)) *Graph {
	g, col := newTestGraph(OptAll)
	g.BeginRecording()
	body(g)
	g.Flush()
	g.EndRecording()
	col.drain(g)
	return g
}

// recordAndCompile records the submissions made by body and compiles
// them.
func recordAndCompile(tb testing.TB, body func(g *Graph)) *Compiled {
	tb.Helper()
	c, err := record(body).Compile()
	if err != nil {
		tb.Fatalf("Compile: %v", err)
	}
	return c
}

// drainTwice runs two frozen iterations of c to completion.
func drainTwice(t *testing.T, c *Compiled) {
	t.Helper()
	for iter := 0; iter < 2; iter++ {
		if err := c.BeginIteration(); err != nil {
			t.Fatalf("BeginIteration: %v", err)
		}
		if got := len(drainSchedule(c)); got != c.Len() {
			t.Fatalf("iteration %d drained %d of %d tasks", iter, got, c.Len())
		}
		if live := c.g.Live(); live != 0 {
			t.Fatalf("iteration %d: live = %d after the drain", iter, live)
		}
	}
}

func TestReduceShapes(t *testing.T) {
	shapes := map[string]func(g *Graph){
		"chain": func(g *Graph) {
			for i := 0; i < 64; i++ {
				g.Submit("link", []Dep{{1, InOut}}, nil, nil)
			}
		},
		// a -> b -> d, a -> c -> d, and a -> d through a second key.
		"diamond-with-shortcut": func(g *Graph) {
			g.Submit("a", []Dep{{1, Out}, {4, Out}}, nil, nil)
			g.Submit("b", []Dep{{1, In}, {2, Out}}, nil, nil)
			g.Submit("c", []Dep{{1, In}, {3, Out}}, nil, nil)
			g.Submit("d", []Dep{{2, In}, {3, In}, {4, In}}, nil, nil)
		},
		// One writer, 2 048 readers, one writer: a fan-out and a fan-in of
		// 2 048 with nothing to drop among them, and one writer-to-writer
		// edge that every reader implies.
		"fan-2048": func(g *Graph) {
			g.Submit("w0", []Dep{{1, Out}, {2, Out}}, nil, nil)
			for i := 0; i < 2048; i++ {
				g.Submit("r", []Dep{{1, In}}, nil, nil)
			}
			g.Submit("w1", []Dep{{1, Out}, {2, In}}, nil, nil)
		},
		// The LULESH pattern: an anti-dependence from the head of a chain
		// to its tail, per chunk.
		"chunk-chains": func(g *Graph) {
			for c := 0; c < 32; c++ {
				k := Key(10 * (c + 1))
				g.Submit("force", []Dep{{k, In}, {k + 1, Out}}, nil, nil)
				g.Submit("vel", []Dep{{k + 1, In}, {k + 2, Out}}, nil, nil)
				g.Submit("pos", []Dep{{k + 2, In}, {k + 3, Out}}, nil, nil)
				g.Submit("eos", []Dep{{k + 3, In}, {k, Out}}, nil, nil)
			}
		},
		// Redirect nodes sit before the later members of their group in
		// recorded order, so an edge runs backwards in it.
		"inoutset-groups": func(g *Graph) {
			g.Submit("init", []Dep{{1, Out}, {2, Out}}, nil, nil)
			for round := 0; round < 4; round++ {
				for i := 0; i < 6; i++ {
					g.Submit("member", []Dep{{1, InOutSet}, {2, In}}, nil, nil)
				}
				g.Submit("consume", []Dep{{1, In}, {2, InOut}}, nil, nil)
			}
		},
	}
	wantDropped := map[string]int{"chain": 0, "diamond-with-shortcut": 1, "fan-2048": 1, "chunk-chains": 32}
	for name, body := range shapes {
		t.Run(name, func(t *testing.T) {
			c := recordAndCompile(t, body)
			checkReduced(t, c)
			kept, recorded := c.Edges()
			if want, ok := wantDropped[name]; ok && recorded-kept != want {
				t.Fatalf("dropped %d of %d edges, want %d", recorded-kept, recorded, want)
			}
			// The reduced schedule still drains, twice.
			drainTwice(t, c)
		})
	}
}

// TestReduceGenerated: random dependence streams over a few keys, all
// four dependence types mixed, which is where redirect nodes, duplicate
// constraints and long implied edges come from.
func TestReduceGenerated(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			keys := 2 + rng.Intn(6)
			c := recordAndCompile(t, func(g *Graph) {
				for i, n := 0, 20+rng.Intn(200); i < n; i++ {
					var deps []Dep
					for _, k := range rng.Perm(keys)[:1+rng.Intn(min(3, keys))] {
						typ := DepType(rng.Intn(4))
						if rng.Intn(3) == 0 {
							typ = InOutSet
						}
						deps = append(deps, Dep{Key(k + 1), typ})
					}
					g.Submit("t", deps, nil, nil)
				}
			})
			checkReduced(t, c)
			drainTwice(t, c)
		})
	}
}

// TestReduceBanded: random banded DAGs of up to 4 096 positions
// (serve's MaxTasks), from nearly edgeless to dense, in and out of
// topological position order. The dense oracle reduces every one of
// them, and the pass must keep exactly its rows.
func TestReduceBanded(t *testing.T) {
	type shape struct {
		n, window int
		density   float64
	}
	// The corners, then draws log-uniform in all three.
	shapes := []shape{{4096, 4096, 0.05}, {4096, 16, 0.05}, {4096, 4096, 0.0002}, {4096, 16, 0.0002}}
	rng := rand.New(rand.NewSource(1))
	logUniform := func(lo, hi float64) float64 { return lo * math.Exp(rng.Float64()*math.Log(hi/lo)) }
	for len(shapes) < 40 {
		shapes = append(shapes, shape{int(logUniform(64, 4096)), int(logUniform(16, 4096)), logUniform(0.0002, 0.05)})
	}
	for i, s := range shapes {
		shuffled := i%2 == 1
		t.Run(fmt.Sprintf("n%d-w%d-d%.4f-shuffled=%v", s.n, s.window, s.density, shuffled), func(t *testing.T) {
			g := bandedCSR(rng, s.n, s.window, s.density, shuffled)
			if _, ok := denseReduce(g); !ok && g.edges() > 0 {
				t.Fatalf("the dense oracle refuses %d edges", g.edges())
			}
			c := compiledFrom(g)
			c.reduce()
			checkEdges(t, c, g)
			checkReducedCSR(t, g, compiledCSR(c), c.template)
		})
	}
}

// TestReduceRecordedShapes: serve's lattice and the LULESH-shaped step,
// recorded through discovery, reduced as the dense oracle reduces them
// and still drained twice.
func TestReduceRecordedShapes(t *testing.T) {
	shapes := map[string]func(g *Graph){
		"lattice-16x32": lattice(16, 32),
		"lattice-5x13":  lattice(5, 13),
		"lulesh-512":    luleshShaped(512, 16),
	}
	for name, body := range shapes {
		t.Run(name, func(t *testing.T) {
			c := recordAndCompile(t, body)
			if _, ok := denseReduce(declaredCSR(c)); !ok {
				t.Fatalf("the dense oracle refuses %d tasks", c.Len())
			}
			checkReduced(t, c)
			kept, recorded := c.Edges()
			t.Logf("%d tasks, %d of %d edges kept", c.Len(), kept, recorded)
			drainTwice(t, c)
		})
	}
}

// TestReduceAllocation pins the pass's memory on the LULESH-shaped step
// of about 4.7k tasks: the dense sets alone were n*n/8 bytes, 2.6 MiB.
func TestReduceAllocation(t *testing.T) {
	declared := declaredCSR(recordAndCompile(t, luleshShaped(512, 16)))
	c := compiledFrom(declared)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.reduce()
	runtime.ReadMemStats(&after)
	kept, recorded := c.Edges()
	if kept >= recorded {
		t.Fatalf("the pass kept %d of %d edges", kept, recorded)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 512<<10 {
		t.Fatalf("reducing %d tasks and %d edges allocated %d KiB, want at most 512", len(declared), recorded, alloc>>10)
	} else {
		t.Logf("reducing %d tasks and %d edges allocated %d KiB", len(declared), recorded, alloc>>10)
	}
}

// TestReduceFineGrain: the LULESH-shaped step at twice the tasks per
// loop, about 9.3k tasks — more than the dense oracle's budget takes —
// is reduced, exactly, and drains twice.
func TestReduceFineGrain(t *testing.T) {
	c := recordAndCompile(t, luleshShaped(1024, 32))
	if _, ok := denseReduce(declaredCSR(c)); ok {
		t.Fatalf("the dense oracle reduces %d tasks; the case is meant to be beyond it", c.Len())
	}
	kept, recorded := c.Edges()
	if kept >= recorded {
		t.Fatalf("%d tasks: the pass kept %d of %d edges", c.Len(), kept, recorded)
	}
	t.Logf("%d tasks, %d of %d edges kept", c.Len(), kept, recorded)
	checkReduced(t, c)
	drainTwice(t, c)
}

// interleavedChains is m chains of length L over level-major positions
// — element k of chain c at k*m + c, as Kahn's order has them too — each
// with an implied edge from its head to its tail. A chain's elements are
// m positions apart, so an element's set keeps one run per level left
// (m*L*(L+1)/2 runs in all), and the head's edge makes every level
// worth keeping.
func interleavedChains(m, L int) csr {
	g := make(csr, m*L)
	for c := 0; c < m; c++ {
		for k := 0; k+1 < L; k++ {
			g[k*m+c] = append(g[k*m+c], int32((k+1)*m+c))
		}
		g[c] = append(g[c], int32((L-1)*m+c))
	}
	return g
}

// TestReduceLeavesScheduleAlone: over either budget, or on a CSR with a
// cycle, the pass changes nothing.
func TestReduceLeavesScheduleAlone(t *testing.T) {
	// handBuilt is a schedule of n positions in which position p points at
	// p+1 .. p+fan (all but the first of them implied), closed into a
	// cycle if asked.
	handBuilt := func(n, fan int, cycle bool) *Compiled {
		g := make(csr, n)
		for p := 0; p < n; p++ {
			for v := p + 1; v <= p+fan && v < n; v++ {
				g[p] = append(g[p], int32(v))
			}
		}
		if cycle {
			g[n-1] = append(g[n-1], 0)
		}
		return compiledFrom(g)
	}
	untouched := func(t *testing.T, c *Compiled) {
		t.Helper()
		off, succs, tmpl := slices.Clone(c.succOff), slices.Clone(c.succs), slices.Clone(c.template)
		c.reduce()
		if !slices.Equal(off, c.succOff) || !slices.Equal(succs, c.succs) || !slices.Equal(tmpl, c.template) {
			t.Fatalf("the pass edited a schedule it should have left alone")
		}
	}
	t.Run("control", func(t *testing.T) {
		c := handBuilt(500, 4, false)
		c.reduce()
		if kept, recorded := c.Edges(); kept != 499 || recorded <= kept {
			t.Fatalf("within both budgets the pass keeps %d of %d edges, want the 499 of the chain", kept, recorded)
		}
		// Interleaved chains short enough for the arena are reduced.
		c = compiledFrom(interleavedChains(2, 700))
		c.reduce()
		if kept, recorded := c.Edges(); kept != 2*699 || recorded != 2*700 {
			t.Fatalf("two chains of 700 keep %d of %d edges, want the 1398 links", kept, recorded)
		}
	})
	t.Run("cycle", func(t *testing.T) { untouched(t, handBuilt(500, 4, true)) })
	t.Run("scratch-budget", func(t *testing.T) {
		m, L := 2, 4200
		// Every set kept would be 8 bytes a run; the unions would offer
		// each level's runs once more, within the work budget.
		if runs := m * L * (L + 1) / 2; runs*8 <= reduceMaxScratch || 2*runs > reduceMaxWork {
			t.Fatalf("%d runs miss the scratch budget alone", runs)
		}
		untouched(t, compiledFrom(interleavedChains(m, L)))
	})
	// hubbed is a CSR of tops roots, each pointing at a hub (position
	// tops) whose set is R runs apart — its targets x_j become ready one
	// at a time along a chain p_j, each beside a w_j the hub does not
	// reach — with extra positions after the hub left to the caller. It
	// returns the last x.
	hubbed := func(tops, extra, R int) (csr, int32) {
		hub := int32(tops)
		p := func(j int) int32 { return int32(tops + 1 + extra + 3*j) } // j = 0 .. R-1
		g := make(csr, tops+1+extra+3*R)
		for k := 0; k < tops; k++ {
			g[k] = append(g[k], hub)
		}
		for j := 0; j < R; j++ {
			g[hub] = append(g[hub], p(j)+1)
			if j+1 < R {
				g[p(j)] = append(g[p(j)], p(j+1))
			}
			g[p(j)] = append(g[p(j)], p(j)+1, p(j)+2)
		}
		return g, p(R-1) + 1
	}
	t.Run("work-budget", func(t *testing.T) {
		// K tops each point at the hub, at d sinks s between the hub and
		// the x_j, and, implied through the hub, at the last x. A top's
		// set is the hub's, and each sink is merged into it ahead of all R
		// runs: K*d*(R+1) steps, over K*(R+2) runs.
		K, d, R := 210, 120, 2800
		if work, runs := K*d*(R+1), K*(R+2)+4*R; work <= reduceMaxWork || runs*8+(K+2+d+3*R)*24 > reduceMaxScratch {
			t.Fatalf("%d steps over %d runs miss the work budget alone", work, runs)
		}
		g, lastX := hubbed(K, d, R)
		for k := 0; k < K; k++ {
			for s := int32(0); s < int32(d); s++ {
				g[k] = append(g[k], int32(K+1)+s)
			}
			g[k] = append(g[k], lastX)
		}
		untouched(t, compiledFrom(g))
	})
	t.Run("work-as-read", func(t *testing.T) {
		// Within it, because a merge is charged the runs it can read: P
		// tops point at the hub only, so they ask its set about nothing
		// past the hub itself; the first also reaches it through y, an
		// implied edge. Charged the hub's whole set, the tops' merges
		// would come to P*R steps.
		P, R := 30000, 2800
		if P*R <= reduceMaxWork {
			t.Fatalf("%d whole-set steps are within the work budget", P*R)
		}
		g, _ := hubbed(P, 1, R)
		hub, y := int32(P), int32(P+1)
		g[0] = append(g[0], y)
		g[y] = append(g[y], hub)
		c := compiledFrom(g)
		c.reduce()
		checkEdges(t, c, g)
		if kept, recorded := c.Edges(); kept != recorded-1 {
			t.Fatalf("kept %d of %d edges, want all but the first top's edge to the hub", kept, recorded)
		}
		if row := c.succs[c.succOff[0]:c.succOff[1]]; !slices.Equal(row, []int32{y}) {
			t.Fatalf("the first top keeps %v, want [%d]", row, y)
		}
	})
	t.Run("compile-over-budget", func(t *testing.T) {
		// Through Compile: the interleaved chains, recorded, are too large
		// to reduce, keep their implied head-to-tail edges and are
		// replayable as compiled.
		const m, L = 2, 4200
		c := recordAndCompile(t, func(g *Graph) {
			for k := 0; k < L; k++ {
				for ch := 0; ch < m; ch++ {
					link, anti := Key(10*(ch+1)), Key(10*(ch+1)+1)
					switch k {
					case 0:
						g.Submit("head", []Dep{{link, Out}, {anti, In}}, nil, nil)
					case L - 1:
						g.Submit("tail", []Dep{{link, InOut}, {anti, Out}}, nil, nil)
					default:
						g.Submit("link", []Dep{{link, InOut}}, nil, nil)
					}
				}
			}
		})
		if kept, recorded := c.Edges(); kept != recorded || recorded != m*L {
			t.Fatalf("over budget the schedule keeps %d of %d edges, want all %d", kept, recorded, m*L)
		}
		if want, got := declaredCSR(c), compiledCSR(c); !slices.EqualFunc(want, got, slices.Equal) {
			t.Fatalf("over budget the CSR differs from the declared one")
		}
		drainTwice(t, c)
	})
}

// BenchmarkCompile compiles the LULESH-shaped step at 512 and 1 024
// chunks, about 4.7k and 9.3k tasks, and reports what a compile
// allocates and the edges it keeps of those recorded. No timing gate:
// CI runs it once, as a smoke.
func BenchmarkCompile(b *testing.B) {
	for _, chunks := range []int{512, 1024} {
		b.Run(fmt.Sprintf("lulesh-%d", chunks), func(b *testing.B) {
			g := record(luleshShaped(chunks, chunks/32))
			b.ReportAllocs()
			b.ResetTimer()
			var c *Compiled
			for i := 0; i < b.N; i++ {
				var err error
				if c, err = g.Compile(); err != nil {
					b.Fatalf("Compile: %v", err)
				}
			}
			kept, recorded := c.Edges()
			b.ReportMetric(float64(kept), "kept-edges")
			b.ReportMetric(float64(recorded), "recorded-edges")
		})
	}
}
