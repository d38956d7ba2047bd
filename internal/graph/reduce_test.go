package graph

import (
	"fmt"
	"math/rand"
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
	epoch := c.tasks[0].recordEpoch
	for p, t := range c.tasks {
		for seg, w := t.walkSuccs(t.NumSuccessors()); len(seg) > 0; seg = w.next() {
			for _, s := range seg {
				if s.Persistent && s.recordEpoch == epoch {
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

// closure returns, per position, the set of positions reachable from it
// by at least one edge, by depth-first search from every position —
// nothing shared with the pass under test.
func (g csr) closure() [][]bool {
	n := len(g)
	reach := make([][]bool, n)
	for s := range g {
		seen := make([]bool, n)
		stack := append([]int32(nil), g[s]...)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !seen[v] {
				seen[v] = true
				stack = append(stack, g[v]...)
			}
		}
		reach[s] = seen
	}
	return reach
}

// checkReduced verifies everything the reduction promises about c
// against the recording it was compiled from.
func checkReduced(t *testing.T, c *Compiled) {
	t.Helper()
	declared, kept := declaredCSR(c), compiledCSR(c)
	n := len(c.tasks)
	edges := 0
	indeg := make([]int32, n)
	for p, row := range kept {
		edges += len(row)
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
	if k, rec := c.Edges(); k != edges || rec != c.edgesRecorded {
		t.Fatalf("Edges() = %d, %d; the CSR has %d, recorded %d", k, rec, edges, c.edgesRecorded)
	}
	want, got := declared.closure(), kept.closure()
	for u := range want {
		if !slices.Equal(want[u], got[u]) {
			t.Fatalf("reachability from position %d changed", u)
		}
	}
	// No kept edge is implied by the others: v is not reachable from any
	// other kept successor of u (and is kept once).
	for u, row := range kept {
		for i, v := range row {
			for j, w := range row {
				if i != j && (w == v || got[w][v]) {
					t.Fatalf("kept edge %d -> %d is implied through %d", u, v, w)
				}
			}
		}
	}
	roots := 0
	for p, task := range c.tasks {
		if c.template[p] != indeg[p] {
			t.Fatalf("template[%d] = %d, the CSR has %d incoming edges", p, c.template[p], indeg[p])
		}
		switch {
		case task.recordedIndegree == 0:
			if roots >= len(c.roots) || c.roots[roots] != task {
				t.Fatalf("position %d has no declared predecessor and is not root %d", p, roots)
			}
			roots++
		case indeg[p] == 0:
			t.Fatalf("position %d lost all %d of its predecessors", p, task.recordedIndegree)
		}
	}
	if roots != len(c.roots) {
		t.Fatalf("%d roots, %d positions without a declared predecessor", len(c.roots), roots)
	}
}

// recordAndCompile records the submissions made by body and compiles
// them.
func recordAndCompile(t *testing.T, body func(g *Graph)) *Compiled {
	t.Helper()
	g, col := newTestGraph(OptAll)
	g.BeginRecording()
	body(g)
	g.Flush()
	g.EndRecording()
	col.drain(g)
	c, err := g.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return c
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
			if err := c.BeginIteration(); err != nil {
				t.Fatalf("BeginIteration: %v", err)
			}
			if got := len(drainSchedule(c)); got != c.Len() {
				t.Fatalf("drained %d of %d tasks", got, c.Len())
			}
			if live := c.g.Live(); live != 0 {
				t.Fatalf("live = %d after the drain", live)
			}
		})
	}
}

// TestReduceLeavesScheduleAlone: over either budget, or on a CSR with a
// cycle, the pass changes nothing.
func TestReduceLeavesScheduleAlone(t *testing.T) {
	// handBuilt is a schedule of n positions in which position p points at
	// p+1 .. p+fan (all but the first of them implied), closed into a
	// cycle if asked.
	handBuilt := func(n, fan int, cycle bool) *Compiled {
		c := &Compiled{tasks: make([]*Task, n), succOff: make([]int32, n+1), template: make([]int32, n)}
		for p := 0; p < n; p++ {
			c.succOff[p] = int32(len(c.succs))
			for v := p + 1; v <= p+fan && v < n; v++ {
				c.succs = append(c.succs, int32(v))
				c.template[v]++
			}
			if cycle && p == n-1 {
				c.succs = append(c.succs, 0)
				c.template[0]++
			}
		}
		c.succOff[n] = int32(len(c.succs))
		c.edgesRecorded = len(c.succs)
		return c
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
	})
	t.Run("cycle", func(t *testing.T) { untouched(t, handBuilt(500, 4, true)) })
	t.Run("scratch-budget", func(t *testing.T) {
		n := 8500 // 8500 * 133 words * 8 bytes > 8 MiB
		if n*((n+63)/64)*8 <= reduceMaxScratch {
			t.Fatalf("test size is within the scratch budget")
		}
		untouched(t, handBuilt(n, 3, false))
	})
	t.Run("work-budget", func(t *testing.T) {
		n, fan := 8000, 72 // within the scratch budget; (edges+n) * 125 words > 2^26
		c := handBuilt(n, fan, false)
		if n*((n+63)/64)*8 > reduceMaxScratch || (len(c.succs)+n)*((n+63)/64) <= reduceMaxWork {
			t.Fatalf("test size misses the work budget alone")
		}
		untouched(t, c)
	})
	t.Run("compile-over-budget", func(t *testing.T) {
		// Through Compile: a recording too large to reduce keeps its
		// implied edges (the writer of key 2 precedes every link anyway)
		// and is replayable as compiled.
		c := recordAndCompile(t, func(g *Graph) {
			g.Submit("head", []Dep{{1, Out}, {2, Out}}, nil, nil)
			for i := 0; i < 8500; i++ {
				g.Submit("link", []Dep{{1, InOut}, {2, In}}, nil, nil)
			}
		})
		// 8 500 chain edges and head -> link for every link but the first,
		// where it is the chain edge (a duplicate, never recorded).
		if kept, recorded := c.Edges(); kept != recorded || recorded != 2*8500-1 {
			t.Fatalf("over budget the schedule keeps %d of %d edges, want all 16999", kept, recorded)
		}
		if want, got := declaredCSR(c), compiledCSR(c); !slices.EqualFunc(want, got, func(a, b []int32) bool { return slices.Equal(a, b) }) {
			t.Fatalf("over budget the CSR differs from the declared one")
		}
		if err := c.BeginIteration(); err != nil {
			t.Fatalf("BeginIteration: %v", err)
		}
		if got := len(drainSchedule(c)); got != c.Len() {
			t.Fatalf("drained %d of %d tasks", got, c.Len())
		}
		if live := c.g.Live(); live != 0 {
			t.Fatalf("live = %d after the drain", live)
		}
	})
}
