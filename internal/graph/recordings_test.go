package graph_test

// The transitive reduction on the recordings the benchmark replays:
// LULESH and HPCG recorded by their persistent task drivers through the
// runtime, each compiled schedule checked against a bitset reduction of
// its recording written here, independent of reduce.go and of the
// dense oracle in reduce_test.go.

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"testing"

	"taskdep/apps/hpcg"
	"taskdep/apps/lulesh"
	"taskdep/internal/graph"
	"taskdep/internal/mpi"
	"taskdep/internal/rt"
)

// TestReduceBenchmarkRecordings records LULESH (S 32, TPL 512, merged
// keys) and HPCG (32³ per rank, TPL 64, two ranks) in a persistent
// region, as the lulesh_persist and hpcg_mpi workloads do, and checks
// each compiled schedule against its recording: the same reachability
// from every position, and as many kept edges as the recording's
// transitive reduction has. It logs the recording's redirect-node
// census and the edges a reduction would keep with every redirect node
// dissolved into direct edges (ROADMAP X).
func TestReduceBenchmarkRecordings(t *testing.T) {
	cfg := rt.Config{Workers: 1, Opts: graph.OptAll}
	t.Run("lulesh", func(t *testing.T) {
		d, err := lulesh.NewDomain(lulesh.Params{S: 32, Iters: 2, Ranks: 1})
		if err != nil {
			t.Fatal(err)
		}
		r, err := rt.NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if err := lulesh.RunTask(d, r, nil, lulesh.TaskConfig{TPL: 512, Persistent: true, MinimizeDeps: true}); err != nil {
			t.Fatal(err)
		}
		checkRecording(t, r.Graph())
	})
	t.Run("hpcg", func(t *testing.T) {
		const ranks = 2
		var mu sync.Mutex
		graphs := make([]*graph.Graph, ranks)
		runtimes := make([]*rt.Runtime, ranks)
		mpi.NewWorld(ranks).Run(func(c *mpi.Comm) {
			fail := func(err error) {
				mu.Lock()
				t.Error(err)
				mu.Unlock()
				c.Abort(err)
			}
			pr, err := hpcg.New(hpcg.Params{NX: 32, NY: 32, NZ: 32, Iters: 2, Ranks: ranks, Rank: c.Rank()})
			if err != nil {
				fail(err)
				return
			}
			r, err := rt.NewRuntime(cfg)
			if err != nil {
				fail(err)
				return
			}
			runtimes[c.Rank()] = r
			if err := pr.RunTask(r, c, hpcg.TaskConfig{TPL: 64, SpMVSub: 4, Persistent: true}); err != nil {
				fail(err)
				return
			}
			graphs[c.Rank()] = r.Graph()
		})
		for _, r := range runtimes {
			if r != nil {
				defer r.Close()
			}
		}
		if t.Failed() {
			return
		}
		for rank, g := range graphs {
			t.Run(fmt.Sprintf("rank%d", rank), func(t *testing.T) { checkRecording(t, g) })
		}
	})
}

// checkRecording compiles g's latest recording and checks the schedule
// against a bitset reduction of it.
func checkRecording(t *testing.T, g *graph.Graph) {
	t.Helper()
	c, err := g.CompileRecording()
	if err != nil {
		t.Fatal(err)
	}
	tasks := c.Tasks()
	pos := make(map[*graph.Task]int32, len(tasks))
	for p, task := range tasks {
		pos[task] = int32(p)
	}
	declared := make([][]int32, len(tasks))
	for p, task := range tasks {
		for _, s := range task.Successors() {
			if q, ok := pos[s]; ok {
				declared[p] = append(declared[p], q)
			}
		}
	}
	kept := c.KeptRows()
	wantReach, wantKept := bitsetReduction(t, declared)
	gotReach, _ := bitsetReduction(t, kept)
	for p := range tasks {
		if !slices.Equal(wantReach[p], gotReach[p]) {
			t.Fatalf("position %d (%q) reaches %d positions in the schedule, %d in the recording",
				p, tasks[p].Label, onesOf(gotReach[p]), onesOf(wantReach[p]))
		}
	}
	k, recorded := c.Edges()
	if recorded != edgesOf(declared) || k != edgesOf(kept) || k != wantKept {
		t.Fatalf("Edges() = %d kept, %d recorded; the recording has %d edges, its reduction %d; the schedule's rows hold %d",
			k, recorded, edgesOf(declared), wantKept, edgesOf(kept))
	}
	t.Logf("%d tasks: %d of %d edges kept", len(tasks), k, recorded)
	logRedirectCensus(t, tasks, declared)
}

// logRedirectCensus logs the recording's redirect nodes — how many, the
// in-edges of those with no successor inside the recording, the in- and
// out-degree ranges of the others — and the edges the reduction keeps
// with every redirect node dissolved into direct edges from each of its
// predecessors to each of its successors (redirect nodes expanded
// transitively).
func logRedirectCensus(t *testing.T, tasks []*graph.Task, declared [][]int32) {
	t.Helper()
	in := make([]int, len(tasks))
	for _, row := range declared {
		for _, v := range row {
			in[v]++
		}
	}
	var nodes, exits, exitIn, minIn, maxIn, minOut, maxOut int
	exitsByIn := map[int]int{}
	for p, task := range tasks {
		if !task.Redirect {
			continue
		}
		nodes++
		if out := len(declared[p]); out == 0 {
			exits++
			exitIn += in[p]
			exitsByIn[in[p]]++
		} else {
			if minIn == 0 || in[p] < minIn {
				minIn = in[p]
			}
			if minOut == 0 || out < minOut {
				minOut = out
			}
			maxIn, maxOut = max(maxIn, in[p]), max(maxOut, out)
		}
	}
	dissolved := make([][]int32, len(tasks))
	var expand func(p int32, into []int32) []int32
	expand = func(p int32, into []int32) []int32 {
		for _, v := range declared[p] {
			if tasks[v].Redirect {
				into = expand(v, into)
			} else {
				into = append(into, v)
			}
		}
		return into
	}
	for p, task := range tasks {
		if !task.Redirect {
			dissolved[p] = expand(int32(p), nil)
		}
	}
	_, dissolvedKept := bitsetReduction(t, dissolved)
	t.Logf("%d redirect nodes: %d without a successor in the recording (%d in-edges; count by in-degree %v), %d others with %d-%d in-edges and %d-%d out-edges; dissolving them all keeps %d edges over %d tasks",
		nodes, exits, exitIn, exitsByIn, nodes-exits, minIn, maxIn, minOut, maxOut, dissolvedKept, len(tasks)-nodes)
}

// bitsetReduction returns, for the DAG rows, the positions each
// position reaches by one edge or more (a bitset per position, filled in
// reverse Kahn order) and the size of its transitive reduction: u -> v is
// kept, once, when no other successor of u reaches v.
func bitsetReduction(t *testing.T, rows [][]int32) (reach [][]uint64, kept int) {
	t.Helper()
	n := len(rows)
	words := (n + 63) / 64
	indeg := make([]int, n)
	for _, row := range rows {
		for _, v := range row {
			indeg[v]++
		}
	}
	order := make([]int32, 0, n)
	for p, d := range indeg {
		if d == 0 {
			order = append(order, int32(p))
		}
	}
	for i := 0; i < len(order); i++ {
		for _, v := range rows[order[i]] {
			if indeg[v]--; indeg[v] == 0 {
				order = append(order, v)
			}
		}
	}
	if len(order) != n {
		t.Fatalf("the rows have a cycle: %d of %d positions in Kahn order", len(order), n)
	}
	reach = make([][]uint64, n)
	via := make([]uint64, words)
	for i := n - 1; i >= 0; i-- {
		u := order[i]
		r := make([]uint64, words)
		clear(via)
		for _, v := range rows[u] {
			r[v>>6] |= 1 << (v & 63)
			for k, w := range reach[v] {
				r[k] |= w
				via[k] |= w
			}
		}
		reach[u] = r
		seen := map[int32]bool{}
		for _, v := range rows[u] {
			if !seen[v] && via[v>>6]&(1<<(v&63)) == 0 {
				kept++
			}
			seen[v] = true
		}
	}
	return reach, kept
}

func edgesOf(rows [][]int32) int {
	e := 0
	for _, row := range rows {
		e += len(row)
	}
	return e
}

func onesOf(set []uint64) int {
	c := 0
	for _, w := range set {
		c += bits.OnesCount64(w)
	}
	return c
}
