package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"taskdep/internal/graph"
)

// Discovery-throughput benchmark. It measures the graph layer in
// isolation — no executor, no task bodies — on a dedup-heavy synthetic
// workload submitted in batches, by one producer (the paper's model) and
// by Params.Producers concurrent producers on disjoint key ranges. The
// producers take turns on the one discovery lock, so the second row says
// what concurrent submission costs, not what it gains: concurrent
// producers are safe, not scaled.
//
// The workload is the paper's discovery argument in miniature: every
// task InOut-writes one key of a small working set and In-reads two
// neighboring keys, so consecutive tasks keep hitting the same
// dependence frontiers — optimization (b) dedup fires constantly and
// the key table is under maximum pressure. A slice of tasks joins
// inoutset groups to exercise optimization (c)'s redirect path too.

// DiscoverySchemaVersion identifies the BENCH_discovery.json layout.
const DiscoverySchemaVersion = 2

// DiscoveryParams sizes the synthetic workload.
type DiscoveryParams struct {
	Tasks     int `json:"tasks"`     // tasks per producer
	Keys      int `json:"keys"`      // working-set keys per producer
	Producers int `json:"producers"` // concurrent producers (disjoint key ranges)
	BatchLen  int `json:"batch_len"` // SubmitBatch staging length
	SetEvery  int `json:"set_every"` // every n-th task joins an inoutset group (0 = never)
	Repeats   int `json:"repeats"`   // measurement repetitions; best throughput wins
}

// DefaultDiscoveryParams is the committed-baseline configuration.
func DefaultDiscoveryParams() DiscoveryParams {
	return DiscoveryParams{Tasks: 200_000, Keys: 256, Producers: 4, BatchLen: 256, SetEvery: 16, Repeats: 3}
}

// SmokeDiscoveryParams is the CI configuration: small, same shape.
func SmokeDiscoveryParams() DiscoveryParams {
	return DiscoveryParams{Tasks: 30_000, Keys: 128, Producers: 2, BatchLen: 128, SetEvery: 16, Repeats: 2}
}

// DiscoveryRow is the measurement at one producer count.
type DiscoveryRow struct {
	Producers int `json:"producers"` // concurrent producers in this row

	TasksPerSec   float64 `json:"tasks_per_sec"`
	NsPerTask     float64 `json:"ns_per_task"`
	NsPerEdge     float64 `json:"ns_per_edge"`
	AllocsPerTask float64 `json:"allocs_per_task"`
	BytesPerTask  float64 `json:"bytes_per_task"`

	// Edge counters: the before/after of optimizations (b) and (c).
	EdgesAttempted int64 `json:"edges_attempted"`
	EdgesCreated   int64 `json:"edges_created"`
	EdgesDuplicate int64 `json:"edges_duplicate"`
	EdgesPruned    int64 `json:"edges_pruned"`
	RedirectNodes  int64 `json:"redirect_nodes"`
	Tasks          int64 `json:"tasks_discovered"`
}

// DiscoveryResult is the benchmark output committed as
// BENCH_discovery.json.
type DiscoveryResult struct {
	Meta
	Params DiscoveryParams `json:"params"`
	Rows   []DiscoveryRow  `json:"rows"`
}

// appendDiscoveryDeps appends task i's dependence list for a producer
// whose working set starts at base. The keys form pairs: task i InOut-writes
// both keys of pair i%(keys/2) and In-reads both keys of the next pair
// — whose last writer is one single earlier task, so the second read
// (and the second write) resolve to an already-recorded predecessor and
// optimization (b) dedup fires on every task.
func appendDiscoveryDeps(buf []graph.Dep, base graph.Key, i, keys, setEvery int) []graph.Dep {
	pairs := keys / 2
	if pairs < 2 {
		pairs = 2
	}
	p := i % pairs
	q := (p + 1) % pairs
	buf = append(buf,
		graph.Dep{Key: base + graph.Key(2*p), Type: graph.InOut},
		graph.Dep{Key: base + graph.Key(2*p+1), Type: graph.InOut},
		graph.Dep{Key: base + graph.Key(2*q), Type: graph.In},
		graph.Dep{Key: base + graph.Key(2*q+1), Type: graph.In},
	)
	if setEvery > 0 && i%setEvery == 0 {
		buf = append(buf, graph.Dep{Key: base + graph.Key(keys+i%8), Type: graph.InOutSet})
	}
	return buf
}

// runDiscoveryOnce runs one producer count once and returns the
// throughput row. Completion is deliberately outside the timed region:
// the benchmark isolates discovery (SubmitBatch), the paper's
// bottleneck.
func runDiscoveryOnce(p DiscoveryParams, producers int) DiscoveryRow {
	cfg := graph.Config{Opts: graph.OptAll}
	var mu sync.Mutex
	var readyQ []*graph.Task
	cfg.OnReady = func(t *graph.Task) {
		mu.Lock()
		readyQ = append(readyQ, t)
		mu.Unlock()
	}
	cfg.OnReadyBatch = func(ts []*graph.Task) {
		mu.Lock()
		readyQ = append(readyQ, ts...)
		mu.Unlock()
	}
	g := graph.NewWithConfig(cfg)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()

	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			base := graph.Key(pr * (p.Keys + 8) * 4)
			descs := make([]graph.TaskDesc, 0, p.BatchLen)
			depArena := make([]graph.Dep, 0, p.BatchLen*5)
			var tasks []*graph.Task
			for lo := 0; lo < p.Tasks; lo += p.BatchLen {
				descs = descs[:0]
				depArena = depArena[:0]
				for i := lo; i < min(lo+p.BatchLen, p.Tasks); i++ {
					s := len(depArena)
					depArena = appendDiscoveryDeps(depArena, base, i, p.Keys, p.SetEvery)
					descs = append(descs, graph.TaskDesc{Label: "d", Deps: depArena[s:len(depArena):len(depArena)]})
				}
				tasks = g.SubmitBatch(descs, tasks[:0])
			}
		}(pr)
	}
	wg.Wait()
	g.Flush()

	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	// Drain outside the timed region so live==0 and counters quiesce.
	for g.Live() > 0 {
		mu.Lock()
		n := len(readyQ)
		t := readyQ[n-1]
		readyQ = readyQ[:n-1]
		mu.Unlock()
		for _, s := range g.Complete(t) {
			mu.Lock()
			readyQ = append(readyQ, s)
			mu.Unlock()
		}
	}

	st := g.Stats()
	n := float64(producers * p.Tasks)
	row := DiscoveryRow{
		Producers:      producers,
		TasksPerSec:    n / elapsed.Seconds(),
		NsPerTask:      float64(elapsed.Nanoseconds()) / n,
		AllocsPerTask:  float64(m1.Mallocs-m0.Mallocs) / n,
		BytesPerTask:   float64(m1.TotalAlloc-m0.TotalAlloc) / n,
		EdgesAttempted: st.EdgesAttempted,
		EdgesCreated:   st.EdgesCreated,
		EdgesDuplicate: st.EdgesDuplicate,
		EdgesPruned:    st.EdgesPruned,
		RedirectNodes:  st.RedirectNodes,
		Tasks:          st.Tasks,
	}
	if st.EdgesAttempted > 0 {
		row.NsPerEdge = float64(elapsed.Nanoseconds()) / float64(st.EdgesAttempted)
	}
	return row
}

// RunDiscovery measures discovery at one and at Params.Producers
// producers, keeping the highest-throughput repeat of each (the one with
// the least interference).
func RunDiscovery(p DiscoveryParams) *DiscoveryResult {
	res := &DiscoveryResult{Meta: Meta{Schema: DiscoverySchemaVersion}, Params: p}
	counts := []int{1}
	if p.Producers > 1 {
		counts = append(counts, p.Producers)
	}
	for _, n := range counts {
		best := runDiscoveryOnce(p, n)
		for r := 1; r < p.Repeats; r++ {
			if row := runDiscoveryOnce(p, n); row.TasksPerSec > best.TasksPerSec {
				best = row
			}
		}
		res.Rows = append(res.Rows, best)
	}
	return res
}

// Validate checks the schema and what every run owes whatever its size:
// every task discovered, and the edge counters balanced.
func (r *DiscoveryResult) Validate() error {
	if err := r.checkSchema(DiscoverySchemaVersion); err != nil {
		return err
	}
	if len(r.Rows) == 0 {
		return fmt.Errorf("no rows")
	}
	for i, row := range r.Rows {
		if row.TasksPerSec <= 0 || row.Producers <= 0 {
			return fmt.Errorf("row %d: non-positive throughput or producers", i)
		}
		if want := int64(row.Producers*r.Params.Tasks) + row.RedirectNodes; row.Tasks != want {
			return fmt.Errorf("row %d: %d tasks discovered, %d submitted and redirect nodes", i, row.Tasks, want)
		}
		if row.EdgesAttempted != row.EdgesCreated+row.EdgesPruned+row.EdgesDuplicate {
			return fmt.Errorf("row %d: edge counters unbalanced", i)
		}
	}
	return nil
}

// Print renders the result as the EXPERIMENTS.md table.
func (r *DiscoveryResult) Print(w io.Writer) {
	fmt.Fprintf(w, "== discovery throughput (dedup-heavy synthetic, %d tasks x %d producers max) ==\n",
		r.Params.Tasks, r.Params.Producers)
	fmt.Fprintf(w, "%5s %12s %9s %9s %8s %8s %11s %9s %9s\n",
		"prod", "tasks/s", "ns/task", "ns/edge", "allocs/t", "B/task", "edges-att", "dedup", "redirects")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%5d %12.0f %9.1f %9.2f %8.2f %8.1f %11d %9d %9d\n",
			row.Producers, row.TasksPerSec, row.NsPerTask, row.NsPerEdge,
			row.AllocsPerTask, row.BytesPerTask, row.EdgesAttempted, row.EdgesDuplicate, row.RedirectNodes)
	}
}
