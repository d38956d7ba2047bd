package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"taskdep/internal/graph"
)

// Discovery-throughput benchmark. It measures the graph layer in
// isolation — no executor, no task bodies — on a dedup-heavy synthetic
// workload submitted in batches by one producer, the paper's model.
//
// The workload is the paper's discovery argument in miniature: every
// task InOut-writes one key of a small working set and In-reads two
// neighboring keys, so consecutive tasks keep hitting the same
// dependence frontiers — optimization (b) dedup fires constantly and
// the key table is under maximum pressure. A slice of tasks joins
// inoutset groups to exercise optimization (c)'s redirect path too.

// DiscoverySchemaVersion identifies the BENCH_discovery.json layout.
const DiscoverySchemaVersion = 3

// DiscoveryParams sizes the synthetic workload.
type DiscoveryParams struct {
	Tasks    int `json:"tasks"`     // tasks submitted
	Keys     int `json:"keys"`      // working-set keys
	BatchLen int `json:"batch_len"` // SubmitBatch staging length
	SetEvery int `json:"set_every"` // every n-th task joins an inoutset group (0 = never)
	Repeats  int `json:"repeats"`   // measurement repetitions; best throughput wins
}

// DefaultDiscoveryParams is the committed-baseline configuration.
func DefaultDiscoveryParams() DiscoveryParams {
	return DiscoveryParams{Tasks: 200_000, Keys: 256, BatchLen: 256, SetEvery: 16, Repeats: 3}
}

// SmokeDiscoveryParams is the CI configuration: small, same shape.
func SmokeDiscoveryParams() DiscoveryParams {
	return DiscoveryParams{Tasks: 30_000, Keys: 128, BatchLen: 128, SetEvery: 16, Repeats: 2}
}

// DiscoveryRow is the measurement.
type DiscoveryRow struct {
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
	Row    DiscoveryRow    `json:"row"`
}

// fillDiscoveryDesc appends task i's dependence keys to arena, points
// d's lists at them and returns the extended arena. The keys form pairs:
// task i In-reads both keys of pair (i+1)%(keys/2) and InOut-writes both
// keys of pair i%(keys/2) — each pair's last writer is one single earlier
// task, so the second read (and the second write) resolve to an
// already-recorded predecessor and optimization (b) dedup fires on every
// task.
func fillDiscoveryDesc(d *graph.TaskDesc, arena []graph.Key, i, keys, setEvery int) []graph.Key {
	pairs := keys / 2
	if pairs < 2 {
		pairs = 2
	}
	p := i % pairs
	q := (p + 1) % pairs
	s := len(arena)
	arena = append(arena, graph.Key(2*q), graph.Key(2*q+1), graph.Key(2*p), graph.Key(2*p+1))
	d.Label = "d"
	d.In, d.InOut, d.InOutSet = arena[s:s+2:s+2], arena[s+2:s+4:s+4], nil
	if setEvery > 0 && i%setEvery == 0 {
		arena = append(arena, graph.Key(keys+i%8))
		d.InOutSet = arena[s+4 : s+5 : s+5]
	}
	return arena
}

// runDiscoveryOnce runs the workload once and returns the throughput
// row. Completion is deliberately outside the timed region: the
// benchmark isolates discovery (SubmitBatch), the paper's bottleneck.
func runDiscoveryOnce(p DiscoveryParams) DiscoveryRow {
	var ready []*graph.Task
	g := graph.NewWithConfig(graph.Config{
		Opts:         graph.OptAll,
		OnReady:      func(t *graph.Task) { ready = append(ready, t) },
		OnReadyBatch: func(ts []*graph.Task) { ready = append(ready, ts...) },
	})
	descs := make([]graph.TaskDesc, 0, p.BatchLen)
	keyArena := make([]graph.Key, 0, p.BatchLen*5)
	var tasks []*graph.Task

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for lo := 0; lo < p.Tasks; lo += p.BatchLen {
		hi := min(lo+p.BatchLen, p.Tasks)
		descs = descs[:hi-lo]
		keyArena = keyArena[:0]
		for i := lo; i < hi; i++ {
			keyArena = fillDiscoveryDesc(&descs[i-lo], keyArena, i, p.Keys, p.SetEvery)
		}
		tasks = g.SubmitBatch(descs, tasks[:0])
	}
	g.Flush()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	// Drain outside the timed region so live==0 and counters quiesce.
	for g.Live() > 0 {
		t := ready[len(ready)-1]
		ready = append(ready[:len(ready)-1], g.Complete(t)...)
	}

	st := g.Stats()
	n := float64(p.Tasks)
	row := DiscoveryRow{
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

// RunDiscovery measures discovery, keeping the highest-throughput repeat
// (the one with the least interference).
func RunDiscovery(p DiscoveryParams) *DiscoveryResult {
	best := runDiscoveryOnce(p)
	for r := 1; r < p.Repeats; r++ {
		if row := runDiscoveryOnce(p); row.TasksPerSec > best.TasksPerSec {
			best = row
		}
	}
	return &DiscoveryResult{Meta: Meta{Schema: DiscoverySchemaVersion}, Params: p, Row: best}
}

// Validate checks the schema and what every run owes whatever its size:
// every task discovered, and the edge counters balanced.
func (r *DiscoveryResult) Validate() error {
	if err := r.checkSchema(DiscoverySchemaVersion); err != nil {
		return err
	}
	row := r.Row
	if row.TasksPerSec <= 0 {
		return fmt.Errorf("non-positive throughput")
	}
	if want := int64(r.Params.Tasks) + row.RedirectNodes; row.Tasks != want {
		return fmt.Errorf("%d tasks discovered, %d submitted and redirect nodes", row.Tasks, want)
	}
	if row.EdgesAttempted != row.EdgesCreated+row.EdgesPruned+row.EdgesDuplicate {
		return fmt.Errorf("edge counters unbalanced")
	}
	return nil
}

// Print renders the result as the EXPERIMENTS.md table.
func (r *DiscoveryResult) Print(w io.Writer) {
	fmt.Fprintf(w, "== discovery throughput (dedup-heavy synthetic, %d tasks, one producer) ==\n", r.Params.Tasks)
	fmt.Fprintf(w, "%12s %9s %9s %8s %8s %11s %9s %9s\n",
		"tasks/s", "ns/task", "ns/edge", "allocs/t", "B/task", "edges-att", "dedup", "redirects")
	row := r.Row
	fmt.Fprintf(w, "%12.0f %9.1f %9.2f %8.2f %8.1f %11d %9d %9d\n",
		row.TasksPerSec, row.NsPerTask, row.NsPerEdge,
		row.AllocsPerTask, row.BytesPerTask, row.EdgesAttempted, row.EdgesDuplicate, row.RedirectNodes)
}
