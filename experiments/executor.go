package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"time"

	"taskdep/internal/graph"
	"taskdep/internal/metg"
	"taskdep/internal/rt"
)

// Executor-throughput benchmark for the execution hot path: the
// scheduler (Chase–Lev deques + parking) and the executor on a
// ready-heavy synthetic graph, sweeping worker count and task grain.
//
// The workload is the gate graph (drainGateGraph): the timed region is a
// pure drain. Task bodies spin a calibrated xorshift loop of Grain
// iterations; Grain 0 is the pure-overhead point, the paper's fine-grain
// limit where executor overhead decides METG.

// ExecutorSchemaVersion identifies the BENCH_executor.json layout.
const ExecutorSchemaVersion = 2

// ExecutorParams sizes the synthetic drain workload.
type ExecutorParams struct {
	GateShape
	Workers []int `json:"workers"` // worker counts to sweep
	Grains  []int `json:"grains"`  // task-body spin iterations to sweep
	Repeats int   `json:"repeats"` // measurement repetitions; best run wins
}

// DefaultExecutorParams is the committed-baseline configuration.
func DefaultExecutorParams() ExecutorParams {
	return ExecutorParams{GateShape: GateShape{Roots: 64, Lanes: 4, Depth: 100}, Workers: []int{1, 2, 4}, Grains: []int{0, 64, 512}, Repeats: 3}
}

// SmokeExecutorParams is the CI configuration: small, same shape.
func SmokeExecutorParams() ExecutorParams {
	return ExecutorParams{GateShape: GateShape{Roots: 16, Lanes: 2, Depth: 30}, Workers: []int{1, 2}, Grains: []int{0, 128}, Repeats: 2}
}

// ExecutorRow is one worker/grain measurement.
type ExecutorRow struct {
	Workers int `json:"workers"`
	Grain   int `json:"grain_iters"` // spin iterations per task body

	GrainNs     float64 `json:"grain_ns"` // calibrated body cost
	WallSeconds float64 `json:"wall_seconds"`
	TasksPerSec float64 `json:"tasks_per_sec"`
	NsPerTask   float64 `json:"ns_per_task"`
	// Efficiency is tasks*grain_ns/(P*wall) with P = min(workers,
	// GOMAXPROCS): the fraction of usable worker-seconds spent in task
	// bodies. 0 for the pure-overhead grain.
	Efficiency float64 `json:"efficiency"`
	Tasks      int64   `json:"tasks_executed"`
}

// ExecutorResult is the benchmark output committed as
// BENCH_executor.json.
type ExecutorResult struct {
	Meta
	Params ExecutorParams `json:"params"`
	Rows   []ExecutorRow  `json:"rows"`

	// METGNs is the METG at 50% efficiency (ns), from the grain sweep at
	// the largest worker count; 0 when no swept grain reached 50%.
	METGNs float64 `json:"metg_ns"`
}

// spin burns roughly iters xorshift steps of CPU and returns their
// state, which keeps the steps live; noinline keeps them at call sites
// that drop the result.
//
//go:noinline
func spin(iters int) uint64 {
	x := uint64(iters)*0x9E3779B97F4A7C15 + 1
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// calibrateSpin measures the per-iteration cost of spin in nanoseconds
// (minimum of a few runs, to shed scheduling noise).
func calibrateSpin() float64 {
	const iters = 1 << 20
	best := float64(0)
	for r := 0; r < 3; r++ {
		start := time.Now()
		spin(iters)
		ns := float64(time.Since(start).Nanoseconds()) / iters
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// runExecutorOnce times the drain of the gate graph on a fresh runtime.
func runExecutorOnce(p ExecutorParams, workers, grain int) (float64, error) {
	r, err := rt.NewRuntime(rt.Config{Workers: workers, Opts: graph.OptAll})
	if err != nil {
		return 0, err
	}
	defer r.Close()
	return drainGateGraph(r, p.GateShape, func(any) { spin(grain) }), nil
}

// runExecutorBest repeats a configuration and keeps the fastest drain.
func runExecutorBest(p ExecutorParams, workers, grain int, nsPerIter float64) (ExecutorRow, error) {
	wall := math.Inf(1)
	for r := 0; r < max(p.Repeats, 1); r++ {
		w, err := runExecutorOnce(p, workers, grain)
		if err != nil {
			return ExecutorRow{}, err
		}
		wall = min(wall, w)
	}
	tasks := p.Tasks()
	grainNs := float64(grain) * nsPerIter
	row := ExecutorRow{
		Workers:     workers,
		Grain:       grain,
		GrainNs:     grainNs,
		WallSeconds: wall,
		TasksPerSec: float64(tasks) / wall,
		NsPerTask:   wall * 1e9 / float64(tasks),
		Tasks:       int64(tasks),
	}
	if grain > 0 {
		pp := min(workers, runtime.GOMAXPROCS(0))
		row.Efficiency = float64(tasks) * grainNs / (float64(pp) * wall * 1e9)
	}
	return row, nil
}

// RunExecutor measures the drain over the worker and grain sweeps.
func RunExecutor(p ExecutorParams) (*ExecutorResult, error) {
	res := &ExecutorResult{Meta: Meta{Schema: ExecutorSchemaVersion}, Params: p}
	nsPerIter := calibrateSpin()
	for _, w := range p.Workers {
		for _, g := range p.Grains {
			row, err := runExecutorBest(p, w, g, nsPerIter)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	res.METGNs = executorMETG(res.Rows, slices.Max(p.Workers))
	return res, nil
}

// executorMETG derives the 50%-efficiency METG from the grain sweep at
// the given worker count; 0 when no swept grain reaches it.
func executorMETG(rows []ExecutorRow, workers int) float64 {
	var samples []metg.EffSample
	for _, r := range rows {
		if r.Workers == workers && r.Grain > 0 {
			samples = append(samples, metg.EffSample{Grain: r.GrainNs, Eff: r.Efficiency})
		}
	}
	m, err := metg.METGFromEfficiency(samples, 0.5)
	if err != nil {
		return 0
	}
	return m
}

// Validate checks the schema and that every point of the sweep ran the
// whole graph.
func (r *ExecutorResult) Validate() error {
	if err := r.checkSchema(ExecutorSchemaVersion); err != nil {
		return err
	}
	if len(r.Rows) == 0 {
		return fmt.Errorf("no rows")
	}
	want := int64(r.Params.Tasks())
	for i, row := range r.Rows {
		if row.Workers <= 0 || row.Grain < 0 {
			return fmt.Errorf("row %d: bad workers/grain", i)
		}
		if row.TasksPerSec <= 0 || row.WallSeconds <= 0 {
			return fmt.Errorf("row %d: non-positive throughput or wall time", i)
		}
		if row.Tasks != want {
			return fmt.Errorf("row %d: executed %d tasks, params imply %d", i, row.Tasks, want)
		}
		if row.Grain == 0 && row.Efficiency != 0 {
			return fmt.Errorf("row %d: zero grain with nonzero efficiency", i)
		}
	}
	return nil
}

// Print renders the result as the EXPERIMENTS.md table.
func (r *ExecutorResult) Print(w io.Writer) {
	fmt.Fprintf(w, "== executor drain throughput (gate graph: %d roots x %d lanes x depth %d = %d tasks) ==\n",
		r.Params.Roots, r.Params.Lanes, r.Params.Depth, r.Params.Tasks())
	fmt.Fprintf(w, "%7s %11s %9s %12s %9s %5s\n",
		"workers", "grain", "grain-ns", "tasks/s", "ns/task", "eff")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%7d %11d %9.0f %12.0f %9.1f %5.2f\n",
			row.Workers, row.Grain, row.GrainNs, row.TasksPerSec, row.NsPerTask, row.Efficiency)
	}
	fmt.Fprintf(w, "METG@50%%: %.0f ns (0 = not reached in sweep)\n", r.METGNs)
}
