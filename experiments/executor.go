package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"time"

	"taskdep/internal/graph"
	"taskdep/internal/metg"
	"taskdep/internal/rt"
)

// Executor-throughput benchmark for the execution hot path: the
// scheduler (Chase–Lev deques + parking) and the executor on a
// ready-heavy synthetic graph, sweeping worker count and task grain.
//
// The workload separates discovery from execution with a detached gate
// task: every root In-depends on a key only the gate writes, so the
// whole graph — Roots independent roots, each fanning into Lanes
// dependence chains of Depth tasks — is submitted while the workers
// have nothing to do (they park). The timed region is gate-fulfill to
// Taskwait return: a pure drain, exercising exactly the hot paths
// (batched successor release, owner-deque LIFO pops, steals, park/wake)
// with zero discovery work mixed in. Task bodies spin a calibrated
// xorshift loop of Grain iterations; Grain 0 is the pure-overhead
// point, the paper's fine-grain limit where executor overhead decides
// METG.

// ExecutorSchemaVersion identifies the BENCH_executor.json layout; bump
// on incompatible changes so stale baselines fail loudly.
const ExecutorSchemaVersion = 2

// ExecutorParams sizes the synthetic drain workload.
type ExecutorParams struct {
	Roots   int   `json:"roots"`   // independent roots released by the gate
	Lanes   int   `json:"lanes"`   // dependence chains per root
	Depth   int   `json:"depth"`   // tasks per chain
	Workers []int `json:"workers"` // worker counts to sweep
	Grains  []int `json:"grains"`  // task-body spin iterations to sweep
	Repeats int   `json:"repeats"` // measurement repetitions; best run wins
}

// Tasks returns the number of executed tasks per run (the gate task is
// excluded: it completes outside the timed region's task accounting).
func (p ExecutorParams) Tasks() int { return p.Roots + p.Roots*p.Lanes*p.Depth }

// DefaultExecutorParams is the committed-baseline configuration.
func DefaultExecutorParams() ExecutorParams {
	return ExecutorParams{Roots: 64, Lanes: 4, Depth: 100, Workers: []int{1, 2, 4}, Grains: []int{0, 64, 512}, Repeats: 3}
}

// SmokeExecutorParams is the CI configuration: small enough for a
// regression gate, same shape.
func SmokeExecutorParams() ExecutorParams {
	return ExecutorParams{Roots: 16, Lanes: 2, Depth: 30, Workers: []int{1, 2}, Grains: []int{0, 128}, Repeats: 2}
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
	Schema int            `json:"schema"`
	Params ExecutorParams `json:"params"`
	Rows   []ExecutorRow  `json:"rows"`

	// METGNs is the METG at 50% efficiency (ns), from the grain sweep at
	// the largest worker count; 0 when no swept grain reached 50%.
	METGNs float64 `json:"metg_ns"`
}

// spinSink defeats dead-code elimination of spin bodies.
var spinSink uint64

// spin burns roughly iters xorshift steps of CPU.
func spin(iters int) {
	x := uint64(iters)*0x9E3779B97F4A7C15 + 1
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink += x
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

// executorKeys lays out the disjoint dependence keys of the gate graph.
const (
	execGateKey graph.Key = 1 << 40
	execRootKey graph.Key = 2 << 40
	execLaneKey graph.Key = 3 << 40
)

// runExecutorOnce builds the gate graph on a fresh runtime and times the
// drain. The submission phase is untimed by construction: nothing is
// ready until the gate's detach event fires.
func runExecutorOnce(p ExecutorParams, workers, grain int) float64 {
	r := rt.New(rt.Config{Workers: workers, Opts: graph.OptAll})
	defer r.Close()

	gate := r.Submit(rt.Spec{
		Label:        "gate",
		Out:          []graph.Key{execGateKey},
		Detached:     true,
		DetachedBody: func(any, *rt.Event) {},
	})
	body := func(any) { spin(grain) }
	specs := make([]rt.Spec, 0, 1+p.Lanes*p.Depth)
	for g := 0; g < p.Roots; g++ {
		specs = specs[:0]
		specs = append(specs, rt.Spec{
			Label: "root",
			In:    []graph.Key{execGateKey},
			Out:   []graph.Key{execRootKey + graph.Key(g)},
			Body:  body,
		})
		for f := 0; f < p.Lanes; f++ {
			lane := execLaneKey + graph.Key(g*p.Lanes+f)
			for i := 0; i < p.Depth; i++ {
				s := rt.Spec{Label: "lane", InOut: []graph.Key{lane}, Body: body}
				if i == 0 {
					s.In = []graph.Key{execRootKey + graph.Key(g)}
				}
				specs = append(specs, s)
			}
		}
		r.SubmitBatch(specs)
	}

	start := time.Now()
	gate.Fulfill()
	r.Taskwait()
	return time.Since(start).Seconds()
}

// runExecutorBest repeats a configuration and keeps the fastest drain.
func runExecutorBest(p ExecutorParams, workers, grain int, nsPerIter float64) ExecutorRow {
	reps := p.Repeats
	if reps < 1 {
		reps = 1
	}
	wall := runExecutorOnce(p, workers, grain)
	for r := 1; r < reps; r++ {
		if w := runExecutorOnce(p, workers, grain); w < wall {
			wall = w
		}
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
		pp := workers
		if mp := runtime.GOMAXPROCS(0); mp < pp {
			pp = mp
		}
		row.Efficiency = float64(tasks) * grainNs / (float64(pp) * wall * 1e9)
	}
	return row
}

// RunExecutor measures the drain over the worker and grain sweeps.
func RunExecutor(p ExecutorParams) ExecutorResult {
	res := ExecutorResult{Schema: ExecutorSchemaVersion, Params: p}
	nsPerIter := calibrateSpin()
	for _, w := range p.Workers {
		for _, g := range p.Grains {
			res.Rows = append(res.Rows, runExecutorBest(p, w, g, nsPerIter))
		}
	}
	res.METGNs = executorMETG(res.Rows, slices.Max(p.Workers))
	return res
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

// Validate checks a result's schema and structural invariants — the
// JSON-shape gate the CI smoke step applies to both the fresh run and
// the committed baseline.
func (r *ExecutorResult) Validate() error {
	if r.Schema != ExecutorSchemaVersion {
		return fmt.Errorf("schema %d, tool expects %d", r.Schema, ExecutorSchemaVersion)
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

// CheckExecutor compares a fresh run against a committed baseline
// result: same schema, and fresh throughput within maxRegress
// of the committed one at every worker/grain point both share. Returns
// nil when the run is acceptable.
func CheckExecutor(fresh, committed *ExecutorResult, maxRegress float64) error {
	if err := fresh.Validate(); err != nil {
		return fmt.Errorf("fresh result: %w", err)
	}
	if err := committed.Validate(); err != nil {
		return fmt.Errorf("committed baseline: %w", err)
	}
	type point struct{ w, g int }
	ref := make(map[point]float64)
	for _, row := range committed.Rows {
		ref[point{row.Workers, row.Grain}] = row.TasksPerSec
	}
	checked := 0
	for _, row := range fresh.Rows {
		want, ok := ref[point{row.Workers, row.Grain}]
		if !ok {
			continue
		}
		checked++
		if row.TasksPerSec*maxRegress < want {
			return fmt.Errorf("throughput at %d workers grain %d is %.0f tasks/s, >%.1fx below committed %.0f",
				row.Workers, row.Grain, row.TasksPerSec, maxRegress, want)
		}
	}
	if checked == 0 {
		return fmt.Errorf("no worker/grain points in common with the committed baseline")
	}
	return nil
}

// WriteJSON serializes the result (stable row order).
func (r *ExecutorResult) WriteJSON(w io.Writer) error {
	sort.SliceStable(r.Rows, func(i, j int) bool {
		a, b := r.Rows[i], r.Rows[j]
		if a.Workers != b.Workers {
			return a.Workers < b.Workers
		}
		return a.Grain < b.Grain
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadExecutorJSON parses a committed result.
func ReadExecutorJSON(data []byte) (*ExecutorResult, error) {
	var r ExecutorResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// PrintExecutor renders the result as the EXPERIMENTS.md table.
func PrintExecutor(w io.Writer, r *ExecutorResult) {
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
