package experiments

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"taskdep/internal/graph"
	"taskdep/internal/obs"
	"taskdep/internal/rt"
)

// Persistent-replay benchmark. It runs the two iteration-loop shapes the
// paper's optimization (p) targets — a tiled Cholesky factorization sweep
// and a LULESH-like staged stencil with an inoutset timestep reduction —
// with empty task bodies, so the measured time is pure runtime machinery,
// and compares two replay strategies, both on the compiled schedule:
//
//	adaptive        — Adaptive(never-changed): the body re-runs every
//	                  iteration and each Submit degenerates to the
//	                  recorded task's firstprivate update and the drop
//	                  of the producer's hold on the compiled schedule
//	frozen-compiled — Frozen(): the compiled flat schedule (CSR
//	                  successors, one-copy predecessor reset), roots
//	                  seeded, no body
//
// The bodies resubmit specs built once, as the application drivers do
// (a Spec's key slices escape through Submit, so a body that builds them
// per call allocates them per call — the body's cost, not the runtime's):
// what a steady-state iteration allocates is then the runtime's alone,
// and zero on both rows.
//
// Replay cost is isolated by differencing two region lengths: the wall
// time of Persistent(WarmIters) — which contains the recording and the
// pool/deque warm-up — is subtracted from Persistent(Iters), leaving
// (Iters-WarmIters) steady-state replay iterations. Allocations are
// differenced the same way from runtime.MemStats.Mallocs, which is how
// the "0 allocs/task in steady-state replay" claim is held.

// ReplaySchemaVersion identifies the BENCH_replay.json layout.
const ReplaySchemaVersion = 2

// ReplayParams sizes the two workloads and the measurement.
type ReplayParams struct {
	// CholTiles is the Cholesky tile count T: one iteration submits the
	// full right-looking sweep (T potrf + T(T-1)/2 trsm + T(T-1)/2 syrk
	// + C(T,3) gemm tasks).
	CholTiles int `json:"chol_tiles"`
	// LuleshChunks/LuleshStages size the staged stencil: per iteration,
	// Stages x Chunks neighbor-dependent chunk tasks, then a Chunks-wide
	// inoutset dt reduction and one dt apply.
	LuleshChunks int `json:"lulesh_chunks"`
	LuleshStages int `json:"lulesh_stages"`
	// WarmIters/Iters are the two differenced region lengths.
	WarmIters int `json:"warm_iters"`
	Iters     int `json:"iters"`
	Repeats   int `json:"repeats"` // interleaved; best delta wins
	Workers   int `json:"workers"`
}

// DefaultReplayParams is the committed-baseline configuration. One
// worker: the replay machinery cost per task is maximally visible when
// no parallel slack hides it.
func DefaultReplayParams() ReplayParams {
	return ReplayParams{
		CholTiles: 16, LuleshChunks: 32, LuleshStages: 8,
		WarmIters: 3, Iters: 35, Repeats: 5, Workers: 1,
	}
}

// SmokeReplayParams is the CI configuration: same shape, small. As many measured iterations as the default, though: a
// 61-task iteration replays in 4 µs, and over 8 of them the differenced
// wall clock came out non-positive, and half a dozen stray runtime
// allocations came out above the gate, one run in five.
func SmokeReplayParams() ReplayParams {
	return ReplayParams{
		CholTiles: 8, LuleshChunks: 12, LuleshStages: 4,
		WarmIters: 2, Iters: 34, Repeats: 3, Workers: 1,
	}
}

// choleskyTasks is the per-iteration task count of the tiled sweep.
func choleskyTasks(tiles int) int {
	n := 0
	for k := 0; k < tiles; k++ {
		m := tiles - k - 1
		n += 1 + m + m + m*(m-1)/2 // potrf + trsm + syrk + gemm
	}
	return n
}

// luleshTasks is the per-iteration task count of the staged stencil.
func luleshTasks(chunks, stages int) int {
	return stages*chunks + chunks + 1 // stages + dt reduction + dt apply
}

// TasksPerIter returns the per-workload per-iteration task counts.
func (p ReplayParams) TasksPerIter(workload string) int {
	switch workload {
	case "cholesky":
		return choleskyTasks(p.CholTiles)
	case "lulesh":
		return luleshTasks(p.LuleshChunks, p.LuleshStages)
	}
	return 0
}

// replayTile keys the Cholesky tiles (distinct from the lulesh key
// space; runtimes are per-measurement anyway).
func replayTile(i, j int) graph.Key {
	return graph.Key(1<<40 | uint64(i)<<20 | uint64(j))
}

// resubmit returns a region body that submits specs, one Submit each.
func resubmit(r *rt.Runtime, specs []rt.Spec) func(int) {
	return func(int) {
		for i := range specs {
			r.Submit(specs[i])
		}
	}
}

// choleskyReplayBody is apps/cholesky's single-rank taskFactor loop
// with no-op kernels, one Submit per task.
func choleskyReplayBody(r *rt.Runtime, tiles int) func(int) {
	return resubmit(r, choleskySpecs(tiles, func(any) {}))
}

// choleskySpecs is the tiled right-looking sweep with every kernel
// replaced by body.
func choleskySpecs(tiles int, body func(any)) []rt.Spec {
	var specs []rt.Spec
	for k := 0; k < tiles; k++ {
		specs = append(specs, rt.Spec{
			Label: "potrf",
			InOut: []graph.Key{replayTile(k, k)},
			Body:  body,
		})
		for i := k + 1; i < tiles; i++ {
			specs = append(specs, rt.Spec{
				Label: "trsm",
				In:    []graph.Key{replayTile(k, k)},
				InOut: []graph.Key{replayTile(i, k)},
				Body:  body,
			})
		}
		for j := k + 1; j < tiles; j++ {
			specs = append(specs, rt.Spec{
				Label: "syrk",
				In:    []graph.Key{replayTile(j, k)},
				InOut: []graph.Key{replayTile(j, j)},
				Body:  body,
			})
			for i := j + 1; i < tiles; i++ {
				specs = append(specs, rt.Spec{
					Label: "gemm",
					In:    []graph.Key{replayTile(i, k), replayTile(j, k)},
					InOut: []graph.Key{replayTile(i, j)},
					Body:  body,
				})
			}
		}
	}
	return specs
}

// luleshReplayBody mirrors apps/lulesh's per-chunk driver: staged
// neighbor stencils over field keys submitted one task at a time, then
// an inoutset dt reduction and a single consumer — the shape that
// exercises redirect nodes on the replay path.
func luleshReplayBody(r *rt.Runtime, chunks, stages int) func(int) {
	nop := func(any) {}
	key := func(stage, c int) graph.Key { return graph.Key(2<<40 | uint64(stage)<<20 | uint64(c)) }
	const dtKey = graph.Key(3 << 40)
	var specs []rt.Spec
	for s := 0; s < stages; s++ {
		for c := 0; c < chunks; c++ {
			sp := rt.Spec{Label: "stage", Out: []graph.Key{key(s, c)}, Body: nop}
			if s > 0 {
				sp.In = append(sp.In, key(s-1, c))
				if c > 0 {
					sp.In = append(sp.In, key(s-1, c-1))
				}
				if c < chunks-1 {
					sp.In = append(sp.In, key(s-1, c+1))
				}
			}
			specs = append(specs, sp)
		}
	}
	for c := 0; c < chunks; c++ {
		specs = append(specs, rt.Spec{
			Label:    "dtred",
			In:       []graph.Key{key(stages-1, c)},
			InOutSet: []graph.Key{dtKey},
			Body:     nop,
		})
	}
	specs = append(specs, rt.Spec{Label: "dtapply", InOut: []graph.Key{dtKey}, Body: nop})
	return resubmit(r, specs)
}

// replayModes enumerates the swept strategies.
var replayModes = []struct {
	name   string
	frozen bool
}{
	{"adaptive", false},
	{"frozen-compiled", true},
}

// runReplayOnce runs one Persistent region of the given length and
// returns its wall time and heap allocation count.
func runReplayOnce(p ReplayParams, workload, mode string, frozen bool, iters int) (wall float64, mallocs uint64, err error) {
	r, err := rt.NewRuntime(rt.Config{
		Workers: p.Workers,
		Opts:    graph.OptAll,
		Obs:     obs.Options{Disable: true},
	})
	if err != nil {
		return 0, 0, err
	}
	defer r.Close()
	var body func(int)
	switch workload {
	case "cholesky":
		body = choleskyReplayBody(r, p.CholTiles)
	case "lulesh":
		body = luleshReplayBody(r, p.LuleshChunks, p.LuleshStages)
	default:
		return 0, 0, fmt.Errorf("unknown workload %q", workload)
	}
	var opts []rt.PersistentOption
	if frozen {
		opts = append(opts, rt.Frozen())
	} else {
		opts = append(opts, rt.Adaptive(func(int) bool { return false }))
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	perr := r.Persistent(iters, body, opts...)
	wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	if perr != nil {
		return 0, 0, fmt.Errorf("%s/%s: %w", workload, mode, perr)
	}
	return wall, m1.Mallocs - m0.Mallocs, nil
}

// ReplayRow is one workload/mode steady-state measurement.
type ReplayRow struct {
	Workload     string `json:"workload"`
	Mode         string `json:"mode"`
	TasksPerIter int    `json:"tasks_per_iter"`
	// ReplayNsPerTask is the differenced steady-state cost: (wall(Iters)
	// - wall(WarmIters)) / ((Iters-WarmIters) * TasksPerIter).
	ReplayNsPerTask float64 `json:"replay_ns_per_task"`
	AllocsPerIter   float64 `json:"allocs_per_iter"`
	AllocsPerTask   float64 `json:"allocs_per_task"`
}

// ReplaySpeedup is the frozen iteration's throughput ratio to the gated
// (body re-run) one, per workload.
type ReplaySpeedup struct {
	Workload           string  `json:"workload"`
	CompiledVsAdaptive float64 `json:"compiled_vs_adaptive"`
}

// ReplayResult is the benchmark output committed as BENCH_replay.json.
type ReplayResult struct {
	Meta
	Params   ReplayParams    `json:"params"`
	Rows     []ReplayRow     `json:"rows"`
	Speedups []ReplaySpeedup `json:"speedups"`
}

// replayWorkloads is the swept workload list.
var replayWorkloads = []string{"cholesky", "lulesh"}

// RunReplay measures every workload/mode pair. Repeats are interleaved
// — each round runs all pairs at both region lengths back to back — so
// machine drift hits every mode alike; the per-pair minimum wall (and
// minimum alloc delta) is the reported steady-state cost.
func RunReplay(p ReplayParams) (*ReplayResult, error) {
	res := &ReplayResult{Meta: Meta{Schema: ReplaySchemaVersion}, Params: p}
	if p.Iters <= p.WarmIters || p.WarmIters < 1 {
		return res, fmt.Errorf("need Iters > WarmIters >= 1 (got %d, %d)", p.Iters, p.WarmIters)
	}
	type cell struct {
		warm, full     []float64
		warmAl, fullAl []uint64
	}
	cells := map[string]*cell{}
	for _, w := range replayWorkloads {
		for _, m := range replayModes {
			cells[w+"/"+m.name] = &cell{}
		}
	}
	for rep := 0; rep < max(p.Repeats, 1); rep++ {
		for _, w := range replayWorkloads {
			for _, m := range replayModes {
				c := cells[w+"/"+m.name]
				wallW, alW, err := runReplayOnce(p, w, m.name, m.frozen, p.WarmIters)
				if err != nil {
					return res, err
				}
				wallF, alF, err := runReplayOnce(p, w, m.name, m.frozen, p.Iters)
				if err != nil {
					return res, err
				}
				c.warm = append(c.warm, wallW)
				c.full = append(c.full, wallF)
				c.warmAl = append(c.warmAl, alW)
				c.fullAl = append(c.fullAl, alF)
			}
		}
	}
	steady := float64(p.Iters - p.WarmIters)
	nsPerTask := map[string]float64{}
	for _, w := range replayWorkloads {
		tasks := float64(p.TasksPerIter(w))
		for _, m := range replayModes {
			c := cells[w+"/"+m.name]
			dWall := max(slices.Min(c.full)-slices.Min(c.warm), 0)
			dAllocs := max(float64(slices.Min(c.fullAl))-float64(slices.Min(c.warmAl)), 0)
			row := ReplayRow{
				Workload:        w,
				Mode:            m.name,
				TasksPerIter:    int(tasks),
				ReplayNsPerTask: dWall * 1e9 / (steady * tasks),
				AllocsPerIter:   dAllocs / steady,
				AllocsPerTask:   dAllocs / (steady * tasks),
			}
			nsPerTask[w+"/"+m.name] = row.ReplayNsPerTask
			res.Rows = append(res.Rows, row)
		}
	}
	for _, w := range replayWorkloads {
		compiled := nsPerTask[w+"/frozen-compiled"]
		sp := ReplaySpeedup{Workload: w}
		if compiled > 0 {
			sp.CompiledVsAdaptive = nsPerTask[w+"/adaptive"] / compiled
		}
		res.Speedups = append(res.Speedups, sp)
	}
	return res, nil
}

// maxSteadyAllocsPerTask is "allocation-free" with room for the few
// stray allocations the Go runtime makes over a measured region.
const maxSteadyAllocsPerTask = 0.01

// Validate checks the schema, rows and task counts, and that every row —
// the gated adaptive replay and the frozen one — is allocation-free in
// steady state: counts, deterministic at any size. It looks at no timing
// — see ValidateFull.
func (r *ReplayResult) Validate() error {
	if err := r.checkSchema(ReplaySchemaVersion); err != nil {
		return err
	}
	if len(r.Rows) != len(replayWorkloads)*len(replayModes) {
		return fmt.Errorf("%d rows, want %d (workloads x modes)", len(r.Rows), len(replayWorkloads)*len(replayModes))
	}
	seen := map[string]bool{}
	for i, row := range r.Rows {
		if r.Params.TasksPerIter(row.Workload) == 0 {
			return fmt.Errorf("row %d: unknown workload %q", i, row.Workload)
		}
		ok := false
		for _, m := range replayModes {
			ok = ok || m.name == row.Mode
		}
		if !ok {
			return fmt.Errorf("row %d: unknown mode %q", i, row.Mode)
		}
		if row.TasksPerIter != r.Params.TasksPerIter(row.Workload) {
			return fmt.Errorf("row %d: %d tasks/iter, params imply %d", i, row.TasksPerIter, r.Params.TasksPerIter(row.Workload))
		}
		if row.AllocsPerIter < 0 || row.AllocsPerTask < 0 {
			return fmt.Errorf("row %d: negative alloc count", i)
		}
		if row.AllocsPerTask > maxSteadyAllocsPerTask {
			return fmt.Errorf("%s steady-state %s replay allocates %.4f/task (%.1f/iteration), want 0",
				row.Workload, row.Mode, row.AllocsPerTask, row.AllocsPerIter)
		}
		seen[row.Workload+"/"+row.Mode] = true
	}
	if len(seen) != len(r.Rows) {
		return fmt.Errorf("duplicate workload/mode rows: %v", seen)
	}
	if len(r.Speedups) != len(replayWorkloads) {
		return fmt.Errorf("%d speedup entries, want %d", len(r.Speedups), len(replayWorkloads))
	}
	return nil
}

// ValidateFull checks that every row's replay cost, and with it every
// speedup, came out positive. A row's cost is the difference of two wall
// clocks, so this holds for a run whose measured iterations add up to
// well over the machine's timer and scheduling noise — the default size,
// the committed baseline — and is not asked of a smoke run, where the
// difference is a few hundred microseconds and a loaded machine makes it
// negative. The speedups themselves are reported, not held to anything.
func (r *ReplayResult) ValidateFull() error {
	for i, row := range r.Rows {
		if row.ReplayNsPerTask <= 0 {
			return fmt.Errorf("row %d (%s/%s): non-positive replay timing", i, row.Workload, row.Mode)
		}
	}
	for _, sp := range r.Speedups {
		if sp.CompiledVsAdaptive <= 0 {
			return fmt.Errorf("workload %s: non-positive speedup", sp.Workload)
		}
	}
	return nil
}

// Print renders the result as the EXPERIMENTS.md table.
func (r *ReplayResult) Print(w io.Writer) {
	fmt.Fprintf(w, "== persistent replay (steady state, %d workers, %d measured iterations) ==\n",
		r.Params.Workers, r.Params.Iters-r.Params.WarmIters)
	fmt.Fprintf(w, "%-10s %-16s %11s %12s %12s %12s\n",
		"workload", "mode", "tasks/iter", "ns/task", "allocs/iter", "allocs/task")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %-16s %11d %12.1f %12.1f %12.4f\n",
			row.Workload, row.Mode, row.TasksPerIter, row.ReplayNsPerTask,
			row.AllocsPerIter, row.AllocsPerTask)
	}
	for _, sp := range r.Speedups {
		fmt.Fprintf(w, "speedup %s: frozen %.2fx vs adaptive\n", sp.Workload, sp.CompiledVsAdaptive)
	}
}
