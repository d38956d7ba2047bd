package experiments

import (
	"fmt"
	"io"
	"time"

	"taskdep/apps/cholesky"
	"taskdep/apps/hpcg"
	"taskdep/internal/graph"
	"taskdep/internal/rt"
	"taskdep/internal/sim"
	"taskdep/internal/trace"
)

// HPCGConfig parametrizes the Fig. 9 experiment (paper: 32 ranks x 24
// threads, n = 41.9M rows, 128 iterations; reduced here).
type HPCGConfig struct {
	Ranks        int
	CoresPerRank int
	RowsPerRank  int
	NXY          int
	Iters        int
	TPLs         []int
	SpMVSub      int
	Net          sim.NetConfig
}

// DefaultHPCG returns the reduced-scale Fig. 9 configuration.
func DefaultHPCG() HPCGConfig {
	return HPCGConfig{
		Ranks:        8,
		CoresPerRank: 8,
		RowsPerRank:  1 << 18,
		NXY:          1 << 12,
		Iters:        8,
		TPLs:         []int{4, 8, 16, 32, 64, 128, 256},
		SpMVSub:      4,
		Net:          sim.DefaultNetConfig(),
	}
}

// HPCGPoint is one Fig. 9 sweep point (profiled rank 0).
type HPCGPoint struct {
	TPL          int
	Makespan     float64
	Work         float64
	Idle         float64
	Overhead     float64
	Discovery    float64
	CommTime     float64
	OverlapRatio float64
	EdgesPerTask float64
	GrainUS      float64
}

// Fig9Result is the HPCG sweep plus the parallel-for reference.
type Fig9Result struct {
	ParallelFor HPCGPoint
	Points      []HPCGPoint
	Best        int
}

// RunFig9 sweeps the vector-block count (TPL).
func RunFig9(c HPCGConfig) Fig9Result {
	runPt := func(tpl int, mode string) HPCGPoint {
		rc := sim.RankConfig{Cores: c.CoresPerRank, Opts: graph.OptAll}
		cl := sim.NewCluster(c.Ranks, c.Net, rc, func(rk int) ([]sim.Op, int) {
			p := hpcg.SimParams{Rows: c.RowsPerRank, NXY: c.NXY, Iters: c.Iters,
				TPL: tpl, SpMVSub: c.SpMVSub, Ranks: c.Ranks, Rank: rk}
			if mode == "for" {
				return hpcg.BuildSimParForIteration(p, c.CoresPerRank), c.Iters
			}
			return hpcg.BuildSimTaskIteration(p), c.Iters
		})
		// Rebuild rank 0 with detailed tracing for the comm metrics.
		rc0 := rc
		rc0.DetailTrace = true
		p0 := hpcg.SimParams{Rows: c.RowsPerRank, NXY: c.NXY, Iters: c.Iters,
			TPL: tpl, SpMVSub: c.SpMVSub, Ranks: c.Ranks, Rank: 0}
		var ops0 []sim.Op
		if mode == "for" {
			ops0 = hpcg.BuildSimParForIteration(p0, c.CoresPerRank)
		} else {
			ops0 = hpcg.BuildSimTaskIteration(p0)
		}
		cl.Ranks[0] = sim.NewRank(0, cl.Engine, cl.Net, rc0, ops0, c.Iters)
		end := cl.Run()
		r := cl.Ranks[0]
		b := r.Profile().Breakdown()
		cs := r.Profile().CommSummary()
		st := r.Graph().Stats()
		pt := HPCGPoint{
			TPL: tpl, Makespan: end,
			Work: b.Work, Idle: b.IdleTime, Overhead: b.OverheadTime,
			Discovery: b.Discovery, CommTime: cs.CommTime, OverlapRatio: cs.OverlapRatio,
		}
		tasks := st.Tasks + st.ReplayedTasks
		if tasks > 0 {
			pt.EdgesPerTask = float64(st.EdgesAttempted) / float64(tasks)
			pt.GrainUS = 1e6 * b.Work / float64(tasks)
		}
		return pt
	}
	res := Fig9Result{ParallelFor: runPt(0, "for")}
	for _, tpl := range c.TPLs {
		res.Points = append(res.Points, runPt(tpl, "task"))
		if res.Points[len(res.Points)-1].Makespan < res.Points[res.Best].Makespan {
			res.Best = len(res.Points) - 1
		}
	}
	return res
}

// Print writes the Fig. 9 panels.
func (r Fig9Result) Print(w io.Writer) {
	fmt.Fprintln(w, "== Fig 9: HPCG performances ==")
	fmt.Fprintf(w, "parallel-for: total %.3fs (work %.2fs)\n", r.ParallelFor.Makespan, r.ParallelFor.Work)
	fmt.Fprintf(w, "%6s %9s %9s %9s %9s %9s %9s %9s %10s %10s\n",
		"TPL", "total(s)", "work(s)", "idle(s)", "ovh(s)", "disc(s)", "comm(s)", "ratio(%)", "edges/task", "grain(us)")
	for i, p := range r.Points {
		mark := " "
		if i == r.Best {
			mark = "*"
		}
		fmt.Fprintf(w, "%5d%s %9.3f %9.2f %9.2f %9.2f %9.3f %9.4f %9.1f %10.1f %10.1f\n",
			p.TPL, mark, p.Makespan, p.Work, p.Idle, p.Overhead, p.Discovery,
			p.CommTime, 100*p.OverlapRatio, p.EdgesPerTask, p.GrainUS)
	}
	b := r.Points[r.Best]
	fmt.Fprintf(w, "best TPL=%d: %.2fx vs parallel-for\n", b.TPL, r.ParallelFor.Makespan/b.Makespan)
}

// CholeskyResult is the §4.4 report: persistent-graph discovery speedup
// on repeated factorizations of same-shape matrices, with neutral total
// time.
type CholeskyResult struct {
	Tiles, Block, Iters   int
	PlainDiscovery        float64
	PersistentDiscovery   float64
	DiscoverySpeedup      float64
	PlainTotal, PersTotal float64
	Verified              bool
}

// RunCholesky measures repeated factorizations with and without (p) on
// the real runtime (wall clock).
func RunCholesky(tiles, block, iters, workers int) (CholeskyResult, error) {
	res := CholeskyResult{Tiles: tiles, Block: block, Iters: iters}
	a0 := cholesky.NewSPD(tiles, block)

	run := func(persistent bool) (disc, total float64, err error) {
		p := trace.New(workers+1, false)
		r, err := rt.NewRuntime(rt.Config{Workers: workers, Opts: graph.OptAll, Profile: p})
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		got, err := cholesky.TaskFactorRepeated(a0, r, cholesky.RepeatedConfig{Iters: iters, Persistent: persistent})
		total = time.Since(t0).Seconds()
		r.Close()
		if err != nil {
			return 0, 0, err
		}
		if err := cholesky.Verify(a0, got, 1e-9); err != nil {
			return 0, 0, err
		}
		return p.Breakdown().Discovery, total, nil
	}
	var err error
	res.PlainDiscovery, res.PlainTotal, err = run(false)
	if err != nil {
		return res, err
	}
	res.PersistentDiscovery, res.PersTotal, err = run(true)
	if err != nil {
		return res, err
	}
	if res.PersistentDiscovery > 0 {
		res.DiscoverySpeedup = res.PlainDiscovery / res.PersistentDiscovery
	}
	res.Verified = true
	return res, nil
}

// Print writes the §4.4 summary.
func (r CholeskyResult) Print(w io.Writer) {
	fmt.Fprintln(w, "== §4.4: tile-based Cholesky, persistent graph ==")
	fmt.Fprintf(w, "matrix: %d x %d tiles of %d (n=%d), %d factorizations, verified=%v\n",
		r.Tiles, r.Tiles, r.Block, r.Tiles*r.Block, r.Iters, r.Verified)
	fmt.Fprintf(w, "discovery: plain %.4fs, persistent %.4fs -> %.2fx speedup\n",
		r.PlainDiscovery, r.PersistentDiscovery, r.DiscoverySpeedup)
	fmt.Fprintf(w, "total: plain %.3fs, persistent %.3fs (%.1f%% difference)\n",
		r.PlainTotal, r.PersTotal, 100*(r.PersTotal-r.PlainTotal)/r.PlainTotal)
}
