package experiments

import (
	"fmt"
	"io"
	"time"

	"taskdep/apps/lulesh"
	"taskdep/internal/graph"
	"taskdep/internal/metg"
	"taskdep/internal/sched"
	"taskdep/internal/sim"
)

// Table2Row crosses one optimization set (Table 2): the discovery times
// here are genuinely measured wall-clock on internal/graph — the
// optimizations really remove work — while the total execution time
// comes from the DES.
type Table2Row struct {
	Label     string
	Edges     int64
	Discovery float64 // measured seconds, single-threaded unrolling
	Total     float64 // DES total execution (overlapped discovery)
	// FirstIter/ReplayIter split persistent discovery (last row only).
	FirstIter, ReplayIter float64
}

// drainGraph completes every ready task repeatedly until quiescent.
type drainer struct{ ready []*graph.Task }

func (d *drainer) onReady(t *graph.Task) { d.ready = append(d.ready, t) }
func (d *drainer) drain(g *graph.Graph) {
	for len(d.ready) > 0 {
		t := d.ready[len(d.ready)-1]
		d.ready = d.ready[:len(d.ready)-1]
		g.Start(t)
		for _, s := range g.Complete(t) {
			d.onReady(s)
		}
	}
}

// measureDiscovery unrolls the op stream through a real graph,
// measuring only the submission (discovery) time; execution is drained
// between iterations outside the timer. Pruning is therefore not
// triggered (all predecessors alive during an iteration's discovery),
// matching a "fast consumer" regime.
func measureDiscovery(ops []sim.Op, iters int, opts graph.Opt, persistent bool) Table2Row {
	d := &drainer{}
	g := graph.NewWithConfig(graph.Config{Opts: opts, OnReady: d.onReady})
	var row Table2Row
	var total time.Duration

	for it := 0; it < iters; it++ {
		var t0 time.Time
		if persistent {
			if it == 0 {
				t0 = time.Now()
				g.BeginRecording()
				for _, op := range ops {
					if op.Kind != sim.OpSubmit {
						continue
					}
					g.Submit(op.Spec.Label, op.Spec.Deps, nil, nil)
				}
				g.Flush()
				g.EndRecording()
				dt := time.Since(t0)
				row.FirstIter = dt.Seconds()
				total += dt
			} else {
				if err := g.BeginReplay(); err != nil {
					panic(err)
				}
				t0 = time.Now()
				for _, op := range ops {
					if op.Kind != sim.OpSubmit {
						continue
					}
					g.Replay(nil, nil, nil, nil)
				}
				dt := time.Since(t0)
				total += dt
				if err := g.FinishReplay(); err != nil {
					panic(err)
				}
			}
		} else {
			t0 = time.Now()
			for _, op := range ops {
				if op.Kind != sim.OpSubmit {
					continue
				}
				g.Submit(op.Spec.Label, op.Spec.Deps, nil, nil)
			}
			g.Flush()
			total += time.Since(t0)
		}
		d.drain(g) // outside the timer
	}
	if persistent {
		g.EndPersistent()
		if iters > 1 {
			row.ReplayIter = (total.Seconds() - row.FirstIter) / float64(iters-1)
		}
	}
	row.Edges = g.Stats().EdgesCreated
	row.Discovery = total.Seconds()
	return row
}

// RunTable2 crosses optimizations (a), (b), (c) and (p) on the LULESH
// dependence stream at the given TPL (paper: 1,872).
func RunTable2(c IntranodeConfig, tpl int) []Table2Row {
	build := func(minimize bool) []sim.Op {
		p := lulesh.SimParams{S: c.S, Iters: 1, TPL: tpl, MinimizeDeps: minimize,
			ComputePerElem: c.ComputePerElem}
		return lulesh.BuildSimTaskIteration(p, 0)
	}
	plain := build(false)
	minimized := build(true)

	type combo struct {
		label      string
		ops        []sim.Op
		minimize   bool
		opts       graph.Opt
		persistent bool
	}
	combos := []combo{
		{"none", plain, false, 0, false},
		{"(a)", minimized, true, 0, false},
		{"(b)", plain, false, graph.OptDedup, false},
		{"(c)", plain, false, graph.OptInOutSetNode, false},
		{"(a)+(b)", minimized, true, graph.OptDedup, false},
		{"(a)+(c)", minimized, true, graph.OptInOutSetNode, false},
		{"(b)+(c)", plain, false, graph.OptAll, false},
		{"(a)+(b)+(c)", minimized, true, graph.OptAll, false},
		{"(a)+(b)+(c)+(p)", minimized, true, graph.OptAll, true},
	}
	var rows []Table2Row
	for _, cb := range combos {
		row := measureDiscovery(cb.ops, c.Iters, cb.opts, cb.persistent)
		row.Label = cb.label
		// DES total with the same configuration.
		_, pt := runLULESHTask(c, tpl, cb.opts, cb.minimize, cb.persistent, false, sched.DepthFirst)
		row.Total = pt.Makespan
		rows = append(rows, row)
	}
	return rows
}

// PrintTable2 writes the optimization crossing.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "== Table 2: graph optimizations crossing ==")
	fmt.Fprintf(w, "%-16s %12s %14s %14s\n", "optimizations", "edges", "discovery(s)", "total exec(s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %12d %14.4f %14.3f\n", r.Label, r.Edges, r.Discovery, r.Total)
		if r.FirstIter > 0 {
			fmt.Fprintf(w, "%-16s first iteration %.4fs, replay %.5fs/iter (%.1fx cheaper)\n",
				"", r.FirstIter, r.ReplayIter, r.FirstIter/maxF(r.ReplayIter, 1e-12))
		}
	}
	if len(rows) >= 2 {
		base, opt := rows[0], rows[len(rows)-2]
		pers := rows[len(rows)-1]
		fmt.Fprintf(w, "discovery speedup (a)+(b)+(c) vs none: %.2fx; +(p): %.2fx\n",
			base.Discovery/opt.Discovery, base.Discovery/pers.Discovery)
	}
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// METGResult is the §3.3 report.
type METGResult struct {
	Samples []metg.Sample
	METG95  float64
}

// RunMETG sweeps TPL and computes METG(95%).
func RunMETG(c IntranodeConfig) (METGResult, error) {
	var res METGResult
	for _, tpl := range c.TPLs {
		_, pt := runLULESHTask(c, tpl, graph.OptAll, true, false, false, sched.DepthFirst)
		grain := 0.0
		if pt.Tasks > 0 {
			grain = pt.Work / float64(pt.Tasks)
		}
		res.Samples = append(res.Samples, metg.Sample{Grain: grain, Wall: pt.Makespan})
	}
	m, err := metg.METG(res.Samples, 0.95)
	if err != nil {
		return res, err
	}
	res.METG95 = m
	return res, nil
}

// Print writes the §3.3 report.
func (r METGResult) Print(w io.Writer) {
	fmt.Fprintln(w, "== METG report (§3.3) ==")
	for _, s := range r.Samples {
		fmt.Fprintf(w, "grain %8.1f us -> wall %.3f s\n", s.Grain*1e6, s.Wall)
	}
	fmt.Fprintf(w, "METG(95%%) = %.1f us\n", r.METG95*1e6)
}
