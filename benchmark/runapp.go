package main

import (
	"fmt"
	"runtime"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string
}

// report is what a run measured. endToEnd is filled by untraced runs,
// perLayer and ledger by traced ones.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	K         int                `json:"k"` // timed units
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FirstErr  string             `json:"first_error,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Ledger    map[string]float64 `json:"ledger,omitempty"`
	Dists     map[string]dist    `json:"dists,omitempty"`
	Spans     map[string]float64 `json:"span_self_s,omitempty"`
}

func (r *report) fail(err error) {
	r.Failed++
	if r.FirstErr == "" {
		r.FirstErr = err.Error()
	}
}

// setupReps is how many times set-up runs; its median is setup_s.
const setupReps = 3

// minUnits is how many solves a run times at least, however short.
const minUnits = 10

// appTally accumulates what the layers counted over a phase of solves.
// All its times are in reference-speed seconds (calib.go).
type appTally struct {
	walls    []float64
	counts   layerCounts
	sum      solveOut // breakdown and comm, summed over the solves
	maxError float64
}

func (t *appTally) add(o solveOut) {
	t.walls = append(t.walls, o.wall)
	t.counts.add(o.counts)
	t.sum.wall += o.wall
	b, ob := &t.sum.breakdown, o.breakdown
	b.AvgWork += ob.AvgWork
	b.AvgOverhead += ob.AvgOverhead
	b.AvgIdle += ob.AvgIdle
	b.Discovery += ob.Discovery
	t.sum.comm.CommTime += o.comm.CommTime
	t.sum.comm.OverlapRatio += o.comm.OverlapRatio
	t.maxError = max(t.maxError, o.resultErr)
}

// solveOnce prepares an input, collects garbage outside the timer, and
// runs one checked solve between two calibrations into the tally.
func solveOnce(a app, rep *report, tr *tracer, traced bool, id int, t *appTally) {
	endGen := tr.begin("generate", "", id, 0)
	err := a.prepare()
	endGen()
	runtime.GC()
	rep.Attempted++
	if err != nil {
		rep.fail(err)
		return
	}
	var out solveOut
	slow := calibrated(func() { out, err = a.solve(tr, id, traced) })
	if err != nil {
		rep.fail(err)
		return
	}
	out.scale(slow)
	t.add(out)
}

func runApp(cfg runConfig) (*report, error) {
	sz := fullSizes
	if cfg.smoke {
		sz = smokeSizes
	}
	a := newApp(cfg.workload, sz)
	rep := &report{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace}
	budget := time.Duration(cfg.seconds * float64(time.Second))

	// Set-up: generate, solve serially for the reference, then one
	// checked warm-up solve. The last repetition's products are the
	// ones the timed solves use.
	reps := setupReps
	if cfg.trace || cfg.smoke {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		var err error
		var wall time.Duration
		slow := calibrated(func() {
			t0 := time.Now()
			if err = a.setUp(cfg.seed); err != nil {
				return
			}
			if err = a.prepare(); err != nil {
				return
			}
			_, err = a.solve(nil, 0, false)
			wall = time.Since(t0)
		})
		if err != nil {
			return nil, fmt.Errorf("set-up and warm-up solve: %w", err)
		}
		setups = append(setups, wall.Seconds()/slow)
	}
	if c, ok := a.(*choleskyApp); ok {
		if err := c.verifyReference(1e-8); err != nil {
			return nil, err
		}
	}

	if !cfg.trace {
		var t appTally
		rss := startRSSSampler()
		for t0 := time.Now(); rep.Attempted < minUnits || time.Since(t0) < budget; {
			solveOnce(a, rep, nil, false, rep.Attempted, &t)
		}
		rssMB := rss.medianMB()
		if len(t.walls) == 0 {
			return nil, fmt.Errorf("no solve passed its check: %s", rep.FirstErr)
		}
		rep.K = len(t.walls)
		solveS := median(t.walls)
		rep.EndToEnd = map[string]float64{
			"setup_s":      median(setups),
			"solve_s":      solveS,
			"tasks_per_s":  float64(t.counts.taskExecutions()) / float64(len(t.walls)) / solveS,
			"graphs_per_s": 1 / solveS,
			"rss_mb":       rssMB,
		}
		rep.Dists = map[string]dist{"solve_s": summarize(t.walls), "setup_s": summarize(setups)}
		return rep, nil
	}

	// Traced run: three fifths of the time on solves, alternating one
	// untraced (the counts, and the base of trace.overhead_share) with
	// one under Config.Profile, so that a slow stretch of the machine
	// falls on both; the rest on the reference forms and the isolation
	// timings.
	tr := newTracer()
	var base, traced appTally
	var gc gcTally
	for t0 := time.Now(); rep.Attempted < 6 || time.Since(t0) < 3*budget/5; {
		gc.during(func() { solveOnce(a, rep, nil, false, rep.Attempted, &base) })
		solveOnce(a, rep, tr, true, rep.Attempted, &traced)
	}
	if len(base.walls) == 0 || len(traced.walls) == 0 {
		return nil, fmt.Errorf("no solve passed its check: %s", rep.FirstErr)
	}
	rep.K = len(base.walls) + len(traced.walls)

	// The reference forms, median of three.
	medianOf3 := func(what string, form func() (float64, error)) float64 {
		var xs []float64
		for i := 0; i < 3; i++ {
			var s float64
			var err error
			slow := calibrated(func() { s, err = form() })
			if err != nil {
				rep.fail(fmt.Errorf("%s: %w", what, err))
				return 0
			}
			xs = append(xs, s/slow)
		}
		return median(xs)
	}
	serialS := medianOf3("serial reference", a.serial)
	parforS := medianOf3("parallel-for form", a.parfor)

	drainTasks := 100_000
	if cfg.smoke {
		drainTasks = 5_000
	}
	lats := make([]lattice, 4)
	for i := range lats {
		lats[i] = genReplay(cfg.seed, uint64(i), replayW, replayD, replayRepeat)
	}
	iso, err := measureIsolation(sz, fullShape(replayW, replayD), lats, drainTasks, budget/4)
	if err != nil {
		rep.fail(fmt.Errorf("isolation: %w", err))
	}

	n := float64(len(base.walls))
	nt := float64(len(traced.walls))
	solveS, tracedS := median(base.walls), median(traced.walls)
	bd := traced.sum.breakdown
	work, overhead, idle, disc := bd.AvgWork/nt, bd.AvgOverhead/nt, bd.AvgIdle/nt, bd.Discovery/nt

	rep.PerLayer = iso
	pl := rep.PerLayer
	base.counts.into(pl, n)
	gc.into(pl, float64(base.counts.taskExecutions()))
	// The breakdown is a mean over the traced solves, so it is set
	// against their mean time.
	tracedMean := traced.sum.wall / nt
	pl["rt.discovery_share"] = ratio(disc, tracedMean)
	pl["rt.breakdown_residual_share"] = 1 - ratio(work+overhead+idle, tracedMean)
	pl["rt.parallel_efficiency"] = ratio(serialS, procs*solveS)
	pl["apps.speedup_vs_parfor"] = ratio(parforS, solveS)
	pl["apps.result_error"] = max(base.maxError, traced.maxError)
	pl["mpi.overlap_ratio"] = traced.sum.comm.OverlapRatio / nt
	pl["trace.overhead_share"] = ratio(tracedS-solveS, solveS)
	// The serve layer is not on an application's path.
	for _, name := range []string{"serve.wire_residual_share", "serve.events_per_graph",
		"serve.bytes_in_per_graph", "serve.bytes_out_per_graph", "serve.rejected",
		"serve.latency_p50_ms", "serve.latency_p95_ms", "serve.backlog_end",
		"cpath.disc_share", "cpath.zero_disc_speedup"} {
		pl[name] = 0
	}
	rep.Ledger = map[string]float64{
		"rt.discovery_s": disc, "rt.work_s": work, "rt.overhead_s": overhead, "rt.idle_s": idle,
		"apps.serial_s": serialS, "apps.parfor_s": parforS,
		"mpi.comm_s":   traced.sum.comm.CommTime / nt,
		"failed_share": ratio(float64(rep.Failed), float64(rep.Attempted)),
	}
	rep.Dists = map[string]dist{"solve_s": summarize(base.walls), "traced_solve_s": summarize(traced.walls)}
	rep.Spans = tr.selfTimes()
	if err := tr.writeChrome(tracePath(cfg), cfg.workload); err != nil {
		return nil, err
	}
	return rep, nil
}
