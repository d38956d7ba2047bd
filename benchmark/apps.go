package main

import (
	"fmt"
	"math"
	"time"

	"taskdep/apps/cholesky"
	"taskdep/apps/hpcg"
	"taskdep/apps/lulesh"
	"taskdep/internal/graph"
	"taskdep/internal/mpi"
	"taskdep/internal/rt"
	"taskdep/internal/trace"
)

// apps.go holds the four application workloads. Each is driven through
// the same three calls: setUp (generate the input and the serial
// reference), prepare (a fresh input for one solve, outside the timer)
// and solve (runtime construction -> RunTask/TaskFactor -> Close,
// timed, then checked against the reference).

// solveOut is what one solve reports: its wall time, what the layers
// counted while it ran, and how far the result is from the reference.
// scale turns its times into reference-speed seconds.
type solveOut struct {
	wall      float64
	counts    layerCounts
	resultErr float64
	// Traced solves only.
	breakdown trace.Breakdown
	comm      trace.CommSummary
}

func (o *solveOut) scale(slow float64) {
	o.wall /= slow
	b := &o.breakdown
	b.AvgWork /= slow
	b.AvgOverhead /= slow
	b.AvgIdle /= slow
	b.Discovery /= slow
	o.comm.CommTime /= slow
}

type app interface {
	setUp(seed int64) error
	prepare() error
	solve(tr *tracer, id int, traced bool) (solveOut, error)
	// serial and parfor time the reference forms on the same problem
	// (the plain single-threaded baseline and the paper's BSP form).
	serial() (float64, error)
	parfor() (float64, error)
}

// appSizes are the fixed problem sizes; -smoke swaps in small ones.
type appSizes struct {
	luleshS, luleshIters, luleshTPL int
	cholT, cholB                    int
	hpcgN, hpcgIters, hpcgTPL       int
}

var fullSizes = appSizes{
	luleshS: 32, luleshIters: 40, luleshTPL: 512,
	cholT: 8, cholB: 128,
	hpcgN: 32, hpcgIters: 50, hpcgTPL: 64,
}

var smokeSizes = appSizes{
	luleshS: 8, luleshIters: 4, luleshTPL: 16,
	cholT: 4, cholB: 16,
	hpcgN: 8, hpcgIters: 6, hpcgTPL: 8,
}

// appWorkers is one worker beside the producer, which turns consumer
// inside Taskwait; the two take turns on the one P (see procs).
const appWorkers = 1

// --- LULESH ---

type luleshApp struct {
	sz         appSizes
	persistent bool
	seed       int64
	refSum     float64
	refEnergy  float64
	next       *lulesh.Domain
}

func (l *luleshApp) domain() (*lulesh.Domain, error) {
	return luleshDomain(l.seed, l.sz.luleshS, l.sz.luleshIters)
}

func (l *luleshApp) setUp(seed int64) error {
	l.seed = seed
	d, err := l.domain()
	if err != nil {
		return err
	}
	for it := 0; it < l.sz.luleshIters; it++ {
		d.Step()
	}
	l.refSum, l.refEnergy = d.Checksum(), d.TotalEnergy()
	return nil
}

func (l *luleshApp) prepare() (err error) {
	l.next, err = l.domain()
	return err
}

func (l *luleshApp) solve(tr *tracer, id int, traced bool) (solveOut, error) {
	var out solveOut
	d := l.next
	var prof *trace.Profile
	if traced {
		prof = trace.New(appWorkers+1, false)
	}
	t0 := time.Now()
	r, err := rt.NewRuntime(rt.Config{Workers: appWorkers, Opts: graph.OptAll, Profile: prof})
	if err != nil {
		return out, err
	}
	t1 := time.Now()
	runErr := lulesh.RunTask(d, r, nil, lulesh.TaskConfig{
		TPL: l.sz.luleshTPL, Persistent: l.persistent, MinimizeDeps: true,
	})
	t2 := time.Now()
	closeErr := r.Close()
	t3 := time.Now()
	out.wall = t3.Sub(t0).Seconds()
	tr.add("solve", "", id, 0, t0, t3)
	tr.add("construct", "solve", id, 0, t0, t1)
	tr.add("submit+solve", "solve", id, 0, t1, t2)
	tr.add("close", "solve", id, 0, t2, t3)
	if runErr != nil {
		return out, runErr
	}
	if closeErr != nil {
		return out, closeErr
	}
	out.counts.addRuntime(r)
	if prof != nil {
		out.breakdown = prof.Breakdown()
	}
	defer tr.begin("verify", "", id, 0)()
	sum, energy := d.Checksum(), d.TotalEnergy()
	out.resultErr = math.Abs(sum-l.refSum) / math.Abs(l.refSum)
	if sum != l.refSum || energy != l.refEnergy {
		return out, fmt.Errorf("lulesh: checksum %v energy %v, serial reference %v %v", sum, energy, l.refSum, l.refEnergy)
	}
	return out, nil
}

func (l *luleshApp) serial() (float64, error) {
	d, err := l.domain()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	for it := 0; it < l.sz.luleshIters; it++ {
		d.Step()
	}
	return time.Since(t0).Seconds(), nil
}

func (l *luleshApp) parfor() (float64, error) {
	d, err := l.domain()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	r, err := rt.NewRuntime(rt.Config{Workers: appWorkers, Opts: graph.OptAll})
	if err != nil {
		return 0, err
	}
	lulesh.RunParallelFor(d, r, nil)
	if err := r.Close(); err != nil {
		return 0, err
	}
	wall := time.Since(t0).Seconds()
	if d.Checksum() != l.refSum {
		return wall, fmt.Errorf("lulesh: parallel-for checksum %v, serial reference %v", d.Checksum(), l.refSum)
	}
	return wall, nil
}

// --- Cholesky ---

type choleskyApp struct {
	sz   appSizes
	a0   *cholesky.Matrix
	ref  *cholesky.Matrix // serial factor; TaskFactor is bitwise identical to it
	next *cholesky.Matrix
}

func (c *choleskyApp) setUp(seed int64) error {
	c.a0 = choleskyMatrix(seed, c.sz.cholT, c.sz.cholB)
	c.ref = c.a0.Clone()
	return cholesky.SerialFactor(c.ref)
}

// verifyReference is the residual test of cholesky.Verify, L*L^T = A0
// on the lower part within tol*(1+|a|), on the serial factor that every
// solve is then compared against bitwise. cholesky.Verify looks each
// element up through the tile map, which at 1024 rows takes about ten
// seconds; this reads the same elements from a dense copy. The smoke
// test checks that the two agree.
func (c *choleskyApp) verifyReference(tol float64) error {
	dense := func(m *cholesky.Matrix) []float64 {
		b, n := m.B, m.T*m.B
		d := make([]float64, n*n)
		for ti := 0; ti < m.T; ti++ {
			for tj := 0; tj <= ti; tj++ {
				tile := m.Tile(ti, tj)
				for i := 0; i < b; i++ {
					copy(d[(ti*b+i)*n+tj*b:(ti*b+i)*n+tj*b+b], tile[i*b:i*b+b])
				}
			}
		}
		return d
	}
	n := c.a0.T * c.a0.B
	a, l := dense(c.a0), dense(c.ref)
	for gi := 0; gi < n; gi++ {
		for gj := 0; gj <= gi; gj++ {
			s := 0.0
			ri, rj := l[gi*n:gi*n+gj+1], l[gj*n:gj*n+gj+1]
			for k, v := range ri {
				s += v * rj[k]
			}
			if want := a[gi*n+gj]; math.Abs(s-want) > tol*(1+math.Abs(want)) {
				return fmt.Errorf("cholesky: L*L^T[%d,%d] = %v, want %v", gi, gj, s, want)
			}
		}
	}
	return nil
}

func (c *choleskyApp) prepare() error {
	c.next = c.a0.Clone()
	return nil
}

func (c *choleskyApp) solve(tr *tracer, id int, traced bool) (solveOut, error) {
	var out solveOut
	m := c.next
	var prof *trace.Profile
	if traced {
		prof = trace.New(appWorkers+1, false)
	}
	t0 := time.Now()
	r, err := rt.NewRuntime(rt.Config{Workers: appWorkers, Opts: graph.OptAll, Profile: prof})
	if err != nil {
		return out, err
	}
	t1 := time.Now()
	runErr := cholesky.TaskFactor(m, r)
	t2 := time.Now()
	closeErr := r.Close()
	t3 := time.Now()
	out.wall = t3.Sub(t0).Seconds()
	tr.add("solve", "", id, 0, t0, t3)
	tr.add("construct", "solve", id, 0, t0, t1)
	tr.add("submit+solve", "solve", id, 0, t1, t2)
	tr.add("close", "solve", id, 0, t2, t3)
	if runErr != nil {
		return out, runErr
	}
	if closeErr != nil {
		return out, closeErr
	}
	out.counts.addRuntime(r)
	if prof != nil {
		out.breakdown = prof.Breakdown()
	}
	defer tr.begin("verify", "", id, 0)()
	for i := 0; i < m.T; i++ {
		for j := 0; j <= i; j++ {
			got, want := m.Tile(i, j), c.ref.Tile(i, j)
			for k := range want {
				if d := math.Abs(got[k] - want[k]); d > out.resultErr {
					out.resultErr = d
				}
			}
		}
	}
	if out.resultErr != 0 {
		return out, fmt.Errorf("cholesky: factor differs from the serial factor by %g", out.resultErr)
	}
	return out, nil
}

func (c *choleskyApp) serial() (float64, error) {
	m := c.a0.Clone()
	t0 := time.Now()
	err := cholesky.SerialFactor(m)
	return time.Since(t0).Seconds(), err
}

// parfor: the paper has no fork-join form of Cholesky.
func (c *choleskyApp) parfor() (float64, error) { return 0, nil }

// --- HPCG over two in-process ranks ---

const hpcgRanks = 2

type hpcgApp struct {
	sz   appSizes
	rhs  []float64
	refX []float64 // global serial CG on the stacked grid
	next [hpcgRanks]*hpcg.Problem
}

func (h *hpcgApp) local(rank int) hpcg.Params {
	n := h.sz.hpcgN
	return hpcg.Params{NX: n, NY: n, NZ: n, Iters: h.sz.hpcgIters, Ranks: hpcgRanks, Rank: rank}
}

func (h *hpcgApp) global() (*hpcg.Problem, error) {
	n := h.sz.hpcgN
	return hpcgProblem(hpcg.Params{NX: n, NY: n, NZ: n * hpcgRanks, Iters: h.sz.hpcgIters, Ranks: 1}, h.rhs)
}

func (h *hpcgApp) setUp(seed int64) error {
	n := h.sz.hpcgN
	h.rhs = hpcgRHS(seed, n*n*n*hpcgRanks)
	ref, err := h.global()
	if err != nil {
		return err
	}
	if err := ref.SerialCG(); err != nil {
		return err
	}
	h.refX = ref.X
	return nil
}

func (h *hpcgApp) prepare() error {
	for rk := range h.next {
		pr, err := hpcgProblem(h.local(rk), h.rhs)
		if err != nil {
			return err
		}
		h.next[rk] = pr
	}
	return nil
}

func (h *hpcgApp) solve(tr *tracer, id int, traced bool) (solveOut, error) {
	var out solveOut
	var (
		runtimes [hpcgRanks]*rt.Runtime
		profs    [hpcgRanks]*trace.Profile
		errs     [hpcgRanks]error
	)
	w := mpi.NewWorld(hpcgRanks)
	t0 := time.Now()
	w.Run(func(c *mpi.Comm) {
		rk := c.Rank()
		var prof *trace.Profile
		if traced {
			// Detailed task boxes are what CommSummary overlaps the
			// requests with.
			prof = trace.New(2, true)
			profs[rk] = prof
		}
		c0 := time.Now()
		r, err := rt.NewRuntime(rt.Config{Workers: 1, Opts: graph.OptAll, Profile: prof})
		if err != nil {
			errs[rk] = err
			c.Abort(err)
			return
		}
		runtimes[rk] = r
		c.SetMetrics(r.Obs())
		if prof != nil {
			c.SetProfile(prof, func() float64 { return time.Since(c0).Seconds() })
		}
		c1 := time.Now()
		errs[rk] = h.next[rk].RunTask(r, c, hpcg.TaskConfig{TPL: h.sz.hpcgTPL, SpMVSub: 4, Persistent: true})
		c2 := time.Now()
		if err := r.Close(); err != nil && errs[rk] == nil {
			errs[rk] = err
		}
		c3 := time.Now()
		tr.add("solve", "", id, rk, c0, c3)
		tr.add("construct", "solve", id, rk, c0, c1)
		tr.add("submit+solve", "solve", id, rk, c1, c2)
		tr.add("close", "solve", id, rk, c2, c3)
	})
	out.wall = time.Since(t0).Seconds()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	for rk, r := range runtimes {
		out.counts.addRuntime(r)
		if profs[rk] != nil {
			b, cs := profs[rk].Breakdown(), profs[rk].CommSummary()
			// Ranks run side by side: average their per-thread ledgers.
			out.breakdown.AvgWork += b.AvgWork / hpcgRanks
			out.breakdown.AvgOverhead += b.AvgOverhead / hpcgRanks
			out.breakdown.AvgIdle += b.AvgIdle / hpcgRanks
			out.breakdown.Discovery += b.Discovery / hpcgRanks
			out.comm.CommTime += cs.CommTime / hpcgRanks
			out.comm.OverlapRatio += cs.OverlapRatio / hpcgRanks
		}
	}
	defer tr.begin("verify", "", id, 0)()
	rows := h.next[0].Rows
	for rk, pr := range h.next {
		for i, got := range pr.X {
			want := h.refX[rk*rows+i]
			if e := math.Abs(want-got) / (1 + math.Abs(want)); e > out.resultErr {
				out.resultErr = e
			}
		}
	}
	if out.resultErr > 1e-9 {
		return out, fmt.Errorf("hpcg: X differs from the global serial CG by %g (relative)", out.resultErr)
	}
	if h.next[0].Rtz != h.next[1].Rtz {
		return out, fmt.Errorf("hpcg: ranks disagree on rtz: %v vs %v", h.next[0].Rtz, h.next[1].Rtz)
	}
	return out, nil
}

// serial is the blocked single-rank CG on the stacked grid: the same
// problem the two ranks solve, one thread.
func (h *hpcgApp) serial() (float64, error) {
	ref, err := h.global()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	err = ref.SerialCGBlocked(h.sz.hpcgTPL * hpcgRanks)
	return time.Since(t0).Seconds(), err
}

func (h *hpcgApp) parfor() (float64, error) {
	if err := h.prepare(); err != nil {
		return 0, err
	}
	w := mpi.NewWorld(hpcgRanks)
	var errs [hpcgRanks]error
	t0 := time.Now()
	w.Run(func(c *mpi.Comm) {
		r, err := rt.NewRuntime(rt.Config{Workers: 1, Opts: graph.OptAll})
		if err != nil {
			errs[c.Rank()] = err
			c.Abort(err)
			return
		}
		h.next[c.Rank()].RunParallelFor(r, c)
		errs[c.Rank()] = r.Close()
	})
	wall := time.Since(t0).Seconds()
	for _, err := range errs {
		if err != nil {
			return wall, err
		}
	}
	return wall, nil
}

func newApp(name string, sz appSizes) app {
	switch name {
	case "lulesh_discover":
		return &luleshApp{sz: sz}
	case "lulesh_persist":
		return &luleshApp{sz: sz, persistent: true}
	case "cholesky_kernel":
		return &choleskyApp{sz: sz}
	case "hpcg_mpi":
		return &hpcgApp{sz: sz}
	}
	return nil
}
