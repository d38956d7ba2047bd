// Package hpcg implements the reproduction's High Performance Conjugate
// Gradient benchmark, modeled on HPCG as ported by the paper (§4.3): a
// conjugate-gradient solve on a 27-point stencil sparse matrix, with
// blocked vector operations (the TPL grain parameter), sub-blocked SpMV,
// halo exchange with z neighbors and allreduce dot products. SpMV is a
// line-sweep stencil kernel, bitwise equal to the per-neighbour form.
//
// Like the LULESH package, it provides a serial reference, a
// parallel-for form and a dependent-task form that produce bitwise
// identical iterates (dot products are computed as ordered sums of
// per-block partials in every form).
package hpcg

import (
	"fmt"
	"math"

	"taskdep/internal/graph"
	"taskdep/internal/mpi"
	"taskdep/internal/rt"
)

// Params sizes a local problem.
type Params struct {
	// NX, NY, NZ are the local grid dimensions (rows = NX*NY*NZ).
	NX, NY, NZ int
	// Iters is the number of CG iterations.
	Iters int
	// Ranks/Rank describe the 1-D z decomposition.
	Ranks, Rank int
}

// Validate checks parameters.
func (p Params) Validate() error {
	if p.NX < 2 || p.NY < 2 || p.NZ < 2 {
		return fmt.Errorf("hpcg: grid %dx%dx%d too small", p.NX, p.NY, p.NZ)
	}
	if p.Iters < 1 {
		return fmt.Errorf("hpcg: iters %d", p.Iters)
	}
	if p.Ranks < 1 || p.Rank < 0 || p.Rank >= p.Ranks {
		return fmt.Errorf("hpcg: bad rank %d/%d", p.Rank, p.Ranks)
	}
	return nil
}

// Problem is one rank's matrix slab and CG state. The matrix is the
// standard HPCG 27-point stencil: diagonal 26, off-diagonals -1, with
// global boundary truncation. Halo rows (one z layer on each side) are
// stored in dedicated ghost arrays.
type Problem struct {
	P    Params
	Rows int

	// CG vectors.
	X, B, R, Pv, Ap []float64
	// Ghost layers of Pv for the SpMV (z-1 and z+1 neighbor layers).
	GhostLo, GhostHi []float64

	// Scalars (replicated deterministically on all ranks).
	RtzOld, Rtz, Alpha, Beta float64
	// per-block partial dot products, merged in block order.
	partAp, partRz []float64

	// Residual history for verification.
	Rnorm []float64
}

// New builds the local problem with the HPCG-style RHS (b = 27ish row
// sums so x=1 is near the solution) and x0 = 0.
func New(p Params) (*Problem, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rows := p.NX * p.NY * p.NZ
	pr := &Problem{P: p, Rows: rows}
	pr.X = make([]float64, rows)
	pr.B = make([]float64, rows)
	pr.R = make([]float64, rows)
	pr.Pv = make([]float64, rows)
	pr.Ap = make([]float64, rows)
	pr.GhostLo = make([]float64, p.NX*p.NY)
	pr.GhostHi = make([]float64, p.NX*p.NY)
	for i := 0; i < rows; i++ {
		// b row value: number of stencil neighbors removed by the
		// global boundary keeps the matrix diagonally dominant; use
		// b = 1 everywhere (standard HPCG uses row sums; constant b
		// exercises identical code).
		pr.B[i] = 1
	}
	return pr, nil
}

// globalK returns the global z index of local layer k.
func (pr *Problem) globalK(k int) int { return pr.P.Rank*pr.P.NZ + k }

// globalNZ returns the global z extent.
func (pr *Problem) globalNZ() int { return pr.P.Ranks * pr.P.NZ }

// SpMV computes y[lo:hi] = A*x over local rows, using ghost layers for
// cross-rank neighbors. x must be the full local vector; ghostLo/Hi the
// neighbor layers (zero for physical boundaries); y must not alias them.
//
// It sweeps x-lines: the up-to-nine source lines of a line — in (dk, dj)
// order, each a piece of x or of a ghost layer, left out past the global
// boundary or a j edge — are resolved once, then i runs along the line.
// Every row subtracts its neighbors in (dk, dj, di) order, so the result
// is bitwise that of the per-neighbour triple loop, whatever [lo, hi).
func (pr *Problem) SpMV(y, x, ghostLo, ghostHi []float64, lo, hi int) {
	if lo >= hi {
		return
	}
	nx, ny, nz := pr.P.NX, pr.P.NY, pr.P.NZ
	gk0, gnz := pr.globalK(0), pr.globalNZ()
	for base := lo - lo%nx; base < hi; base += nx {
		j, k := base/nx%ny, base/(nx*ny)
		var lines [9][]float64
		m, own := 0, 0
		for dk := -1; dk <= 1; dk++ {
			if g := gk0 + k + dk; g < 0 || g >= gnz {
				continue
			}
			plane, first := x, (k+dk)*ny
			switch {
			case k+dk < 0:
				plane, first = ghostLo, 0
			case k+dk >= nz:
				plane, first = ghostHi, 0
			}
			for dj := -1; dj <= 1; dj++ {
				if j+dj < 0 || j+dj >= ny {
					continue
				}
				if dk == 0 && dj == 0 {
					own = m
				}
				at := (first + j + dj) * nx
				lines[m] = plane[at : at+nx : at+nx]
				m++
			}
		}
		src, yl := lines[:m], y[base:base+nx:base+nx]
		i0, i1 := max(lo-base, 0), min(hi-base, nx)
		// [ia, ib) is what the unrolled interior takes of [i0, i1): rows
		// with both i neighbors, on a line with all nine sources.
		ia, ib := i1, i1
		if m == 9 {
			ia, ib = max(i0, 1), min(i1, nx-1)
			// Windows [ia-1, ib+1) of the nine lines and of y, indexed by
			// the right-hand neighbor t so that no access needs a check.
			a, b, c := src[0][ia-1:ib+1], src[1][ia-1:ib+1], src[2][ia-1:ib+1]
			d, e, f := src[3][ia-1:ib+1], src[4][ia-1:ib+1], src[5][ia-1:ib+1]
			g, h, l := src[6][ia-1:ib+1], src[7][ia-1:ib+1], src[8][ia-1:ib+1]
			yw := yl[ia-1 : ib+1]
			for t := 2; t < len(yw); t++ {
				s := 26.0 * e[t-1]
				s = s - a[t-2] - a[t-1] - a[t]
				s = s - b[t-2] - b[t-1] - b[t]
				s = s - c[t-2] - c[t-1] - c[t]
				s = s - d[t-2] - d[t-1] - d[t]
				s = s - e[t-2] - e[t]
				s = s - f[t-2] - f[t-1] - f[t]
				s = s - g[t-2] - g[t-1] - g[t]
				s = s - h[t-2] - h[t-1] - h[t]
				s = s - l[t-2] - l[t-1] - l[t]
				yw[t-1] = s
			}
		}
		for i := i0; i < ia; i++ {
			yl[i] = stencilRow(src, own, i)
		}
		for i := ib; i < i1; i++ {
			yl[i] = stencilRow(src, own, i)
		}
	}
}

// stencilRow is row i of the line whose source lines are src, src[own]
// the line itself: the form for the i = 0 and i = NX-1 rows and for
// lines that lack a source.
func stencilRow(src [][]float64, own, i int) float64 {
	sum := 26.0 * src[own][i]
	for s, l := range src {
		if i > 0 {
			sum -= l[i-1]
		}
		if s != own {
			sum -= l[i]
		}
		if i+1 < len(l) {
			sum -= l[i+1]
		}
	}
	return sum
}

// Waxpby computes w = alpha*x + beta*y over [lo,hi).
func Waxpby(w, x, y []float64, alpha, beta float64, lo, hi int) {
	w, x, y = w[lo:hi], x[lo:hi], y[lo:hi]
	for i := range w {
		w[i] = alpha*x[i] + beta*y[i]
	}
}

// Dot returns sum(x[i]*y[i]) over [lo,hi).
func Dot(x, y []float64, lo, hi int) float64 {
	x, y = x[lo:hi], y[lo:hi]
	s := 0.0
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// mergeParts sums partials in block order (deterministic).
func mergeParts(parts []float64) float64 {
	s := 0.0
	for _, v := range parts {
		s += v
	}
	return s
}

// SerialCG runs the reference single-rank CG (Ranks must be 1).
func (pr *Problem) SerialCG() error {
	if pr.P.Ranks != 1 {
		return fmt.Errorf("hpcg: SerialCG requires 1 rank")
	}
	n := pr.Rows
	zero := pr.GhostLo // all-zero ghosts for single rank
	// r = b - A*x0 = b (x0 = 0); p = r.
	copy(pr.R, pr.B)
	copy(pr.Pv, pr.R)
	pr.RtzOld = Dot(pr.R, pr.R, 0, n)
	for it := 0; it < pr.P.Iters; it++ {
		pr.SpMV(pr.Ap, pr.Pv, zero, pr.GhostHi, 0, n)
		pAp := Dot(pr.Pv, pr.Ap, 0, n)
		pr.Alpha = pr.RtzOld / pAp
		Waxpby(pr.X, pr.X, pr.Pv, 1, pr.Alpha, 0, n)
		Waxpby(pr.R, pr.R, pr.Ap, 1, -pr.Alpha, 0, n)
		pr.Rtz = Dot(pr.R, pr.R, 0, n)
		pr.Beta = pr.Rtz / pr.RtzOld
		pr.RtzOld = pr.Rtz
		Waxpby(pr.Pv, pr.R, pr.Pv, 1, pr.Beta, 0, n)
		pr.Rnorm = append(pr.Rnorm, math.Sqrt(pr.Rtz))
	}
	return nil
}

// SerialCGBlocked runs the reference CG with dot products computed as
// ordered sums of `blocks` per-block partials — the exact summation
// scheme of the blocked forms, so a task run with TPL=blocks is bitwise
// comparable. Ranks must be 1.
func (pr *Problem) SerialCGBlocked(blocks int) error {
	if pr.P.Ranks != 1 {
		return fmt.Errorf("hpcg: SerialCGBlocked requires 1 rank")
	}
	if blocks < 1 {
		blocks = 1
	}
	n := pr.Rows
	zero := pr.GhostLo
	dotB := func(x, y []float64) float64 {
		parts := make([]float64, blocks)
		for c := 0; c < blocks; c++ {
			parts[c] = Dot(x, y, c*n/blocks, (c+1)*n/blocks)
		}
		return mergeParts(parts)
	}
	copy(pr.R, pr.B)
	copy(pr.Pv, pr.R)
	pr.RtzOld = dotB(pr.R, pr.R)
	for it := 0; it < pr.P.Iters; it++ {
		pr.SpMV(pr.Ap, pr.Pv, zero, pr.GhostHi, 0, n)
		pAp := dotB(pr.Pv, pr.Ap)
		pr.Alpha = pr.RtzOld / pAp
		Waxpby(pr.X, pr.X, pr.Pv, 1, pr.Alpha, 0, n)
		Waxpby(pr.R, pr.R, pr.Ap, 1, -pr.Alpha, 0, n)
		pr.Rtz = dotB(pr.R, pr.R)
		pr.Beta = pr.Rtz / pr.RtzOld
		pr.RtzOld = pr.Rtz
		Waxpby(pr.Pv, pr.R, pr.Pv, 1, pr.Beta, 0, n)
		pr.Rnorm = append(pr.Rnorm, math.Sqrt(pr.Rtz))
	}
	return nil
}

// haloExchange updates ghost layers of Pv with z neighbors (blocking).
func (pr *Problem) haloExchange(comm *mpi.Comm) {
	if comm == nil || pr.P.Ranks == 1 {
		return
	}
	const tagUp, tagDown = 201, 202
	nxy := pr.P.NX * pr.P.NY
	top := pr.Pv[pr.Rows-nxy:]
	bot := pr.Pv[:nxy]
	var reqs []*mpi.Request
	if pr.P.Rank > 0 {
		reqs = append(reqs, comm.Irecv(pr.GhostLo, pr.P.Rank-1, tagUp))
		reqs = append(reqs, comm.Isend(bot, pr.P.Rank-1, tagDown))
	}
	if pr.P.Rank < pr.P.Ranks-1 {
		reqs = append(reqs, comm.Irecv(pr.GhostHi, pr.P.Rank+1, tagDown))
		reqs = append(reqs, comm.Isend(top, pr.P.Rank+1, tagUp))
	}
	mpi.Waitall(reqs...)
}

// allreduceSum reduces a scalar across ranks (identity on nil comm).
func allreduceSum(comm *mpi.Comm, v float64) float64 {
	if comm == nil || comm.Size() == 1 {
		return v
	}
	var in, out [1]float64
	in[0] = v
	comm.Allreduce(mpi.Sum, in[:], out[:])
	return out[0]
}

// RunParallelFor runs the BSP form: blocked loops with barriers,
// blocking halo exchange and collectives between loops.
func (pr *Problem) RunParallelFor(r *rt.Runtime, comm *mpi.Comm) {
	n := pr.Rows
	nw := r.Scheduler().NumWorkers()
	parts := make([]float64, nw)

	specs := make([]rt.Spec, 0, nw)
	parfor := func(body func(lo, hi int)) {
		specs = specs[:0]
		for c := 0; c < nw; c++ {
			lo2, hi2 := c*n/nw, (c+1)*n/nw
			specs = append(specs, rt.Spec{Label: "parfor", Do: func(any) error { body(lo2, hi2); return nil }})
		}
		r.SubmitBatch(specs)
		r.Taskwait()
	}
	dot := func(x, y []float64) float64 {
		specs = specs[:0]
		for c := 0; c < nw; c++ {
			c, lo2, hi2 := c, c*n/nw, (c+1)*n/nw
			specs = append(specs, rt.Spec{Label: "dot", Do: func(any) error { parts[c] = Dot(x, y, lo2, hi2); return nil }})
		}
		r.SubmitBatch(specs)
		r.Taskwait()
		return allreduceSum(comm, mergeParts(parts))
	}

	copy(pr.R, pr.B)
	copy(pr.Pv, pr.R)
	pr.RtzOld = dot(pr.R, pr.R)
	for it := 0; it < pr.P.Iters; it++ {
		pr.haloExchange(comm)
		parfor(func(lo, hi int) { pr.SpMV(pr.Ap, pr.Pv, pr.GhostLo, pr.GhostHi, lo, hi) })
		pAp := dot(pr.Pv, pr.Ap)
		pr.Alpha = pr.RtzOld / pAp
		parfor(func(lo, hi int) { Waxpby(pr.X, pr.X, pr.Pv, 1, pr.Alpha, lo, hi) })
		parfor(func(lo, hi int) { Waxpby(pr.R, pr.R, pr.Ap, 1, -pr.Alpha, lo, hi) })
		pr.Rtz = dot(pr.R, pr.R)
		pr.Beta = pr.Rtz / pr.RtzOld
		pr.RtzOld = pr.Rtz
		parfor(func(lo, hi int) { Waxpby(pr.Pv, pr.R, pr.Pv, 1, pr.Beta, lo, hi) })
		pr.Rnorm = append(pr.Rnorm, math.Sqrt(pr.Rtz))
	}
}

// Dependence key namespaces.
const (
	hX = iota + 1
	hB
	hR
	hP
	hAp
	hGhostLo
	hGhostHi
	hScalarAlpha // alpha/rtz etc: one key serializes scalar stages
	hPartAp
	hPartRz
)

func key(f, c int) graph.Key { return graph.Key(uint64(f)<<32 | uint64(uint32(c))) }

// TaskConfig parametrizes the dependent-task form.
type TaskConfig struct {
	// TPL is the number of vector blocks (the paper's grain knob).
	TPL int
	// SpMVSub is the number of SpMV sub-blocks per vector block (the
	// paper fixes 32; scaled here with problem size).
	SpMVSub int
	// Persistent enables the PTSG extension. Note: scalar stages make
	// each CG iteration's graph identical, so HPCG replays cleanly.
	Persistent bool
}

// RunTask runs the dependent-task CG. Vector blocks are TPL chunks of
// rows; SpMV splits each block into SpMVSub sub-tasks; dot products are
// per-block partial tasks merged by a scalar task; the halo exchange is
// nested in detached tasks.
func (pr *Problem) RunTask(r *rt.Runtime, comm *mpi.Comm, cfg TaskConfig) error {
	if cfg.TPL <= 0 {
		cfg.TPL = 1
	}
	if cfg.SpMVSub <= 0 {
		cfg.SpMVSub = 1
	}
	n := pr.Rows
	tpl := cfg.TPL
	pr.partAp = make([]float64, tpl)
	pr.partRz = make([]float64, tpl)

	// Initialization (outside the iterated graph). The initial dot uses
	// the same per-block summation as the task graph so every form with
	// equal TPL is bitwise identical.
	copy(pr.R, pr.B)
	copy(pr.Pv, pr.R)
	for c := 0; c < tpl; c++ {
		pr.partRz[c] = Dot(pr.R, pr.R, c*n/tpl, (c+1)*n/tpl)
	}
	pr.RtzOld = allreduceSum(comm, mergeParts(pr.partRz))

	// A CG iteration's task graph does not change between iterations, so
	// its specs — keys, and closures over constant block bounds — are
	// built once and resubmitted: one SubmitBatch call per iteration, one
	// pass over the graph's submission path.
	specs := pr.buildIteration(comm, cfg)
	body := func(iter int) { r.SubmitBatch(specs) }

	abort := func(err error) error {
		// Error out the peers' halo/allreduce requests rather than
		// letting them deadlock on a rank that stopped iterating.
		if comm != nil {
			comm.Abort(err)
		}
		return err
	}
	if cfg.Persistent {
		if err := r.Persistent(pr.P.Iters, body); err != nil {
			return abort(err)
		}
		return nil
	}
	for it := 0; it < pr.P.Iters; it++ {
		body(it)
	}
	if err := r.Taskwait(); err != nil {
		return abort(err)
	}
	return nil
}

// blockChunks maps a row range to covering block indices.
func (pr *Problem) blockChunks(tpl, lo, hi int) (int, int) {
	if hi <= lo {
		return 0, -1
	}
	n := pr.Rows
	c0 := lo * tpl / n
	c1 := (hi - 1) * tpl / n
	for c0 > 0 && c0*n/tpl > lo {
		c0--
	}
	for c1 < tpl-1 && (c1+1)*n/tpl < hi {
		c1++
	}
	return c0, c1
}

func keysRange(f, c0, c1 int) []graph.Key {
	if c1 < c0 {
		return nil
	}
	out := make([]graph.Key, 0, c1-c0+1)
	for c := c0; c <= c1; c++ {
		out = append(out, key(f, c))
	}
	return out
}

// buildIteration returns one CG iteration's tasks in submission order.
func (pr *Problem) buildIteration(comm *mpi.Comm, cfg TaskConfig) []rt.Spec {
	n := pr.Rows
	tpl := cfg.TPL
	specs := make([]rt.Spec, 0, 4+tpl*(cfg.SpMVSub+5)+2)
	nx, ny := pr.P.NX, pr.P.NY
	nxy := nx * ny

	// Halo exchange of Pv (detached tasks), as in §4.3's port.
	if comm != nil && pr.P.Ranks > 1 {
		const tagUp, tagDown = 201, 202
		c0b, c1b := pr.blockChunks(tpl, 0, nxy)
		c0t, c1t := pr.blockChunks(tpl, n-nxy, n)
		if pr.P.Rank > 0 {
			down := pr.P.Rank - 1
			specs = append(specs, rt.Spec{
				Label: "irecv-lo", Out: []graph.Key{key(hGhostLo, 0)}, Detached: true,
				DetachedBody: func(_ any, ev *rt.Event) {
					comm.Irecv(pr.GhostLo, down, tagUp).OnComplete(ev.Fulfill)
				},
			})
			specs = append(specs, rt.Spec{
				Label: "isend-lo", In: keysRange(hP, c0b, c1b), Detached: true,
				DetachedBody: func(_ any, ev *rt.Event) {
					comm.Isend(pr.Pv[:nxy], down, tagDown).OnComplete(ev.Fulfill)
				},
			})
		}
		if pr.P.Rank < pr.P.Ranks-1 {
			up := pr.P.Rank + 1
			specs = append(specs, rt.Spec{
				Label: "irecv-hi", Out: []graph.Key{key(hGhostHi, 0)}, Detached: true,
				DetachedBody: func(_ any, ev *rt.Event) {
					comm.Irecv(pr.GhostHi, up, tagDown).OnComplete(ev.Fulfill)
				},
			})
			specs = append(specs, rt.Spec{
				Label: "isend-hi", In: keysRange(hP, c0t, c1t), Detached: true,
				DetachedBody: func(_ any, ev *rt.Event) {
					comm.Isend(pr.Pv[pr.Rows-nxy:], up, tagUp).OnComplete(ev.Fulfill)
				},
			})
		}
	}

	// SpMV: per vector block, SpMVSub sub-tasks writing Ap block.
	for c := 0; c < tpl; c++ {
		lo, hi := c*n/tpl, (c+1)*n/tpl
		// The farthest stencil neighbor of row r is r +/- (nxy+nx+1).
		reach := nxy + nx + 1
		alo, ahi := lo-reach, hi+reach
		if alo < 0 {
			alo = 0
		}
		if ahi > n {
			ahi = n
		}
		pc0, pc1 := pr.blockChunks(tpl, alo, ahi)
		in := keysRange(hP, pc0, pc1)
		if lo < nxy && pr.P.Rank > 0 {
			in = append(in, key(hGhostLo, 0))
		}
		if hi > n-nxy && pr.P.Rank < pr.P.Ranks-1 {
			in = append(in, key(hGhostHi, 0))
		}
		sub := cfg.SpMVSub
		for s := 0; s < sub; s++ {
			slo := lo + s*(hi-lo)/sub
			shi := lo + (s+1)*(hi-lo)/sub
			slo2, shi2 := slo, shi
			deps := rt.Spec{
				Label: "spmv",
				In:    in,
				Do:    func(any) error { pr.SpMV(pr.Ap, pr.Pv, pr.GhostLo, pr.GhostHi, slo2, shi2); return nil },
			}
			if sub > 1 {
				deps.InOutSet = []graph.Key{key(hAp, c)}
			} else {
				deps.Out = []graph.Key{key(hAp, c)}
			}
			specs = append(specs, deps)
		}
	}
	// Per-block pAp partials.
	for c := 0; c < tpl; c++ {
		lo, hi := c*n/tpl, (c+1)*n/tpl
		c2, lo2, hi2 := c, lo, hi
		specs = append(specs, rt.Spec{
			Label: "dot-pAp",
			In:    []graph.Key{key(hAp, c), key(hP, c)},
			Out:   []graph.Key{key(hPartAp, c)},
			Do:    func(any) error { pr.partAp[c2] = Dot(pr.Pv, pr.Ap, lo2, hi2); return nil },
		})
	}
	// Scalar stage: merge + allreduce + alpha (a communication task).
	specs = append(specs, rt.Spec{
		Label: "alpha",
		In:    keysRange(hPartAp, 0, tpl-1),
		Out:   []graph.Key{key(hScalarAlpha, 0)},
		Do: func(any) error {
			pAp := allreduceSum(comm, mergeParts(pr.partAp))
			pr.Alpha = pr.RtzOld / pAp
			return nil
		},
	})
	// x += alpha*p
	for c := 0; c < tpl; c++ {
		lo, hi := c*n/tpl, (c+1)*n/tpl
		lo2, hi2 := lo, hi
		specs = append(specs, rt.Spec{
			Label: "waxpby-x",
			In:    []graph.Key{key(hScalarAlpha, 0), key(hP, c)},
			InOut: []graph.Key{key(hX, c)},
			Do:    func(any) error { Waxpby(pr.X, pr.X, pr.Pv, 1, pr.Alpha, lo2, hi2); return nil },
		})
	}
	// r -= alpha*Ap ; partial rz
	for c := 0; c < tpl; c++ {
		lo, hi := c*n/tpl, (c+1)*n/tpl
		c2, lo2, hi2 := c, lo, hi
		specs = append(specs, rt.Spec{
			Label: "waxpby-r",
			In:    []graph.Key{key(hScalarAlpha, 0), key(hAp, c)},
			InOut: []graph.Key{key(hR, c)},
			Do:    func(any) error { Waxpby(pr.R, pr.R, pr.Ap, 1, -pr.Alpha, lo2, hi2); return nil },
		})
		specs = append(specs, rt.Spec{
			Label: "dot-rz",
			In:    []graph.Key{key(hR, c)},
			Out:   []graph.Key{key(hPartRz, c)},
			Do:    func(any) error { pr.partRz[c2] = Dot(pr.R, pr.R, lo2, hi2); return nil },
		})
	}
	// Scalar stage: rtz, beta (collective).
	specs = append(specs, rt.Spec{
		Label: "beta",
		In:    keysRange(hPartRz, 0, tpl-1),
		InOut: []graph.Key{key(hScalarAlpha, 0)},
		Do: func(any) error {
			pr.Rtz = allreduceSum(comm, mergeParts(pr.partRz))
			pr.Beta = pr.Rtz / pr.RtzOld
			pr.RtzOld = pr.Rtz
			pr.Rnorm = append(pr.Rnorm, math.Sqrt(pr.Rtz))
			return nil
		},
	})
	// p = r + beta*p
	for c := 0; c < tpl; c++ {
		lo, hi := c*n/tpl, (c+1)*n/tpl
		lo2, hi2 := lo, hi
		specs = append(specs, rt.Spec{
			Label: "waxpby-p",
			In:    []graph.Key{key(hScalarAlpha, 0), key(hR, c)},
			InOut: []graph.Key{key(hP, c)},
			Do:    func(any) error { Waxpby(pr.Pv, pr.R, pr.Pv, 1, pr.Beta, lo2, hi2); return nil },
		})
	}
	return specs
}
