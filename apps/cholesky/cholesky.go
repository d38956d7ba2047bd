// Package cholesky implements the reproduction's tile-based dense
// Cholesky factorization (paper §4.4, after Schuchart et al.): a
// right-looking factorization over b x b tiles with POTRF/TRSM/SYRK/GEMM
// tasks, dependent tasks for intra-node parallelism, and MPI
// communications performed by tasks for the distributed form (1-D
// block-cyclic tile-column distribution; the column owner sends its
// factored panel tiles to every other rank).
//
// The dense, regular dependency scheme makes edge optimizations (a),
// (b), (c) neutral here — as the paper reports — while the persistent
// graph (p) pays off when factorizations of identically-sized matrices
// repeat.
package cholesky

import (
	"fmt"
	"math"

	"taskdep/internal/graph"
	"taskdep/internal/mpi"
	"taskdep/internal/rt"
)

// Matrix is a symmetric positive-definite matrix stored as T x T lower
// tiles of b x b row-major float64 blocks. Only tiles with i >= j are
// stored.
type Matrix struct {
	T, B  int
	tiles map[[2]int][]float64
}

// NewSPD builds the standard synthetic SPD test matrix
// A[i][j] = 1/(1+|i-j|) + n on the diagonal.
func NewSPD(t, b int) *Matrix {
	m := &Matrix{T: t, B: b, tiles: make(map[[2]int][]float64)}
	n := t * b
	for ti := 0; ti < t; ti++ {
		for tj := 0; tj <= ti; tj++ {
			tile := make([]float64, b*b)
			for i := 0; i < b; i++ {
				for j := 0; j < b; j++ {
					gi, gj := ti*b+i, tj*b+j
					if gi < gj {
						continue // upper part of a diagonal tile: unused
					}
					v := 1.0 / (1.0 + math.Abs(float64(gi-gj)))
					if gi == gj {
						v += float64(n)
					}
					tile[i*b+j] = v
				}
			}
			m.tiles[[2]int{ti, tj}] = tile
		}
	}
	return m
}

// Tile returns tile (i,j), i >= j.
func (m *Matrix) Tile(i, j int) []float64 { return m.tiles[[2]int{i, j}] }

// SetTile installs a tile buffer (used for ghost tiles).
func (m *Matrix) SetTile(i, j int, t []float64) { m.tiles[[2]int{i, j}] = t }

// Clone deep-copies the stored tiles.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{T: m.T, B: m.B, tiles: make(map[[2]int][]float64, len(m.tiles))}
	for k, v := range m.tiles {
		c.tiles[k] = append([]float64(nil), v...)
	}
	return c
}

// --- tile kernels ---
//
// The kernels are register-blocked, and every output element still gets
// the same operations in the same order as the one-element loop, so the
// factor's bits are those of the textbook kernels: each sum starts from
// the same value (0.0 in Gemm and Syrk, the element itself in Trsm and
// Potrf) and runs over k in ascending order. Blocking only interleaves
// sums that were already independent, and the Go compiler does not fuse
// x*y+z into one rounding on amd64. Rows are re-sliced to their length
// so the k loops run without bounds checks. Four rows by two columns
// is eight accumulators, plus six operands, within amd64's fifteen
// usable XMM registers; a 4 x 4 block spills. TestKernelsMatchNaiveBitwise
// compares every element with the one-element loops, and
// TestSerialFactorBitsPinned pins the factor's hash.

// Potrf factors tile a (b x b) in place into its lower Cholesky factor.
func Potrf(a []float64, b int) error {
	for j := 0; j < b; j++ {
		rj := a[j*b : j*b+j]
		d := a[j*b+j]
		for _, v := range rj {
			d -= v * v
		}
		if d <= 0 {
			return fmt.Errorf("cholesky: not positive definite at %d (d=%v)", j, d)
		}
		d = math.Sqrt(d)
		a[j*b+j] = d
		i := j + 1
		for ; i+4 <= b; i += 4 {
			r0 := a[i*b:][:len(rj)]
			r1 := a[(i+1)*b:][:len(rj)]
			r2 := a[(i+2)*b:][:len(rj)]
			r3 := a[(i+3)*b:][:len(rj)]
			s0, s1, s2, s3 := a[i*b+j], a[(i+1)*b+j], a[(i+2)*b+j], a[(i+3)*b+j]
			for k, v := range rj {
				s0 -= r0[k] * v
				s1 -= r1[k] * v
				s2 -= r2[k] * v
				s3 -= r3[k] * v
			}
			a[i*b+j] = s0 / d
			a[(i+1)*b+j] = s1 / d
			a[(i+2)*b+j] = s2 / d
			a[(i+3)*b+j] = s3 / d
		}
		for ; i < b; i++ {
			ri := a[i*b:][:len(rj)]
			s := a[i*b+j]
			for k, v := range rj {
				s -= ri[k] * v
			}
			a[i*b+j] = s / d
		}
		for i := 0; i < j; i++ {
			a[i*b+j] = 0 // keep strictly lower + diagonal
		}
	}
	return nil
}

// Trsm solves X * L^T = A in place (A := A * L^-T) where l is the lower
// factor of the diagonal tile. Rows are independent; within a row,
// column j needs the final values of columns k < j.
func Trsm(l, a []float64, b int) {
	i := 0
	for ; i+4 <= b; i += 4 {
		trsm4(l, a, b, i)
	}
	for ; i < b; i++ {
		row := a[i*b : i*b+b]
		for j := range row {
			trsmElem(l, row, b, j)
		}
	}
}

// trsm4 solves rows i..i+3 of a, two columns at a time. For columns j
// and j+1 the k < j terms go together; column j+1's k = j term is taken
// once a[.][j] is final, and its division comes last, as in the
// one-element loop.
func trsm4(l, a []float64, b, i int) {
	a0 := a[i*b : i*b+b]
	a1 := a[(i+1)*b:][:b]
	a2 := a[(i+2)*b:][:b]
	a3 := a[(i+3)*b:][:b]
	j := 0
	for ; j+2 <= b; j += 2 {
		l0 := l[j*b : j*b+j]
		l1 := l[(j+1)*b:][:len(l0)]
		x0, x1, x2, x3 := a0[:len(l0)], a1[:len(l0)], a2[:len(l0)], a3[:len(l0)]
		s00, s01 := a0[j], a0[j+1]
		s10, s11 := a1[j], a1[j+1]
		s20, s21 := a2[j], a2[j+1]
		s30, s31 := a3[j], a3[j+1]
		for k, v0 := range l0 {
			v1 := l1[k]
			y0, y1, y2, y3 := x0[k], x1[k], x2[k], x3[k]
			s00 -= y0 * v0
			s01 -= y0 * v1
			s10 -= y1 * v0
			s11 -= y1 * v1
			s20 -= y2 * v0
			s21 -= y2 * v1
			s30 -= y3 * v0
			s31 -= y3 * v1
		}
		d0, v, d1 := l[j*b+j], l[(j+1)*b+j], l[(j+1)*b+j+1]
		a0[j] = s00 / d0
		a1[j] = s10 / d0
		a2[j] = s20 / d0
		a3[j] = s30 / d0
		a0[j+1] = (s01 - a0[j]*v) / d1
		a1[j+1] = (s11 - a1[j]*v) / d1
		a2[j+1] = (s21 - a2[j]*v) / d1
		a3[j+1] = (s31 - a3[j]*v) / d1
	}
	if j < b {
		for _, row := range [4][]float64{a0, a1, a2, a3} {
			trsmElem(l, row, b, j)
		}
	}
}

// trsmElem solves element j of one row of a, the one-element loop.
func trsmElem(l, row []float64, b, j int) {
	lj := l[j*b : j*b+j]
	x := row[:len(lj)]
	s := row[j]
	for k, v := range lj {
		s -= x[k] * v
	}
	row[j] = s / l[j*b+j]
}

// Syrk updates a diagonal tile: C := C - A*A^T (lower part only). It
// writes nothing above the diagonal.
func Syrk(aTile, c []float64, b int) {
	i := 0
	for ; i+4 <= b; i += 4 {
		for j := 0; j < i; j += 2 {
			update4x2(aTile, aTile, c, b, i, j)
		}
		for r := i; r < i+4; r++ {
			for j := i; j <= r; j++ {
				c[r*b+j] -= dot(aTile, aTile, b, r, j)
			}
		}
	}
	for ; i < b; i++ {
		for j := 0; j <= i; j++ {
			c[i*b+j] -= dot(aTile, aTile, b, i, j)
		}
	}
}

// Gemm updates an off-diagonal tile: C := C - A*B^T.
func Gemm(aTile, bTile, c []float64, b int) {
	i := 0
	for ; i+4 <= b; i += 4 {
		j := 0
		for ; j+2 <= b; j += 2 {
			update4x2(aTile, bTile, c, b, i, j)
		}
		if j < b {
			for r := i; r < i+4; r++ {
				c[r*b+j] -= dot(aTile, bTile, b, r, j)
			}
		}
	}
	for ; i < b; i++ {
		for j := 0; j < b; j++ {
			c[i*b+j] -= dot(aTile, bTile, b, i, j)
		}
	}
}

// update4x2 subtracts from c[i..i+3][j..j+1] the dot products of rows
// i..i+3 of x with rows j, j+1 of y, each summed from 0.0 in ascending k.
func update4x2(x, y, c []float64, b, i, j int) {
	x0 := x[i*b : i*b+b]
	x1 := x[(i+1)*b:][:len(x0)]
	x2 := x[(i+2)*b:][:len(x0)]
	x3 := x[(i+3)*b:][:len(x0)]
	y0 := y[j*b:][:len(x0)]
	y1 := y[(j+1)*b:][:len(x0)]
	var s00, s01, s10, s11, s20, s21, s30, s31 float64
	for k, u0 := range x0 {
		u1, u2, u3 := x1[k], x2[k], x3[k]
		v0, v1 := y0[k], y1[k]
		s00 += u0 * v0
		s01 += u0 * v1
		s10 += u1 * v0
		s11 += u1 * v1
		s20 += u2 * v0
		s21 += u2 * v1
		s30 += u3 * v0
		s31 += u3 * v1
	}
	c[i*b+j] -= s00
	c[i*b+j+1] -= s01
	c[(i+1)*b+j] -= s10
	c[(i+1)*b+j+1] -= s11
	c[(i+2)*b+j] -= s20
	c[(i+2)*b+j+1] -= s21
	c[(i+3)*b+j] -= s30
	c[(i+3)*b+j+1] -= s31
}

// dot is the one-element loop: row i of x times row j of y, from 0.0.
func dot(x, y []float64, b, i, j int) float64 {
	xi := x[i*b : i*b+b]
	yj := y[j*b:][:len(xi)]
	s := 0.0
	for k, u := range xi {
		s += u * yj[k]
	}
	return s
}

// SerialFactor computes the tiled factorization in place (reference).
func SerialFactor(m *Matrix) error {
	t, b := m.T, m.B
	for k := 0; k < t; k++ {
		if err := Potrf(m.Tile(k, k), b); err != nil {
			return err
		}
		for i := k + 1; i < t; i++ {
			Trsm(m.Tile(k, k), m.Tile(i, k), b)
		}
		for i := k + 1; i < t; i++ {
			Syrk(m.Tile(i, k), m.Tile(i, i), b)
			for j := k + 1; j < i; j++ {
				Gemm(m.Tile(i, k), m.Tile(j, k), m.Tile(i, j), b)
			}
		}
	}
	return nil
}

// Verify checks L*L^T ~= A0 on the lower part with relative tolerance.
// Element (gi, gj) sums L[gi][k]*L[gj][k] over k <= gj from 0.0 in
// ascending k, walking the two rows tile by tile.
func Verify(a0, l *Matrix, tol float64) error {
	t, b := l.T, l.B
	lt := make([][][]float64, t) // lt[i][j] is tile (i, j) of l
	for i := range lt {
		lt[i] = make([][]float64, i+1)
		for j := range lt[i] {
			lt[i][j] = l.Tile(i, j)
		}
	}
	for ti := 0; ti < t; ti++ {
		for r := 0; r < b; r++ {
			for tj := 0; tj <= ti; tj++ {
				want := a0.Tile(ti, tj)[r*b : r*b+b]
				cmax := b
				if tj == ti {
					cmax = r + 1
				}
				for c := 0; c < cmax; c++ {
					s := 0.0
					for tk := 0; tk <= tj; tk++ {
						lj := lt[tj][tk][c*b : c*b+b]
						if tk == tj {
							lj = lj[:c+1]
						}
						li := lt[ti][tk][r*b:][:len(lj)]
						for k, v := range lj {
							s += li[k] * v
						}
					}
					if math.Abs(s-want[c]) > tol*(1+math.Abs(want[c])) {
						return fmt.Errorf("cholesky: L*L^T[%d,%d] = %v, want %v", ti*b+r, tj*b+c, s, want[c])
					}
				}
			}
		}
	}
	return nil
}

// tileKey namespaces dependence keys by tile coordinates.
func tileKey(i, j int) graph.Key { return graph.Key(1<<60 | uint64(i)<<24 | uint64(j)) }

// TaskFactor factors m with dependent tasks on the runtime (single
// process). Bitwise identical to SerialFactor: update chains per tile
// run in the serial order through inout dependences. A not-positive-
// definite panel makes the potrf task fail (Spec.Do), poisoning the
// updates that depend on it; the error surfaces from the barrier as a
// *fault.TaskError naming the tile.
func TaskFactor(m *Matrix, r *rt.Runtime) error {
	taskFactorInto(m, r)
	return r.Taskwait()
}

// RepeatedConfig parametrizes iterated factorizations (the paper's
// persistent-graph experiment: decompose matrices of the same dimensions
// repeatedly).
type RepeatedConfig struct {
	Iters      int
	Persistent bool
}

// TaskFactorRepeated factors `Iters` clones of a0 in sequence. In
// persistent mode the task graph is discovered once and replayed; the
// matrix reset runs at the head of each iteration body (safe: the
// implicit barrier guarantees the previous factorization finished).
func TaskFactorRepeated(a0 *Matrix, r *rt.Runtime, cfg RepeatedConfig) (*Matrix, error) {
	work := a0.Clone()
	reset := func() {
		for key, tile := range a0.tiles {
			copy(work.tiles[key], tile)
		}
	}
	body := func(iter int) {
		reset()
		taskFactorInto(work, r)
	}
	if cfg.Persistent {
		if err := r.Persistent(cfg.Iters, body); err != nil {
			return nil, err
		}
	} else {
		for it := 0; it < cfg.Iters; it++ {
			body(it)
			if err := r.Taskwait(); err != nil {
				return nil, err
			}
		}
	}
	return work, nil
}

// taskFactorInto submits the factorization tasks without waiting. Each
// elimination panel k (potrf + its trsm/syrk/gemm updates) is staged
// into a slice and discovered with one SubmitBatch call.
func taskFactorInto(m *Matrix, r *rt.Runtime) {
	t, b := m.T, m.B
	specs := make([]rt.Spec, 0, t*t/2+t)
	for k := 0; k < t; k++ {
		k := k
		specs = specs[:0]
		specs = append(specs, rt.Spec{
			Label: "potrf",
			InOut: []graph.Key{tileKey(k, k)},
			Do:    func(any) error { return Potrf(m.Tile(k, k), b) },
		})
		for i := k + 1; i < t; i++ {
			i := i
			specs = append(specs, rt.Spec{
				Label: "trsm",
				In:    []graph.Key{tileKey(k, k)},
				InOut: []graph.Key{tileKey(i, k)},
				Do:    func(any) error { Trsm(m.Tile(k, k), m.Tile(i, k), b); return nil },
			})
		}
		for i := k + 1; i < t; i++ {
			i := i
			specs = append(specs, rt.Spec{
				Label: "syrk",
				In:    []graph.Key{tileKey(i, k)},
				InOut: []graph.Key{tileKey(i, i)},
				Do:    func(any) error { Syrk(m.Tile(i, k), m.Tile(i, i), b); return nil },
			})
			for j := k + 1; j < i; j++ {
				j := j
				specs = append(specs, rt.Spec{
					Label: "gemm",
					In:    []graph.Key{tileKey(i, k), tileKey(j, k)},
					InOut: []graph.Key{tileKey(i, j)},
					Do:    func(any) error { Gemm(m.Tile(i, k), m.Tile(j, k), m.Tile(i, j), b); return nil },
				})
			}
		}
		r.SubmitBatch(specs)
	}
}

// --- distributed form ---

// DistMatrix is one rank's share of the tiles: 1-D block-cyclic over
// tile columns (column j owned by rank j % P), plus ghost tiles received
// from panel owners.
type DistMatrix struct {
	*Matrix
	Ranks, Rank int
}

// NewDistSPD builds rank's share of the NewSPD matrix.
func NewDistSPD(t, b, ranks, rank int) *DistMatrix {
	full := NewSPD(t, b)
	m := &Matrix{T: t, B: b, tiles: make(map[[2]int][]float64)}
	for key, tile := range full.tiles {
		if key[1]%ranks == rank {
			m.tiles[key] = tile
		}
	}
	return &DistMatrix{Matrix: m, Ranks: ranks, Rank: rank}
}

// Owner returns the owner rank of tile column j.
func (dm *DistMatrix) Owner(j int) int { return j % dm.Ranks }

// ghostKey is the dependence key of a received panel tile.
func ghostKey(i, k int) graph.Key { return graph.Key(1<<61 | uint64(i)<<24 | uint64(k)) }

// TaskFactorDist factors the distributed matrix: the owner of column k
// factors the panel (POTRF + TRSMs) and sends each panel tile to every
// other rank through send tasks; other ranks receive them into ghost
// tiles through detached receive tasks; every rank updates its owned
// columns. Communications are tasks in the TDG, as in the paper.
func TaskFactorDist(dm *DistMatrix, r *rt.Runtime, comm *mpi.Comm) error {
	t, b := dm.T, dm.B
	P := dm.Ranks
	tag := func(k, i int) int { return k*t + i }

	// Install every ghost tile before the first task is submitted: task
	// bodies read the tile map through dm.Tile while the producer is
	// still submitting, so from here on the map is only read.
	for k := 0; k < t; k++ {
		if dm.Owner(k) == dm.Rank {
			continue
		}
		for i := k + 1; i < t; i++ {
			if dm.Tile(i, k) == nil {
				dm.SetTile(i, k, make([]float64, b*b))
			}
		}
	}

	// panelTile returns the local or ghost buffer of panel tile (i,k)
	// and its dependence key.
	panelTile := func(i, k int) ([]float64, graph.Key) {
		if dm.Owner(k) == dm.Rank {
			return dm.Tile(i, k), tileKey(i, k)
		}
		return dm.Tile(i, k), ghostKey(i, k)
	}

	for k := 0; k < t; k++ {
		k := k
		owner := dm.Owner(k)
		if owner == dm.Rank {
			r.Submit(rt.Spec{
				Label: "potrf",
				InOut: []graph.Key{tileKey(k, k)},
				Do:    func(any) error { return Potrf(dm.Tile(k, k), b) },
			})
			for i := k + 1; i < t; i++ {
				i := i
				r.Submit(rt.Spec{
					Label: "trsm",
					In:    []graph.Key{tileKey(k, k)},
					InOut: []graph.Key{tileKey(i, k)},
					Do:    func(any) error { Trsm(dm.Tile(k, k), dm.Tile(i, k), b); return nil },
				})
			}
			// Send each sub-diagonal panel tile to every other rank
			// (the factored diagonal is only needed by the owner).
			for i := k + 1; i < t; i++ {
				i := i
				for p := 0; p < P; p++ {
					if p == dm.Rank {
						continue
					}
					p := p
					r.Submit(rt.Spec{
						Label:    "send",
						In:       []graph.Key{tileKey(i, k)},
						Detached: true,
						DetachedBody: func(_ any, ev *rt.Event) {
							comm.Isend(dm.Tile(i, k), p, tag(k, i)).OnComplete(ev.Fulfill)
						},
					})
				}
			}
		} else {
			// Receive the sub-diagonal panel tiles into ghosts.
			for i := k + 1; i < t; i++ {
				i := i
				buf, gk := panelTile(i, k)
				r.Submit(rt.Spec{
					Label:    "recv",
					Out:      []graph.Key{gk},
					Detached: true,
					DetachedBody: func(_ any, ev *rt.Event) {
						comm.Irecv(buf, owner, tag(k, i)).OnComplete(ev.Fulfill)
					},
				})
			}
		}
		// Updates on owned columns j in (k, t).
		for j := k + 1; j < t; j++ {
			if dm.Owner(j) != dm.Rank {
				continue
			}
			j := j
			jkBuf, jkKey := panelTile(j, k)
			// SYRK on the diagonal tile of column j.
			r.Submit(rt.Spec{
				Label: "syrk",
				In:    []graph.Key{jkKey},
				InOut: []graph.Key{tileKey(j, j)},
				Do:    func(any) error { Syrk(jkBuf, dm.Tile(j, j), b); return nil },
			})
			for i := j + 1; i < t; i++ {
				i := i
				ikBuf, ikKey := panelTile(i, k)
				r.Submit(rt.Spec{
					Label: "gemm",
					In:    []graph.Key{ikKey, jkKey},
					InOut: []graph.Key{tileKey(i, j)},
					Do:    func(any) error { Gemm(ikBuf, jkBuf, dm.Tile(i, j), b); return nil },
				})
			}
		}
	}
	if err := r.Taskwait(); err != nil {
		// Error out the peers' pending rendezvous/receives instead of
		// letting them deadlock on tiles this rank will never send.
		comm.Abort(err)
		return err
	}
	return nil
}
