// Cholesky: a tiled dense factorization on the taskdep public API — the
// classic showcase of dependent-task programming (paper §4.4). POTRF,
// TRSM, SYRK and GEMM tasks are ordered purely by their tile
// dependences; repeated factorizations reuse a persistent task graph.
//
//	go run ./examples/cholesky
package main

import (
	"fmt"
	"math"
	"time"

	"taskdep"
)

const (
	T = 8  // tile grid
	B = 48 // tile size
)

func tileKey(i, j int) taskdep.Key { return taskdep.Key(uint64(1)<<40 | uint64(i)<<20 | uint64(j)) }

// newSPD builds a symmetric positive-definite matrix in T x T lower
// tiles of B x B.
func newSPD() map[[2]int][]float64 {
	tiles := map[[2]int][]float64{}
	n := T * B
	for ti := 0; ti < T; ti++ {
		for tj := 0; tj <= ti; tj++ {
			tile := make([]float64, B*B)
			for i := 0; i < B; i++ {
				for j := 0; j < B; j++ {
					gi, gj := ti*B+i, tj*B+j
					if gi < gj {
						continue
					}
					v := 1.0 / (1.0 + float64(gi-gj))
					if gi == gj {
						v += float64(n)
					}
					tile[i*B+j] = v
				}
			}
			tiles[[2]int{ti, tj}] = tile
		}
	}
	return tiles
}

func potrf(a []float64) {
	for j := 0; j < B; j++ {
		d := a[j*B+j]
		for k := 0; k < j; k++ {
			d -= a[j*B+k] * a[j*B+k]
		}
		d = math.Sqrt(d)
		a[j*B+j] = d
		for i := j + 1; i < B; i++ {
			s := a[i*B+j]
			for k := 0; k < j; k++ {
				s -= a[i*B+k] * a[j*B+k]
			}
			a[i*B+j] = s / d
		}
		for i := 0; i < j; i++ {
			a[i*B+j] = 0
		}
	}
}

func trsm(l, a []float64) {
	for i := 0; i < B; i++ {
		for j := 0; j < B; j++ {
			s := a[i*B+j]
			for k := 0; k < j; k++ {
				s -= a[i*B+k] * l[j*B+k]
			}
			a[i*B+j] = s / l[j*B+j]
		}
	}
}

func syrk(a, c []float64) {
	for i := 0; i < B; i++ {
		for j := 0; j <= i; j++ {
			s := 0.0
			for k := 0; k < B; k++ {
				s += a[i*B+k] * a[j*B+k]
			}
			c[i*B+j] -= s
		}
	}
}

func gemm(a, b, c []float64) {
	for i := 0; i < B; i++ {
		for j := 0; j < B; j++ {
			s := 0.0
			for k := 0; k < B; k++ {
				s += a[i*B+k] * b[j*B+k]
			}
			c[i*B+j] -= s
		}
	}
}

func main() {
	tiles := newSPD()
	rt, err := taskdep.NewRuntime(taskdep.Config{Workers: 8, Opts: taskdep.OptAll})
	if err != nil {
		panic(err)
	}
	defer rt.Close()

	t0 := time.Now()
	for k := 0; k < T; k++ {
		k := k
		rt.Submit(taskdep.Spec{
			Label: "potrf", InOut: []taskdep.Key{tileKey(k, k)},
			Do: func(any) error { potrf(tiles[[2]int{k, k}]); return nil },
		})
		for i := k + 1; i < T; i++ {
			i := i
			rt.Submit(taskdep.Spec{
				Label: "trsm",
				In:    []taskdep.Key{tileKey(k, k)},
				InOut: []taskdep.Key{tileKey(i, k)},
				Do:    func(any) error { trsm(tiles[[2]int{k, k}], tiles[[2]int{i, k}]); return nil },
			})
		}
		for i := k + 1; i < T; i++ {
			i := i
			rt.Submit(taskdep.Spec{
				Label: "syrk",
				In:    []taskdep.Key{tileKey(i, k)},
				InOut: []taskdep.Key{tileKey(i, i)},
				Do:    func(any) error { syrk(tiles[[2]int{i, k}], tiles[[2]int{i, i}]); return nil },
			})
			for j := k + 1; j < i; j++ {
				j := j
				rt.Submit(taskdep.Spec{
					Label: "gemm",
					In:    []taskdep.Key{tileKey(i, k), tileKey(j, k)},
					InOut: []taskdep.Key{tileKey(i, j)},
					Do:    func(any) error { gemm(tiles[[2]int{i, k}], tiles[[2]int{j, k}], tiles[[2]int{i, j}]); return nil },
				})
			}
		}
	}
	rt.Taskwait()
	wall := time.Since(t0)

	// Residual check on a few entries of L*L^T.
	ref := newSPD()
	get := func(m map[[2]int][]float64, gi, gj int) float64 {
		if gi < gj {
			return 0
		}
		return m[[2]int{gi / B, gj / B}][(gi%B)*B+(gj%B)]
	}
	worst := 0.0
	n := T * B
	for _, probe := range [][2]int{{0, 0}, {n - 1, 0}, {n - 1, n - 1}, {n / 2, n / 3}} {
		gi, gj := probe[0], probe[1]
		s := 0.0
		for k := 0; k <= gj; k++ {
			s += get(tiles, gi, k) * get(tiles, gj, k)
		}
		if e := math.Abs(s - get(ref, gi, gj)); e > worst {
			worst = e
		}
	}
	st := rt.Graph().Stats()
	fmt.Printf("factorized %dx%d in %v with %d tasks / %d edges\n", n, n, wall, st.Tasks, st.EdgesCreated)
	fmt.Printf("max probe residual |L*L^T - A| = %.3e\n", worst)
}
