package hpcg

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"taskdep/internal/graph"
	"taskdep/internal/rt"
)

// spmvNaive is the per-neighbour triple loop SpMV was before the line
// sweep, kept as the oracle: (i, j, k) re-derived per row, every
// neighbour bounds-tested and fetched through a three-way plane switch.
func (pr *Problem) spmvNaive(y, x, ghostLo, ghostHi []float64, lo, hi int) {
	nx, ny, nz := pr.P.NX, pr.P.NY, pr.P.NZ
	nxy := nx * ny
	gnz := pr.globalNZ()
	for row := lo; row < hi; row++ {
		i := row % nx
		j := (row / nx) % ny
		k := row / nxy
		gk := pr.globalK(k)
		sum := 26.0 * x[row]
		for dk := -1; dk <= 1; dk++ {
			gk2 := gk + dk
			if gk2 < 0 || gk2 >= gnz {
				continue
			}
			for dj := -1; dj <= 1; dj++ {
				j2 := j + dj
				if j2 < 0 || j2 >= ny {
					continue
				}
				for di := -1; di <= 1; di++ {
					i2 := i + di
					if i2 < 0 || i2 >= nx {
						continue
					}
					if di == 0 && dj == 0 && dk == 0 {
						continue
					}
					k2 := k + dk
					var v float64
					switch {
					case k2 < 0:
						v = ghostLo[j2*nx+i2]
					case k2 >= nz:
						v = ghostHi[j2*nx+i2]
					default:
						v = x[(k2*ny+j2)*nx+i2]
					}
					sum -= v
				}
			}
		}
		y[row] = sum
	}
}

// decades fills v with non-zero values of either sign whose magnitudes
// span six decades, so that a reordered subtraction rounds differently.
func decades(rng *rand.Rand, v []float64) {
	for i := range v {
		v[i] = (0.1 + rng.Float64()) * math.Pow(10, float64(rng.Intn(7)-3))
		if rng.Intn(2) == 0 {
			v[i] = -v[i]
		}
	}
}

// randomCuts partitions [0, n) into consecutive ranges of up to step
// rows that begin and end anywhere (mid-line included), some of them
// empty.
func randomCuts(rng *rand.Rand, n, step int) []int {
	cuts := []int{0}
	for at := 0; at < n; {
		if rng.Intn(8) > 0 {
			at = min(n, at+1+rng.Intn(step))
		}
		cuts = append(cuts, at)
	}
	return append(cuts, n)
}

// TestSpMVMatchesNaiveBitwise is the referee of the line sweep: on
// seeded random grids, decompositions, ghost layers and row ranges,
// every row it writes carries the bits the triple loop writes, and rows
// outside [lo, hi) are left alone.
func TestSpMVMatchesNaiveBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const untouched = -12345.5
	for trial := 0; trial < 320; trial++ {
		p := Params{NX: 2 + rng.Intn(7), NY: 2 + rng.Intn(7), NZ: 2 + rng.Intn(7), Iters: 1, Ranks: 1 + rng.Intn(3)}
		for p.Rank = 0; p.Rank < p.Ranks; p.Rank++ {
			pr, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			x := make([]float64, pr.Rows)
			decades(rng, x)
			decades(rng, pr.GhostLo)
			decades(rng, pr.GhostHi)
			want := make([]float64, pr.Rows)
			pr.spmvNaive(want, x, pr.GhostLo, pr.GhostHi, 0, pr.Rows)

			got := make([]float64, pr.Rows)
			for i := range got {
				got[i] = untouched
			}
			cuts := randomCuts(rng, pr.Rows, 3*p.NX)
			for c := 1; c < len(cuts); c++ {
				lo, hi := cuts[c-1], cuts[c]
				pr.SpMV(got, x, pr.GhostLo, pr.GhostHi, lo, hi)
				for row := hi; row < pr.Rows; row++ {
					if got[row] != untouched {
						t.Fatalf("trial %d %+v: SpMV over [%d, %d) wrote row %d", trial, p, lo, hi, row)
					}
				}
			}
			for row := range want {
				if math.Float64bits(got[row]) != math.Float64bits(want[row]) {
					t.Fatalf("trial %d %+v cuts %v: row %d = %x (%v), want %x (%v)", trial, p, cuts, row,
						math.Float64bits(got[row]), got[row], math.Float64bits(want[row]), want[row])
				}
			}
		}
	}
}

// TestWaxpbyDotMatchIndexedLoops holds the re-sliced vector kernels to
// the plain indexed loops bit for bit, including the aliased forms
// RunTask uses (w is x in the x and r updates, w is y in the p update).
func TestWaxpbyDotMatchIndexedLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(70)
		x, y := make([]float64, n), make([]float64, n)
		decades(rng, x)
		decades(rng, y)
		alpha, beta := 1.0, (rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(7)-3))
		if trial%3 == 0 {
			alpha = rng.Float64() - 0.5
		}
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n+1-lo)

		dot := 0.0
		for i := lo; i < hi; i++ {
			dot += x[i] * y[i]
		}
		if got := Dot(x, y, lo, hi); math.Float64bits(got) != math.Float64bits(dot) {
			t.Fatalf("trial %d: Dot over [%d, %d) = %v, want %v", trial, lo, hi, got, dot)
		}

		for _, alias := range []string{"none", "w=x", "w=y"} {
			xs, ys := append([]float64(nil), x...), append([]float64(nil), y...)
			w := make([]float64, n)
			decades(rng, w)
			switch alias {
			case "w=x":
				w = xs
			case "w=y":
				w = ys
			}
			want := append([]float64(nil), w...)
			for i := lo; i < hi; i++ {
				want[i] = alpha*x[i] + beta*y[i]
			}
			Waxpby(w, xs, ys, alpha, beta, lo, hi)
			for i := range want {
				if math.Float64bits(w[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d %s: Waxpby over [%d, %d): w[%d] = %v, want %v", trial, alias, lo, hi, i, w[i], want[i])
				}
			}
		}
	}
}

// persistentMallocs runs a persistent task CG of the given length on a
// fresh problem and runtime and returns the heap allocations RunTask made.
func persistentMallocs(t *testing.T, iters int, cfg TaskConfig) uint64 {
	t.Helper()
	pr, err := New(Params{NX: 8, NY: 8, NZ: 8, Iters: iters, Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := newRuntime(t, rt.Config{Workers: 1, Opts: graph.OptAll})
	defer r.Close()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := pr.RunTask(r, nil, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestIterationSpecsBuiltOnce: a replayed iteration costs well under one
// allocation per task, which it cannot if its closures and key slices
// are rebuilt every iteration (about three per task when they were).
func TestIterationSpecsBuiltOnce(t *testing.T) {
	cfg := TaskConfig{TPL: 8, SpMVSub: 4, Persistent: true}
	tasks := cfg.TPL*cfg.SpMVSub + 5*cfg.TPL + 2
	short, long := persistentMallocs(t, 4, cfg), persistentMallocs(t, 24, cfg)
	perIter := (float64(long) - float64(short)) / 20
	if perIter >= float64(tasks) {
		t.Fatalf("%.1f allocations per replayed iteration of %d tasks: the specs are being rebuilt", perIter, tasks)
	}
}

// TestRunTaskKeepsNothingAcrossCalls: the specs are a local of RunTask,
// so runs with different block counts, each on a fresh problem but one
// after the other on the same runtime, stay bitwise equal to the serial
// form blocked the same way.
func TestRunTaskKeepsNothingAcrossCalls(t *testing.T) {
	p := Params{NX: 6, NY: 5, NZ: 7, Iters: 7, Ranks: 1}
	r := newRuntime(t, rt.Config{Workers: 3, Opts: graph.OptAll})
	defer r.Close()
	for _, cfg := range []TaskConfig{{TPL: 5, SpMVSub: 3, Persistent: true}, {TPL: 3, SpMVSub: 2, Persistent: true}, {TPL: 6, SpMVSub: 1}} {
		ref, _ := New(p)
		if err := ref.SerialCGBlocked(cfg.TPL); err != nil {
			t.Fatal(err)
		}
		pr, _ := New(p)
		if err := pr.RunTask(r, nil, cfg); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		for i := range ref.X {
			if math.Float64bits(ref.X[i]) != math.Float64bits(pr.X[i]) {
				t.Fatalf("%+v: X[%d] = %v, want %v", cfg, i, pr.X[i], ref.X[i])
			}
		}
		if ref.Rtz != pr.Rtz {
			t.Fatalf("%+v: rtz %v vs %v", cfg, pr.Rtz, ref.Rtz)
		}
	}
}

// BenchmarkSpMV times the kernel on the shapes hpcg_mpi gives it: the
// whole slab, one 128-row task range, a plane that reads a ghost layer,
// and a grid whose lines have no interior.
func BenchmarkSpMV(b *testing.B) {
	for _, bc := range []struct {
		name   string
		p      Params
		lo, hi int
	}{
		{"slab", Params{NX: 32, NY: 32, NZ: 32, Ranks: 1}, 0, 32 * 32 * 32},
		{"task128", Params{NX: 32, NY: 32, NZ: 32, Ranks: 2}, 16*1024 + 512, 16*1024 + 640},
		{"ghost-plane", Params{NX: 32, NY: 32, NZ: 32, Ranks: 2, Rank: 1}, 0, 32 * 32},
		{"nx2", Params{NX: 2, NY: 64, NZ: 64, Ranks: 1}, 0, 2 * 64 * 64},
	} {
		b.Run(bc.name, func(b *testing.B) {
			bc.p.Iters = 1
			pr, err := New(bc.p)
			if err != nil {
				b.Fatal(err)
			}
			x, y := make([]float64, pr.Rows), make([]float64, pr.Rows)
			for i := range x {
				x[i] = float64(i % 7)
			}
			for i := range pr.GhostLo {
				pr.GhostLo[i] = float64(i % 5)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pr.SpMV(y, x, pr.GhostLo, pr.GhostHi, bc.lo, bc.hi)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bc.hi-bc.lo), "ns/row")
		})
	}
}

func BenchmarkWaxpby(b *testing.B) {
	const n = 32 * 32 * 32
	w, x, y := make([]float64, n), make([]float64, n), make([]float64, n)
	b.SetBytes(3 * 8 * n)
	for i := 0; i < b.N; i++ {
		Waxpby(w, x, y, 1, 0.5, 0, n)
	}
}

var dotSink float64

func BenchmarkDot(b *testing.B) {
	const n = 32 * 32 * 32
	x, y := make([]float64, n), make([]float64, n)
	b.SetBytes(2 * 8 * n)
	for i := 0; i < b.N; i++ {
		dotSink += Dot(x, y, 0, n)
	}
}
