package hpcg

import (
	"math"
	"testing"

	"taskdep/internal/graph"
	"taskdep/internal/mpi"
	"taskdep/internal/rt"
)

// newRuntime is NewRuntime for a test: a configuration it rejects fails
// the test.
func newRuntime(tb testing.TB, cfg rt.Config) *rt.Runtime {
	tb.Helper()
	r, err := rt.NewRuntime(cfg)
	if err != nil {
		tb.Fatalf("NewRuntime: %v", err)
	}
	return r
}

func TestSerialCGConverges(t *testing.T) {
	pr, err := New(Params{NX: 8, NY: 8, NZ: 8, Iters: 25, Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.SerialCG(); err != nil {
		t.Fatal(err)
	}
	first, last := pr.Rnorm[0], pr.Rnorm[len(pr.Rnorm)-1]
	if !(last < first*1e-3) {
		t.Fatalf("CG did not converge: %v -> %v", first, last)
	}
	for _, v := range pr.X {
		if math.IsNaN(v) {
			t.Fatalf("NaN in solution")
		}
	}
}

func TestSpMVSymmetryAndDominance(t *testing.T) {
	// For the 27-point stencil, x=1 gives A*1 >= 0 everywhere (diagonal
	// dominance with boundary truncation) and exact zero only in the
	// interior... interior rows: 26 - 26 = 0.
	pr, _ := New(Params{NX: 5, NY: 5, NZ: 5, Iters: 1, Ranks: 1})
	x := make([]float64, pr.Rows)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, pr.Rows)
	pr.SpMV(y, x, pr.GhostLo, pr.GhostHi, 0, pr.Rows)
	interior := pr.rowIndex(2, 2, 2)
	if y[interior] != 0 {
		t.Fatalf("interior row sum = %v, want 0", y[interior])
	}
	corner := pr.rowIndex(0, 0, 0)
	if y[corner] != 26-7 {
		t.Fatalf("corner row = %v, want 19", y[corner])
	}
	for i, v := range y {
		if v < 0 {
			t.Fatalf("row %d negative: %v", i, v)
		}
	}
}

func TestBlockedSerialMatchesPlainWithOneBlock(t *testing.T) {
	p := Params{NX: 6, NY: 6, NZ: 6, Iters: 10, Ranks: 1}
	a, _ := New(p)
	b, _ := New(p)
	if err := a.SerialCG(); err != nil {
		t.Fatal(err)
	}
	if err := b.SerialCGBlocked(1); err != nil {
		t.Fatal(err)
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatalf("X[%d] differs", i)
		}
	}
}

func TestTaskMatchesBlockedSerialBitwise(t *testing.T) {
	p := Params{NX: 6, NY: 6, NZ: 8, Iters: 8, Ranks: 1}
	for _, tc := range []TaskConfig{
		{TPL: 4, SpMVSub: 1},
		{TPL: 4, SpMVSub: 3},
		{TPL: 7, SpMVSub: 2},
		{TPL: 4, SpMVSub: 2, Persistent: true},
	} {
		ref, _ := New(p)
		if err := ref.SerialCGBlocked(tc.TPL); err != nil {
			t.Fatal(err)
		}
		pr, _ := New(p)
		r := newRuntime(t, rt.Config{Workers: 4, Opts: graph.OptAll})
		if err := pr.RunTask(r, nil, tc); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		r.Close()
		for i := range ref.X {
			if ref.X[i] != pr.X[i] {
				t.Fatalf("%+v: X[%d] = %v, want %v", tc, i, pr.X[i], ref.X[i])
			}
		}
		if ref.Rtz != pr.Rtz {
			t.Fatalf("%+v: rtz %v vs %v", tc, pr.Rtz, ref.Rtz)
		}
	}
}

func TestParallelForMatchesBlockedSerial(t *testing.T) {
	p := Params{NX: 6, NY: 6, NZ: 6, Iters: 6, Ranks: 1}
	const workers = 3
	ref, _ := New(p)
	if err := ref.SerialCGBlocked(workers); err != nil {
		t.Fatal(err)
	}
	pr, _ := New(p)
	r := newRuntime(t, rt.Config{Workers: workers})
	pr.RunParallelFor(r, nil)
	r.Close()
	for i := range ref.X {
		if ref.X[i] != pr.X[i] {
			t.Fatalf("X[%d] differs", i)
		}
	}
}

// TestDistributedMatchesGlobalSerial: R slabs vs one global domain. The
// global dots differ in summation shape (per-rank merge then rank-order
// sum), so compare with a tight relative tolerance on iterates instead
// of bitwise.
func TestDistributedMatchesGlobalSerial(t *testing.T) {
	const R = 3
	p := Params{NX: 5, NY: 5, NZ: 4, Iters: 12, Ranks: 1}
	global := Params{NX: 5, NY: 5, NZ: 4 * R, Iters: 12, Ranks: 1}
	ref, _ := New(global)
	if err := ref.SerialCG(); err != nil {
		t.Fatal(err)
	}

	for _, mode := range []string{"parfor", "task", "task-persistent"} {
		w := mpi.NewWorld(R)
		probs := make([]*Problem, R)
		w.Run(func(c *mpi.Comm) {
			lp := p
			lp.Ranks, lp.Rank = R, c.Rank()
			pr, err := New(lp)
			if err != nil {
				t.Error(err)
				return
			}
			probs[c.Rank()] = pr
			r := newRuntime(t, rt.Config{Workers: 2, Opts: graph.OptAll})
			switch mode {
			case "parfor":
				pr.RunParallelFor(r, c)
			case "task":
				if err := pr.RunTask(r, c, TaskConfig{TPL: 3, SpMVSub: 2}); err != nil {
					t.Error(err)
				}
			case "task-persistent":
				if err := pr.RunTask(r, c, TaskConfig{TPL: 3, SpMVSub: 2, Persistent: true}); err != nil {
					t.Error(err)
				}
			}
			r.Close()
		})
		if t.Failed() {
			t.Fatalf("%s: rank errors", mode)
		}
		rows := p.NX * p.NY * p.NZ
		for rk := 0; rk < R; rk++ {
			off := rk * rows
			for i := 0; i < rows; i++ {
				want, got := ref.X[off+i], probs[rk].X[i]
				if math.Abs(want-got) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("%s: rank %d X[%d] = %v, want %v", mode, rk, i, got, want)
				}
			}
		}
		// All ranks agree on scalars exactly (deterministic reduction).
		for rk := 1; rk < R; rk++ {
			if probs[rk].Rtz != probs[0].Rtz {
				t.Fatalf("%s: rank scalar divergence", mode)
			}
		}
	}
}

func TestDistributedDeterminism(t *testing.T) {
	const R = 2
	run := func() float64 {
		w := mpi.NewWorld(R)
		var rtz [R]float64
		w.Run(func(c *mpi.Comm) {
			pr, _ := New(Params{NX: 4, NY: 4, NZ: 4, Iters: 6, Ranks: R, Rank: c.Rank()})
			r := newRuntime(t, rt.Config{Workers: 3, Opts: graph.OptAll})
			if err := pr.RunTask(r, c, TaskConfig{TPL: 2, SpMVSub: 2}); err != nil {
				t.Error(err)
			}
			r.Close()
			rtz[c.Rank()] = pr.Rtz
		})
		return rtz[0]
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic distributed CG: %v vs %v", a, b)
	}
}

func TestSpMVSubBlocksUseInOutSet(t *testing.T) {
	p := Params{NX: 4, NY: 4, NZ: 4, Iters: 2, Ranks: 1}
	pr, _ := New(p)
	r := newRuntime(t, rt.Config{Workers: 2, Opts: graph.OptAll})
	if err := pr.RunTask(r, nil, TaskConfig{TPL: 2, SpMVSub: 4}); err != nil {
		t.Fatal(err)
	}
	st := r.Graph().Stats()
	r.Close()
	if st.RedirectNodes == 0 {
		t.Fatalf("expected inoutset redirect nodes from sub-blocked SpMV")
	}
}

// rowIndex helper for tests.
func (pr *Problem) rowIndex(i, j, k int) int {
	return (k*pr.P.NY+j)*pr.P.NX + i
}

func BenchmarkTaskCGIteration(b *testing.B) {
	pr, _ := New(Params{NX: 16, NY: 16, NZ: 16, Iters: 1, Ranks: 1})
	r := newRuntime(b, rt.Config{Workers: 4, Opts: graph.OptAll})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.P.Iters = 1
		if err := pr.RunTask(r, nil, TaskConfig{TPL: 8, SpMVSub: 2}); err != nil {
			b.Fatal(err)
		}
	}
	r.Close()
}
