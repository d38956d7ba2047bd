package hpcg

import (
	"math"
	"testing"

	"taskdep/internal/graph"
	"taskdep/internal/rt"
)

func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{NX: 1, NY: 4, NZ: 4, Iters: 1, Ranks: 1},
		{NX: 4, NY: 4, NZ: 4, Iters: 0, Ranks: 1},
		{NX: 4, NY: 4, NZ: 4, Iters: 1, Ranks: 0},
		{NX: 4, NY: 4, NZ: 4, Iters: 1, Ranks: 2, Rank: 5},
	}
	for _, p := range bad {
		if _, err := New(p); err == nil {
			t.Fatalf("params %+v accepted", p)
		}
	}
	if _, err := New(Params{NX: 4, NY: 4, NZ: 4, Iters: 1, Ranks: 2, Rank: 1}); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
}

func TestSerialRequiresSingleRank(t *testing.T) {
	pr, _ := New(Params{NX: 4, NY: 4, NZ: 4, Iters: 1, Ranks: 2, Rank: 0})
	if err := pr.SerialCG(); err == nil {
		t.Fatalf("SerialCG accepted multi-rank problem")
	}
	if err := pr.SerialCGBlocked(2); err == nil {
		t.Fatalf("SerialCGBlocked accepted multi-rank problem")
	}
}

func TestWaxpbyAndDot(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	w := make([]float64, 3)
	Waxpby(w, x, y, 2, 0.5, 0, 3)
	want := []float64{7, 14, 21}
	for i := range want {
		if w[i] != want[i] {
			t.Fatalf("w = %v", w)
		}
	}
	if got := Dot(x, y, 0, 3); got != 10+40+90 {
		t.Fatalf("dot = %v", got)
	}
	if got := Dot(x, y, 1, 2); got != 40 {
		t.Fatalf("partial dot = %v", got)
	}
}

func TestCGResidualMonotoneOverall(t *testing.T) {
	pr, _ := New(Params{NX: 8, NY: 8, NZ: 8, Iters: 20, Ranks: 1})
	if err := pr.SerialCG(); err != nil {
		t.Fatal(err)
	}
	// CG residuals are not strictly monotone, but the trend over 5-step
	// windows must be decreasing for this SPD system.
	for i := 5; i < len(pr.Rnorm); i += 5 {
		if pr.Rnorm[i] >= pr.Rnorm[i-5] {
			t.Fatalf("residual stalled: %v -> %v", pr.Rnorm[i-5], pr.Rnorm[i])
		}
	}
}

func TestSolutionSolvesSystem(t *testing.T) {
	pr, _ := New(Params{NX: 6, NY: 6, NZ: 6, Iters: 30, Ranks: 1})
	if err := pr.SerialCG(); err != nil {
		t.Fatal(err)
	}
	// ||A x - b|| must be small after 30 iterations.
	ax := make([]float64, pr.Rows)
	pr.SpMV(ax, pr.X, pr.GhostLo, pr.GhostHi, 0, pr.Rows)
	worst := 0.0
	for i := range ax {
		if e := math.Abs(ax[i] - pr.B[i]); e > worst {
			worst = e
		}
	}
	if worst > 1e-6 {
		t.Fatalf("residual inf-norm = %v", worst)
	}
}

func TestTaskPersistentManyIterations(t *testing.T) {
	p := Params{NX: 5, NY: 5, NZ: 5, Iters: 16, Ranks: 1}
	ref, _ := New(p)
	if err := ref.SerialCGBlocked(3); err != nil {
		t.Fatal(err)
	}
	pr, _ := New(p)
	r := newRuntime(t, rt.Config{Workers: 3, Opts: graph.OptAll})
	if err := pr.RunTask(r, nil, TaskConfig{TPL: 3, SpMVSub: 2, Persistent: true}); err != nil {
		t.Fatal(err)
	}
	st := r.Graph().Stats()
	r.Close()
	if pr.Rtz != ref.Rtz {
		t.Fatalf("rtz %v vs %v", pr.Rtz, ref.Rtz)
	}
	if st.ReplayedTasks == 0 {
		t.Fatalf("no replays in persistent CG")
	}
}

func TestBlockChunksCoverRows(t *testing.T) {
	pr, _ := New(Params{NX: 5, NY: 7, NZ: 4, Iters: 1, Ranks: 1})
	for _, tpl := range []int{1, 3, 7} {
		c0, c1 := pr.blockChunks(tpl, 0, pr.Rows)
		if c0 != 0 || c1 != tpl-1 {
			t.Fatalf("tpl=%d full coverage [%d,%d]", tpl, c0, c1)
		}
		if c0, c1 := pr.blockChunks(tpl, 10, 10); c1 >= c0 {
			t.Fatalf("empty range covered [%d,%d]", c0, c1)
		}
	}
}
