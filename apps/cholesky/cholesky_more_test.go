package cholesky

import (
	"math"
	"testing"

	"taskdep/internal/graph"
	"taskdep/internal/mpi"
	"taskdep/internal/rt"
)

func TestTrsmSolvesAgainstFactor(t *testing.T) {
	const b = 4
	// L: lower triangular with positive diagonal.
	l := make([]float64, b*b)
	for i := 0; i < b; i++ {
		for j := 0; j <= i; j++ {
			l[i*b+j] = float64(j + 1)
		}
		l[i*b+i] = float64(i + 2)
	}
	// A = X * L^T for known X.
	x := make([]float64, b*b)
	for i := range x {
		x[i] = float64(i%5) + 1
	}
	a := make([]float64, b*b)
	for i := 0; i < b; i++ {
		for j := 0; j < b; j++ {
			s := 0.0
			for k := 0; k <= j; k++ {
				s += x[i*b+k] * l[j*b+k]
			}
			a[i*b+j] = s
		}
	}
	Trsm(l, a, b)
	for i := range x {
		if math.Abs(a[i]-x[i]) > 1e-10 {
			t.Fatalf("trsm wrong at %d: %v vs %v", i, a[i], x[i])
		}
	}
}

func TestSyrkGemmConsistency(t *testing.T) {
	const b = 3
	a1 := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	// SYRK with A equals GEMM with (A, A) on the lower part.
	c1 := make([]float64, b*b)
	c2 := make([]float64, b*b)
	Syrk(a1, c1, b)
	Gemm(a1, a1, c2, b)
	for i := 0; i < b; i++ {
		for j := 0; j <= i; j++ {
			if math.Abs(c1[i*b+j]-c2[i*b+j]) > 1e-12 {
				t.Fatalf("syrk/gemm disagree at (%d,%d)", i, j)
			}
		}
	}
}

func TestFactorLargerMatrix(t *testing.T) {
	a0 := NewSPD(6, 16)
	l := a0.Clone()
	if err := SerialFactor(l); err != nil {
		t.Fatal(err)
	}
	if err := Verify(a0, l, 1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixCloneIndependent(t *testing.T) {
	a := NewSPD(2, 4)
	b := a.Clone()
	b.Tile(0, 0)[0] = 999
	if a.Tile(0, 0)[0] == 999 {
		t.Fatalf("clone aliases original")
	}
}

func TestDistributedWithMoreRanksThanColumns(t *testing.T) {
	// P > T: some ranks own nothing; they must still participate in
	// receives without deadlocking.
	const T, B, R = 3, 4, 5
	a0 := NewSPD(T, B)
	ref := a0.Clone()
	if err := SerialFactor(ref); err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorld(R)
	dms := make([]*DistMatrix, R)
	w.Run(func(c *mpi.Comm) {
		dm := NewDistSPD(T, B, R, c.Rank())
		dms[c.Rank()] = dm
		r := newRuntime(t, rt.Config{Workers: 2, Opts: graph.OptAll})
		if err := TaskFactorDist(dm, r, c); err != nil {
			t.Error(err)
		}
		r.Close()
	})
	if t.Failed() {
		t.FailNow()
	}
	for j := 0; j < T; j++ {
		dm := dms[j%R]
		for i := j; i < T; i++ {
			want, got := ref.Tile(i, j), dm.Tile(i, j)
			for x := range want {
				if want[x] != got[x] {
					t.Fatalf("tile (%d,%d) differs", i, j)
				}
			}
		}
	}
}

func TestRepeatedNonPersistentIsIdempotent(t *testing.T) {
	a0 := NewSPD(3, 8)
	r := newRuntime(t, rt.Config{Workers: 2})
	got1, err := TaskFactorRepeated(a0, r, RepeatedConfig{Iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	got3, err := TaskFactorRepeated(a0, r, RepeatedConfig{Iters: 3})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	for key := range got1.tiles {
		a, b := got1.tiles[key], got3.tiles[key]
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("repetition changed the result at %v[%d]", key, i)
			}
		}
	}
}
