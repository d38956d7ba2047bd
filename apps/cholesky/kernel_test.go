package cholesky

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// The four tile kernels as they were before register blocking, kept as
// the oracle: one dot-product loop per output element.

func potrfNaive(a []float64, b int) error {
	for j := 0; j < b; j++ {
		d := a[j*b+j]
		for k := 0; k < j; k++ {
			d -= a[j*b+k] * a[j*b+k]
		}
		if d <= 0 {
			return fmt.Errorf("cholesky: not positive definite at %d (d=%v)", j, d)
		}
		d = math.Sqrt(d)
		a[j*b+j] = d
		for i := j + 1; i < b; i++ {
			s := a[i*b+j]
			for k := 0; k < j; k++ {
				s -= a[i*b+k] * a[j*b+k]
			}
			a[i*b+j] = s / d
		}
		for i := 0; i < j; i++ {
			a[i*b+j] = 0
		}
	}
	return nil
}

func trsmNaive(l, a []float64, b int) {
	for i := 0; i < b; i++ {
		for j := 0; j < b; j++ {
			s := a[i*b+j]
			for k := 0; k < j; k++ {
				s -= a[i*b+k] * l[j*b+k]
			}
			a[i*b+j] = s / l[j*b+j]
		}
	}
}

func syrkNaive(aTile, c []float64, b int) {
	for i := 0; i < b; i++ {
		for j := 0; j <= i; j++ {
			s := 0.0
			for k := 0; k < b; k++ {
				s += aTile[i*b+k] * aTile[j*b+k]
			}
			c[i*b+j] -= s
		}
	}
}

func gemmNaive(aTile, bTile, c []float64, b int) {
	for i := 0; i < b; i++ {
		for j := 0; j < b; j++ {
			s := 0.0
			for k := 0; k < b; k++ {
				s += aTile[i*b+k] * bTile[j*b+k]
			}
			c[i*b+j] -= s
		}
	}
}

// wideValue is a signed value whose magnitude spans six decades.
func wideValue(rng *rand.Rand) float64 {
	v := (1 + rng.Float64()) * math.Pow(10, -3+6*rng.Float64())
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

func wideTile(rng *rand.Rand, b int) []float64 {
	t := make([]float64, b*b)
	for i := range t {
		t[i] = wideValue(rng)
	}
	return t
}

// spdTile is symmetric and strictly diagonally dominant with a positive
// diagonal, hence SPD; its upper triangle is left as noise, which Potrf
// must overwrite with zeros.
func spdTile(rng *rand.Rand, b int) []float64 {
	t := wideTile(rng, b)
	for i := 0; i < b; i++ {
		row := 0.0
		for j := 0; j < i; j++ {
			row += math.Abs(t[i*b+j])
		}
		for j := i + 1; j < b; j++ {
			row += math.Abs(t[j*b+i])
		}
		t[i*b+i] = row + math.Abs(wideValue(rng))
	}
	return t
}

// lowerTile is a lower-triangular factor with a positive diagonal and
// noise above it, which Trsm must not read.
func lowerTile(rng *rand.Rand, b int) []float64 {
	t := wideTile(rng, b)
	for i := 0; i < b; i++ {
		t[i*b+i] = math.Abs(t[i*b+i])
	}
	return t
}

func sameBits(t *testing.T, what string, trial, b int, got, want []float64) {
	t.Helper()
	for x := range want {
		if math.Float64bits(got[x]) != math.Float64bits(want[x]) {
			t.Fatalf("trial %d b=%d %s: element (%d,%d) = %v, naive %v", trial, b, what, x/b, x%b, got[x], want[x])
		}
	}
}

// TestKernelsMatchNaiveBitwise: every blocked kernel leaves every element
// of its output tile, the upper triangle of diagonal tiles included,
// with the naive loop's bits. Sizes 1-20 cover every remainder mod 4 and
// mod 2; 128 is the benchmark's tile.
func TestKernelsMatchNaiveBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 300; trial++ {
		b := 1 + trial%20
		if trial%100 == 99 {
			b = 128 // three trials: the race run repeats this test 20 times
		}
		clone := func(s []float64) []float64 { return append([]float64(nil), s...) }

		spd := spdTile(rng, b)
		got, want := clone(spd), clone(spd)
		errGot, errWant := Potrf(got, b), potrfNaive(want, b)
		if errGot != nil || errWant != nil {
			t.Fatalf("trial %d b=%d potrf on an SPD tile: %v / naive %v", trial, b, errGot, errWant)
		}
		sameBits(t, "potrf", trial, b, got, want)

		// A tile with a positive diagonal that is not SPD: both fail at
		// the same column and leave the same partial factor.
		bad := lowerTile(rng, b)
		got, want = clone(bad), clone(bad)
		errGot, errWant = Potrf(got, b), potrfNaive(want, b)
		if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
			t.Fatalf("trial %d b=%d potrf error %v, naive %v", trial, b, errGot, errWant)
		}
		sameBits(t, "potrf (failing)", trial, b, got, want)

		l, a := lowerTile(rng, b), wideTile(rng, b)
		got, want = clone(a), clone(a)
		Trsm(l, got, b)
		trsmNaive(l, want, b)
		sameBits(t, "trsm", trial, b, got, want)

		a, c := wideTile(rng, b), wideTile(rng, b)
		got, want = clone(c), clone(c)
		Syrk(a, got, b)
		syrkNaive(a, want, b)
		sameBits(t, "syrk", trial, b, got, want)

		bt := wideTile(rng, b)
		got, want = clone(c), clone(c)
		Gemm(a, bt, got, b)
		gemmNaive(a, bt, want, b)
		sameBits(t, "gemm", trial, b, got, want)
	}
}

// factorHash is FNV-64a over the little-endian Float64bits of m's tiles
// in (i, j <= i) order, row-major within a tile.
func factorHash(m *Matrix) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < m.T; i++ {
		for j := 0; j <= i; j++ {
			for _, v := range m.Tile(i, j) {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// TestSerialFactorBitsPinned pins the serial factor's bits to those the
// naive kernels produced, on the benchmark's 8 x 128 shape and two
// shapes whose tile sizes leave remainders.
func TestSerialFactorBitsPinned(t *testing.T) {
	for _, c := range []struct {
		t, b int
		want uint64
	}{
		{8, 128, 0xa71d44d5d93092e6},
		{5, 7, 0xa6049b1b9c737760},
		{3, 33, 0x9edad0e4359e72da},
	} {
		m := NewSPD(c.t, c.b)
		if err := SerialFactor(m); err != nil {
			t.Fatal(err)
		}
		if got := factorHash(m); got != c.want {
			t.Errorf("NewSPD(%d,%d): factor hash %#x, want %#x", c.t, c.b, got, c.want)
		}
	}
}

// kernelInputs returns b x b tiles for every kernel: an SPD tile for
// Potrf, its factor for Trsm, and two wide tiles.
func kernelInputs(b int) (spd, l, x, y []float64) {
	rng := rand.New(rand.NewSource(7))
	spd = spdTile(rng, b)
	l = append([]float64(nil), spd...)
	if err := Potrf(l, b); err != nil {
		panic(err)
	}
	return spd, l, wideTile(rng, b), wideTile(rng, b)
}

type kernelCase struct {
	name  string
	flops float64
	// run applies the kernel to out, which holds a fresh copy of in.
	in  []float64
	run func(out []float64)
}

func kernelCases(b int) []kernelCase {
	spd, l, x, y := kernelInputs(b)
	n := float64(b)
	return []kernelCase{
		{"potrf", n * n * n / 3, spd, func(out []float64) {
			if err := Potrf(out, b); err != nil {
				panic(err)
			}
		}},
		{"trsm", n * n * n, x, func(out []float64) { Trsm(l, out, b) }},
		{"syrk", n * n * (n + 1), y, func(out []float64) { Syrk(x, out, b) }},
		{"gemm", 2 * n * n * n, y, func(out []float64) { Gemm(x, l, out, b) }},
	}
}

func TestKernelsAllocateNothing(t *testing.T) {
	for _, k := range kernelCases(128) {
		out := make([]float64, len(k.in))
		if n := testing.AllocsPerRun(5, func() {
			copy(out, k.in)
			k.run(out)
		}); n != 0 {
			t.Errorf("%s: %v allocations per call", k.name, n)
		}
	}
}

// BenchmarkKernels times each tile kernel at the benchmark's b = 128.
// Every iteration first restores the output tile from its input (a b^2
// copy, inside the timing), so Potrf and Trsm always see the same tile.
func BenchmarkKernels(b *testing.B) {
	for _, k := range kernelCases(128) {
		b.Run(k.name, func(b *testing.B) {
			out := make([]float64, len(k.in))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(out, k.in)
				k.run(out)
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(ns, "ns/tile")
			b.ReportMetric(k.flops/ns*1e3, "MFLOP/s")
		})
	}
}

// verifyPerElement is Verify as it was before it walked tile rows: one
// tile lookup per term.
func verifyPerElement(a0, l *Matrix, tol float64) error {
	t, b := l.T, l.B
	n := t * b
	get := func(m *Matrix, gi, gj int) float64 {
		if gi < gj {
			return 0
		}
		return m.Tile(gi/b, gj/b)[(gi%b)*b+(gj%b)]
	}
	for gi := 0; gi < n; gi++ {
		for gj := 0; gj <= gi; gj++ {
			s := 0.0
			for k := 0; k <= gj; k++ {
				s += get(l, gi, k) * get(l, gj, k)
			}
			want := get(a0, gi, gj)
			if math.Abs(s-want) > tol*(1+math.Abs(want)) {
				return fmt.Errorf("cholesky: L*L^T[%d,%d] = %v, want %v", gi, gj, s, want)
			}
		}
	}
	return nil
}

// TestVerifyMatchesPerElement: on clean factors and on factors with one
// element perturbed, by amounts on both sides of the tolerance and
// anywhere in the stored tiles, Verify returns what the per-element
// loop returns, the first failing element included.
func TestVerifyMatchesPerElement(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const tol = 1e-10
	failed := 0
	for _, sh := range [][2]int{{1, 5}, {3, 4}, {5, 7}, {3, 33}} {
		a0 := NewSPD(sh[0], sh[1])
		l := a0.Clone()
		if err := SerialFactor(l); err != nil {
			t.Fatal(err)
		}
		if err1, err2 := Verify(a0, l, tol), verifyPerElement(a0, l, tol); err1 != nil || err2 != nil {
			t.Fatalf("%v clean factor: %v / per element %v", sh, err1, err2)
		}
		for trial := 0; trial < 20; trial++ {
			m := l.Clone()
			ti := rng.Intn(m.T)
			tile := m.Tile(ti, rng.Intn(ti+1))
			x := rng.Intn(len(tile))
			tile[x] += (1 + math.Abs(tile[x])) * math.Pow(10, -15+14*rng.Float64())
			err1, err2 := Verify(a0, m, tol), verifyPerElement(a0, m, tol)
			if err1 != nil {
				failed++
			}
			if fmt.Sprint(err1) != fmt.Sprint(err2) {
				t.Fatalf("%v trial %d: %v / per element %v", sh, trial, err1, err2)
			}
		}
	}
	if failed == 0 || failed == 80 {
		t.Fatalf("%d of 80 perturbed factors failed: the test must see both verdicts", failed)
	}
}
