package lulesh

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// forceNaive is the per-node gather CalcForceForNodes was before it
// walked node rows, kept as the oracle: (i, j, k) re-derived per node by
// three divisions, eight elements visited per node with a bounds test
// each, and an element's centroid recomputed for every node it touches.
func (d *Domain) forceNaive(lo, hi int) {
	nxy := d.NX * d.NY
	for n := lo; n < hi; n++ {
		i := n % d.NX
		j := (n / d.NX) % d.NY
		k := n / nxy
		var fx, fy, fz float64
		for dk := k - 1; dk <= k; dk++ {
			if dk < 0 || dk >= d.EZ {
				continue
			}
			for dj := j - 1; dj <= j; dj++ {
				if dj < 0 || dj >= d.EY {
					continue
				}
				for di := i - 1; di <= i; di++ {
					if di < 0 || di >= d.EX {
						continue
					}
					e := d.elemIdx(di, dj, dk)
					p := d.Pf[e] + d.Q[e]
					if p == 0 {
						continue
					}
					nl := d.Nodelist[8*e : 8*e+8]
					var cx, cy, cz float64
					for _, nn := range nl {
						cx += d.X[nn]
						cy += d.Y[nn]
						cz += d.Z[nn]
					}
					cx *= 0.125
					cy *= 0.125
					cz *= 0.125
					h2 := 1.0 / float64(d.P.S*d.P.S)
					fx += p * (d.X[n] - cx) * h2 * 2
					fy += p * (d.Y[n] - cy) * h2 * 2
					fz += p * (d.Z[n] - cz) * h2 * 2
				}
			}
		}
		d.FX[n] = fx
		d.FY[n] = fy
		d.FZ[n] = fz
	}
}

// accelNaive is CalcAccelAndBC before it walked node rows: three
// divisions per node to find its symmetry planes.
func (d *Domain) accelNaive(lo, hi int) {
	nxy := d.NX * d.NY
	for n := lo; n < hi; n++ {
		m := d.NodalMass[n]
		d.FX[n] /= m
		d.FY[n] /= m
		d.FZ[n] /= m
		i := n % d.NX
		j := (n / d.NX) % d.NY
		k := n / nxy
		if i == 0 {
			d.FX[n] = 0
		}
		if j == 0 {
			d.FY[n] = 0
		}
		if k == 0 && d.P.Rank == 0 {
			d.FZ[n] = 0
		}
	}
}

// The plain indexed loops the re-sliced kernels replaced.

func (d *Domain) velNaive(lo, hi int) {
	dt := d.Dt
	for n := lo; n < hi; n++ {
		xd := d.XD[n] + d.FX[n]*dt
		yd := d.YD[n] + d.FY[n]*dt
		zd := d.ZD[n] + d.FZ[n]*dt
		if math.Abs(xd) < 1e-12 {
			xd = 0
		}
		if math.Abs(yd) < 1e-12 {
			yd = 0
		}
		if math.Abs(zd) < 1e-12 {
			zd = 0
		}
		d.XD[n] = xd
		d.YD[n] = yd
		d.ZD[n] = zd
	}
}

func (d *Domain) posNaive(lo, hi int) {
	dt := d.Dt
	for n := lo; n < hi; n++ {
		d.X[n] += d.XD[n] * dt
		d.Y[n] += d.YD[n] * dt
		d.Z[n] += d.ZD[n] * dt
	}
}

func (d *Domain) kinNaive(lo, hi int) {
	h := 1.0 / float64(d.P.S)
	refVol := h * h * h
	dt := d.Dt
	for e := lo; e < hi; e++ {
		nl := d.Nodelist[8*e : 8*e+8]
		n0, n1, n3, n4 := nl[0], nl[1], nl[3], nl[4]
		ax := d.X[n1] - d.X[n0]
		ay := d.Y[n1] - d.Y[n0]
		az := d.Z[n1] - d.Z[n0]
		bx := d.X[n3] - d.X[n0]
		by := d.Y[n3] - d.Y[n0]
		bz := d.Z[n3] - d.Z[n0]
		cx := d.X[n4] - d.X[n0]
		cy := d.Y[n4] - d.Y[n0]
		cz := d.Z[n4] - d.Z[n0]
		vol := ax*(by*cz-bz*cy) + ay*(bz*cx-bx*cz) + az*(bx*cy-by*cx)
		if vol < 0 {
			vol = -vol
		}
		v := vol / refVol
		if v < 1e-6 {
			v = 1e-6
		}
		d.Delv[e] = v - d.V[e]
		d.Vdov[e] = d.Delv[e] / (d.V[e] * dt)
	}
}

func (d *Domain) qNaive(lo, hi int) {
	h := 1.0 / float64(d.P.S)
	for e := lo; e < hi; e++ {
		vdov := d.Vdov[e]
		if vdov >= 0 {
			d.Q[e] = 0
			continue
		}
		rho := refDensity / d.V[e]
		dl := h * math.Sqrt(d.V[e])
		q := rho * (qqcMonoQ*dl*dl*vdov*vdov + qlcMonoQ*dl*d.SS[e]*math.Abs(vdov))
		if q > qStop {
			q = qStop
		}
		d.Q[e] = q
	}
}

func (d *Domain) eosNaive(lo, hi int) {
	for e := lo; e < hi; e++ {
		v := d.V[e] + d.Delv[e]
		if v < 1e-6 {
			v = 1e-6
		}
		en := d.E[e] - 0.5*d.Delv[e]*(d.Pf[e]+d.Q[e])
		if en < 0 {
			en = 0
		}
		rho := refDensity / v
		p := (gammaGas - 1) * rho * en
		if p < 0 {
			p = 0
		}
		ss := math.Sqrt(gammaGas * (p + 1e-12) / rho)
		d.E[e] = en
		d.Pf[e] = p
		d.SS[e] = ss
	}
}

func (d *Domain) volNaive(lo, hi int) {
	for e := lo; e < hi; e++ {
		v := d.V[e] + d.Delv[e]
		if math.Abs(v-1.0) < 1e-10 {
			v = 1.0
		}
		if v < 1e-6 {
			v = 1e-6
		}
		d.V[e] = v
	}
}

func (d *Domain) dtNaive(lo, hi int) float64 {
	h := 1.0 / float64(d.P.S)
	cand := math.Inf(1)
	for e := lo; e < hi; e++ {
		if d.SS[e] > 1e-12 {
			dtc := dtCourant * h * math.Sqrt(d.V[e]) / d.SS[e]
			if dtc < cand {
				cand = dtc
			}
		}
		if vd := math.Abs(d.Vdov[e]); vd > 1e-12 {
			dth := dvovmax / vd
			if dth < cand {
				cand = dth
			}
		}
	}
	return cand
}

// kernel is one mesh loop of the step beside the loop it replaced. The
// dt kernel writes no field: both forms leave their chunk's constraint
// in DtCand.
type kernel struct {
	name        string
	perNode     bool
	fast, naive func(d *Domain, lo, hi int)
	out         func(d *Domain) [][]float64 // the fields it writes; nil for dt
}

func stepKernels() []kernel {
	forces := func(d *Domain) [][]float64 { return [][]float64{d.FX, d.FY, d.FZ} }
	return []kernel{
		{"force", true, (*Domain).CalcForceForNodes, (*Domain).forceNaive, forces},
		{"accel", true, (*Domain).CalcAccelAndBC, (*Domain).accelNaive, forces},
		{"vel", true, (*Domain).CalcVelocityForNodes, (*Domain).velNaive,
			func(d *Domain) [][]float64 { return [][]float64{d.XD, d.YD, d.ZD} }},
		{"pos", true, (*Domain).CalcPositionForNodes, (*Domain).posNaive,
			func(d *Domain) [][]float64 { return [][]float64{d.X, d.Y, d.Z} }},
		{"kin", false, (*Domain).CalcLagrangeElements, (*Domain).kinNaive,
			func(d *Domain) [][]float64 { return [][]float64{d.Delv, d.Vdov} }},
		{"q", false, (*Domain).CalcQForElems, (*Domain).qNaive,
			func(d *Domain) [][]float64 { return [][]float64{d.Q} }},
		{"eos", false, (*Domain).ApplyMaterialProperties, (*Domain).eosNaive,
			func(d *Domain) [][]float64 { return [][]float64{d.E, d.Pf, d.SS} }},
		{"vol", false, (*Domain).UpdateVolumesForElems, (*Domain).volNaive,
			func(d *Domain) [][]float64 { return [][]float64{d.V} }},
		{"dt", false,
			func(d *Domain, lo, hi int) { d.DtCand = d.ChunkTimeConstraint(lo, hi) },
			func(d *Domain, lo, hi int) { d.DtCand = d.dtNaive(lo, hi) }, nil},
	}
}

func (k kernel) size(d *Domain) int {
	if k.perNode {
		return d.NumNodes()
	}
	return d.NumElems()
}

var fieldNames = []string{"X", "Y", "Z", "XD", "YD", "ZD", "FX", "FY", "FZ", "NodalMass", "E", "Pf", "Q", "V", "Vdov", "SS", "Delv"}

func fieldPtrs(d *Domain) []*[]float64 {
	return []*[]float64{&d.X, &d.Y, &d.Z, &d.XD, &d.YD, &d.ZD, &d.FX, &d.FY, &d.FZ, &d.NodalMass,
		&d.E, &d.Pf, &d.Q, &d.V, &d.Vdov, &d.SS, &d.Delv}
}

// cloneDomain copies every field; the nodelist is shared (no kernel
// writes it).
func cloneDomain(d *Domain) *Domain {
	c := *d
	for _, f := range fieldPtrs(&c) {
		*f = slices.Clone(*f)
	}
	return &c
}

// decades fills v with values of either sign whose magnitudes span six
// decades, so that a reordered flop rounds differently, with some zeros
// and some values under the kernels' 1e-12 cut-offs.
func decades(rng *rand.Rand, v []float64) {
	for i := range v {
		switch rng.Intn(16) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = (rng.Float64() - 0.5) * 1e-12
		default:
			v[i] = (0.1 + rng.Float64()) * math.Pow(10, float64(rng.Intn(7)-3))
			if rng.Intn(2) == 0 {
				v[i] = -v[i]
			}
		}
	}
}

// randomState overwrites every field but the nodal mass: positions
// jittered off the lattice by up to half a cell times 10^0..10^-5, the
// other fields over six decades, about two thirds of the elements under
// non-zero Pf+Q and some with Q = -Pf exactly (which the force kernel
// skips), and volumes near the snap to 1 and the 1e-6 floor.
func randomState(rng *rand.Rand, d *Domain) {
	h := 1.0 / float64(d.P.S)
	for _, c := range [][]float64{d.X, d.Y, d.Z} {
		for n := range c {
			c[n] += h * (rng.Float64() - 0.5) * math.Pow(10, -float64(rng.Intn(6)))
		}
	}
	for _, v := range [][]float64{d.XD, d.YD, d.ZD, d.FX, d.FY, d.FZ, d.E, d.Pf, d.Q, d.Vdov, d.SS, d.Delv} {
		decades(rng, v)
	}
	for e := range d.V {
		switch rng.Intn(3) {
		case 0:
			d.Pf[e], d.Q[e] = 0, 0
		case 1:
			if rng.Intn(3) == 0 {
				d.Q[e] = -d.Pf[e]
			}
		}
		d.V[e] = 0.5 + rng.Float64()
		switch rng.Intn(8) {
		case 0:
			d.V[e], d.Delv[e] = 1, d.Delv[e]*1e-12
		case 1:
			d.V[e] = 1e-6
		}
	}
	d.Dt = 1e-3 * (0.5 + rng.Float64())
}

// randomCuts partitions [0, n) into consecutive ranges of up to step
// indices that begin and end anywhere (mid-row and mid-plane included),
// some of them empty.
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

// TestKernelsMatchNaiveBitwise is the referee of the row-walking and
// re-sliced kernels: on seeded random slabs of every rank of 1-3 rank
// decompositions, a kernel run over random sub-ranges writes every value
// its replaced loop writes over the whole range, bit for bit, and
// nothing at or beyond the end of the range it was given.
func TestKernelsMatchNaiveBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		p := Params{S: 2 + rng.Intn(7), SZ: 1 + rng.Intn(8), Iters: 1, Ranks: 1 + rng.Intn(3)}
		for p.Rank = 0; p.Rank < p.Ranks; p.Rank++ {
			d0, err := NewDomain(p)
			if err != nil {
				t.Fatal(err)
			}
			randomState(rng, d0)
			for _, k := range stepKernels() {
				n := k.size(d0)
				want, got := cloneDomain(d0), cloneDomain(d0)
				if k.out != nil {
					k.naive(want, 0, n)
				}
				cuts := randomCuts(rng, n, 1+rng.Intn(2*d0.NodesPerLayer()))
				for c := 1; c < len(cuts); c++ {
					lo, hi := cuts[c-1], cuts[c]
					k.fast(got, lo, hi)
					if k.out == nil {
						k.naive(want, lo, hi)
						if math.Float64bits(got.DtCand) != math.Float64bits(want.DtCand) {
							t.Fatalf("trial %d %+v %s over [%d, %d) = %v, want %v", trial, p, k.name, lo, hi, got.DtCand, want.DtCand)
						}
						continue
					}
					for f, field := range k.out(got) {
						orig := k.out(d0)[f]
						for i := hi; i < n; i++ {
							if math.Float64bits(field[i]) != math.Float64bits(orig[i]) {
								t.Fatalf("trial %d %+v: %s over [%d, %d) wrote index %d", trial, p, k.name, lo, hi, i)
							}
						}
					}
				}
				wf, gf := fieldPtrs(want), fieldPtrs(got)
				for f, name := range fieldNames {
					w, g := *wf[f], *gf[f]
					for i := range w {
						if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
							t.Fatalf("trial %d %+v %s cuts %v: %s[%d] = %x (%v), want %x (%v)", trial, p, k.name, cuts, name, i,
								math.Float64bits(g[i]), g[i], math.Float64bits(w[i]), w[i])
						}
					}
				}
			}
		}
	}
}

// TestSerialStepBitsPinned pins the serial reference at the benchmark's
// size: the digest and total energy after 40 Sedov steps at S = 32 are
// the bits the per-node gather kernels produced (321183.4680854388 and
// 23475.338501969884).
func TestSerialStepBitsPinned(t *testing.T) {
	d := serialRun(t, Params{S: 32, Iters: 40, Ranks: 1})
	if got := math.Float64bits(d.Checksum()); got != 0x41139a7ddf51ca0e {
		t.Fatalf("checksum %v (%#x), want 321183.4680854388 (0x41139a7ddf51ca0e)", d.Checksum(), got)
	}
	if got := math.Float64bits(d.TotalEnergy()); got != 0x40d6ecd5aa042a92 {
		t.Fatalf("total energy %v (%#x), want 23475.338501969884 (0x40d6ecd5aa042a92)", d.TotalEnergy(), got)
	}
}

// TestKernelsAllocateNothing: no kernel allocates, over the whole
// domain or over one chunk of a 512-task loop.
func TestKernelsAllocateNothing(t *testing.T) {
	d, err := NewDomain(Params{S: 32, Iters: 1, Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range stepKernels() {
		n := k.size(d)
		lo, hi := chunkBounds(n, 512, 256)
		for _, r := range [][2]int{{0, n}, {lo, hi}} {
			if a := testing.AllocsPerRun(5, func() { k.fast(d, r[0], r[1]) }); a != 0 {
				t.Errorf("%s over [%d, %d): %v allocations", k.name, r[0], r[1], a)
			}
		}
	}
}

// BenchmarkKernels times each kernel of the step over the whole domain
// of the benchmark's LULESH workloads (S = 32) after 40 steps of the
// Sedov problem, each on its own copy of that state.
func BenchmarkKernels(b *testing.B) {
	d, err := NewDomain(Params{S: 32, Iters: 40, Ranks: 1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < d.P.Iters; i++ {
		d.Step()
	}
	for _, k := range stepKernels() {
		b.Run(k.name, func(b *testing.B) {
			c := cloneDomain(d)
			n := k.size(c)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.fast(c, 0, n)
			}
			unit := "ns/elem"
			if k.perNode {
				unit = "ns/node"
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), unit)
		})
	}
}
