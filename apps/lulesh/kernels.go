package lulesh

import "math"

// The kernels below are the mesh-wide computational loops of the time
// step (the paper's "sequence of loops which iterate over the mesh data
// structure"). Every kernel operates on an index range [lo,hi) so the
// same code serves the serial reference, the parallel-for chunks and the
// dependent tasks. All element access goes through the nodelist
// indirection, preserving the memory-access structure the LULESH reports
// mandate.
//
// Every loop is division-free and re-sliced. The force and acceleration
// kernels divide once per call to place lo on the lattice and walk node
// rows from there; every kernel takes the Domain's fields into locals
// re-sliced to the range (a row, an element row, [lo:hi]) once, so no
// loop reloads a field, and the only bounds checks left are on the
// nodelist gathers and on the force kernel's pushes from elements under
// pressure. No flop is reordered against the plain per-index loops, so
// every form of the step carries the bits it did
// (TestKernelsMatchNaiveBitwise).

// CalcForceForNodes computes nodal forces: each element with non-zero
// p+q pushes its nodes away from its centroid with strength (p+q).
//
// The range is walked as node-row segments. For each of the (at most
// four) element rows adjacent to a segment, in (dk, dj) order, every
// element touching the segment is visited once, in increasing i: its
// centroid is computed once and its push added to the (at most two)
// segment nodes it touches. A node therefore receives its (at most
// eight) elements' contributions in the (dk, dj, di) order of a per-node
// gather, so its sum carries the same bits, and every write stays inside
// [lo,hi), so chunked execution is race-free and bitwise equal to serial.
func (d *Domain) CalcForceForNodes(lo, hi int) {
	if lo >= hi {
		return
	}
	nx, ny, ex, ey, ez := d.NX, d.NY, d.EX, d.EY, d.EZ
	x, y, z, fx, fy, fz := d.X, d.Y, d.Z, d.FX, d.FY, d.FZ
	pf, q, nodelist := d.Pf, d.Q, d.Nodelist
	h2 := 1.0 / float64(d.P.S*d.P.S)
	row := lo / nx
	j, k := row%ny, row/ny
	for base := row * nx; base < hi; base += nx {
		// The segment is nodes [base+ia, base+ib) of row (j, k); the
		// elements touching it are [ea, eb) of each adjacent element row.
		ia, ib := max(lo-base, 0), min(hi-base, nx)
		ea, eb := max(ia-1, 0), min(ib, ex)
		clear(fx[base+ia : base+ib])
		clear(fy[base+ia : base+ib])
		clear(fz[base+ia : base+ib])
		for dk := max(k-1, 0); dk <= min(k, ez-1); dk++ {
			for dj := max(j-1, 0); dj <= min(j, ey-1); dj++ {
				first := (dk*ey+dj)*ex + ea
				prow, qrow := pf[first:first+eb-ea], q[first:first+eb-ea]
				for o, pv := range prow {
					p := pv + qrow[o]
					if p == 0 {
						continue
					}
					e, di := first+o, ea+o
					var cx, cy, cz float64
					for _, nn := range nodelist[8*e : 8*e+8] {
						cx += x[nn]
						cy += y[nn]
						cz += z[nn]
					}
					cx *= 0.125
					cy *= 0.125
					cz *= 0.125
					// Outward push on the element's nodes di and di+1
					// of this segment, scaled by face area.
					for n := base + max(di, ia); n < base+min(di+2, ib); n++ {
						fx[n] += p * (x[n] - cx) * h2 * 2
						fy[n] += p * (y[n] - cy) * h2 * 2
						fz[n] += p * (z[n] - cz) * h2 * 2
					}
				}
			}
		}
		if j++; j == ny {
			j, k = 0, k+1
		}
	}
}

// CalcAccelAndBC converts forces to accelerations in place (F -> F/m)
// and applies the symmetry boundary conditions of the global problem:
// zero normal acceleration on the x=0, y=0 and global z=0 planes. Like
// the force kernel it walks node rows, so the planes are known per row.
func (d *Domain) CalcAccelAndBC(lo, hi int) {
	if lo >= hi {
		return
	}
	nx, ny := d.NX, d.NY
	zsym := d.P.Rank == 0 // the global z=0 plane is rank 0's k=0
	row := lo / nx
	j, k := row%ny, row/ny
	for base := row * nx; base < hi; base += nx {
		a, b := max(lo, base), min(hi, base+nx)
		fx, fy, fz, mass := d.FX[a:b], d.FY[a:b], d.FZ[a:b], d.NodalMass[a:b]
		for n, m := range mass {
			fx[n] /= m
			fy[n] /= m
			fz[n] /= m
		}
		if a == base {
			fx[0] = 0
		}
		if j == 0 {
			clear(fy)
		}
		if k == 0 && zsym {
			clear(fz)
		}
		if j++; j == ny {
			j, k = 0, k+1
		}
	}
}

// CalcVelocityForNodes integrates velocities (with a small linear
// damping, standing in for LULESH's velocity cutoff).
func (d *Domain) CalcVelocityForNodes(lo, hi int) {
	dt := d.Dt
	xd, yd, zd := d.XD[lo:hi], d.YD[lo:hi], d.ZD[lo:hi]
	fx, fy, fz := d.FX[lo:hi], d.FY[lo:hi], d.FZ[lo:hi]
	for n := range xd {
		vx := xd[n] + fx[n]*dt
		vy := yd[n] + fy[n]*dt
		vz := zd[n] + fz[n]*dt
		if math.Abs(vx) < 1e-12 {
			vx = 0
		}
		if math.Abs(vy) < 1e-12 {
			vy = 0
		}
		if math.Abs(vz) < 1e-12 {
			vz = 0
		}
		xd[n] = vx
		yd[n] = vy
		zd[n] = vz
	}
}

// CalcPositionForNodes integrates positions.
func (d *Domain) CalcPositionForNodes(lo, hi int) {
	dt := d.Dt
	x, y, z := d.X[lo:hi], d.Y[lo:hi], d.Z[lo:hi]
	xd, yd, zd := d.XD[lo:hi], d.YD[lo:hi], d.ZD[lo:hi]
	for n := range x {
		x[n] += xd[n] * dt
		y[n] += yd[n] * dt
		z[n] += zd[n] * dt
	}
}

// CalcLagrangeElements computes element kinematics: new relative volume
// (parallelepiped approximation through the indirection array), volume
// change Delv and the volume derivative Vdov.
func (d *Domain) CalcLagrangeElements(lo, hi int) {
	h := 1.0 / float64(d.P.S)
	refVol := h * h * h
	dt := d.Dt
	x, y, z := d.X, d.Y, d.Z
	nodelist := d.Nodelist[8*lo : 8*hi]
	vs, delv, vdov := d.V[lo:hi], d.Delv[lo:hi], d.Vdov[lo:hi]
	for e, v0 := range vs {
		nl := nodelist[8*e : 8*e+8]
		n0, n1, n3, n4 := nl[0], nl[1], nl[3], nl[4]
		ax := x[n1] - x[n0]
		ay := y[n1] - y[n0]
		az := z[n1] - z[n0]
		bx := x[n3] - x[n0]
		by := y[n3] - y[n0]
		bz := z[n3] - z[n0]
		cx := x[n4] - x[n0]
		cy := y[n4] - y[n0]
		cz := z[n4] - z[n0]
		vol := ax*(by*cz-bz*cy) + ay*(bz*cx-bx*cz) + az*(bx*cy-by*cx)
		if vol < 0 {
			vol = -vol
		}
		v := vol / refVol
		if v < 1e-6 {
			v = 1e-6
		}
		dv := v - v0
		delv[e] = dv
		vdov[e] = dv / (v0 * dt)
	}
}

// artificial viscosity coefficients.
const (
	qlcMonoQ = 0.5
	qqcMonoQ = 2.0
)

// CalcQForElems computes the artificial viscosity for compressing
// elements.
func (d *Domain) CalcQForElems(lo, hi int) {
	h := 1.0 / float64(d.P.S)
	vdovs, qs, vs, ss := d.Vdov[lo:hi], d.Q[lo:hi], d.V[lo:hi], d.SS[lo:hi]
	for e, vdov := range vdovs {
		if vdov >= 0 {
			qs[e] = 0
			continue
		}
		rho := refDensity / vs[e]
		dl := h * math.Sqrt(vs[e])
		q := rho * (qqcMonoQ*dl*dl*vdov*vdov + qlcMonoQ*dl*ss[e]*math.Abs(vdov))
		if q > qStop {
			q = qStop
		}
		qs[e] = q
	}
}

// ApplyMaterialProperties advances energy with pdV work and evaluates
// the ideal-gas EOS: pressure and sound speed.
func (d *Domain) ApplyMaterialProperties(lo, hi int) {
	vs, delv, es := d.V[lo:hi], d.Delv[lo:hi], d.E[lo:hi]
	pf, qs, ss := d.Pf[lo:hi], d.Q[lo:hi], d.SS[lo:hi]
	for e, v0 := range vs {
		v := v0 + delv[e]
		if v < 1e-6 {
			v = 1e-6
		}
		en := es[e] - 0.5*delv[e]*(pf[e]+qs[e])
		if en < 0 {
			en = 0
		}
		rho := refDensity / v
		p := (gammaGas - 1) * rho * en
		if p < 0 {
			p = 0
		}
		es[e] = en
		pf[e] = p
		ss[e] = math.Sqrt(gammaGas * (p + 1e-12) / rho)
	}
}

// UpdateVolumesForElems commits the new relative volumes, snapping
// near-unity volumes exactly to 1 as LULESH does.
func (d *Domain) UpdateVolumesForElems(lo, hi int) {
	vs, delv := d.V[lo:hi], d.Delv[lo:hi]
	for e, v0 := range vs {
		v := v0 + delv[e]
		if math.Abs(v-1.0) < 1e-10 {
			v = 1.0
		}
		if v < 1e-6 {
			v = 1e-6
		}
		vs[e] = v
	}
}

// CalcTimeConstraint folds the chunk's courant and hydro dt constraints
// into d.DtCand (caller must serialize concurrent chunk calls or merge
// ChunkTimeConstraint results; min is order-independent, so any
// interleaving yields identical results).
func (d *Domain) CalcTimeConstraint(lo, hi int) {
	d.DtCand = math.Min(d.DtCand, d.ChunkTimeConstraint(lo, hi))
}

// ChunkTimeConstraint returns the minimum dt constraint over [lo,hi).
func (d *Domain) ChunkTimeConstraint(lo, hi int) float64 {
	h := 1.0 / float64(d.P.S)
	cand := math.Inf(1)
	ss, vs, vdov := d.SS[lo:hi], d.V[lo:hi], d.Vdov[lo:hi]
	for e, s := range ss {
		if s > 1e-12 {
			dtc := dtCourant * h * math.Sqrt(vs[e]) / s
			if dtc < cand {
				cand = dtc
			}
		}
		if vd := math.Abs(vdov[e]); vd > 1e-12 {
			dth := dvovmax / vd
			if dth < cand {
				cand = dth
			}
		}
	}
	return cand
}
