package lulesh

import (
	"math"
	"sync"

	"taskdep/internal/graph"
	"taskdep/internal/mpi"
	"taskdep/internal/rt"
)

// Dependence key namespaces (field groups). With MinimizeDeps
// (optimization (a)) the merged groups are used; without it, every array
// gets its own key, reproducing the redundant-dependence pattern the
// paper found in Ferat et al.'s code.
const (
	fDt        = iota + 1 // the reduced time step
	fDtCand               // the concurrent min-reduction candidate
	fNodeState            // X,Y,Z,XD,YD,ZD merged
	fNodeForce            // FX,FY,FZ merged
	fElemKin              // V,Delv,Vdov merged
	fElemQ                // Q
	fElemEOS              // E,Pf,SS merged
	fSbufDown
	fSbufUp
	fRbufDown
	fRbufUp
	// Split namespaces for MinimizeDeps=false.
	fNodeX
	fNodeY
	fNodeZ
	fNodeXD
	fNodeYD
	fNodeZD
	fForceX
	fForceY
	fForceZ
	fElemV
	fElemDelv
	fElemVdov
	fElemE
	fElemP
	fElemSS
)

func key(field, chunk int) graph.Key {
	return graph.Key(uint64(field)<<32 | uint64(uint32(chunk)))
}

// chunkBounds splits [0,n) into tpl chunks.
func chunkBounds(n, tpl, c int) (lo, hi int) {
	return c * n / tpl, (c + 1) * n / tpl
}

// chunksCovering returns the chunk index range [c0,c1] containing
// [lo,hi) under an n/tpl split.
func chunksCovering(n, tpl, lo, hi int) (c0, c1 int) {
	if hi <= lo {
		return 0, -1
	}
	c0 = lo * tpl / n
	c1 = (hi - 1) * tpl / n
	// The integer split is not perfectly inverse; widen until correct.
	for c0 > 0 {
		if l, _ := chunkBounds(n, tpl, c0); l > lo {
			c0--
		} else {
			break
		}
	}
	for c1 < tpl-1 {
		if _, h := chunkBounds(n, tpl, c1); h < hi {
			c1++
		} else {
			break
		}
	}
	return c0, c1
}

// elemRangeForNodes returns the element index range adjacent to node
// range [nlo,nhi) under the z-major layout.
func (d *Domain) elemRangeForNodes(nlo, nhi int) (int, int) {
	nxy := d.NX * d.NY
	klo := nlo/nxy - 1
	khi := (nhi - 1) / nxy
	if klo < 0 {
		klo = 0
	}
	if khi > d.EZ-1 {
		khi = d.EZ - 1
	}
	exy := d.EX * d.EY
	return klo * exy, (khi + 1) * exy
}

// nodeRangeForElems returns the node index range adjacent to element
// range [elo,ehi).
func (d *Domain) nodeRangeForElems(elo, ehi int) (int, int) {
	exy := d.EX * d.EY
	klo := elo / exy
	khi := (ehi - 1) / exy
	nxy := d.NX * d.NY
	return klo * nxy, (khi + 2) * nxy
}

// exchanger performs the boundary-layer force (and mass) summation with
// the z neighbors, the 1-D equivalent of LULESH's frontier exchange.
type exchanger struct {
	comm     *mpi.Comm
	down, up int // neighbor ranks, -1 if none
	nxy      int

	sbufDown, sbufUp []float64
	rbufDown, rbufUp []float64
}

const (
	tagForceUp   = 101 // sent upward (to rank+1)
	tagForceDown = 102 // sent downward (to rank-1)
	tagMassUp    = 103
	tagMassDown  = 104
)

func newExchanger(d *Domain, comm *mpi.Comm) *exchanger {
	ex := &exchanger{comm: comm, down: -1, up: -1, nxy: d.NodesPerLayer()}
	if comm == nil {
		return ex
	}
	if d.P.Rank > 0 {
		ex.down = d.P.Rank - 1
	}
	if d.P.Rank < d.P.Ranks-1 {
		ex.up = d.P.Rank + 1
	}
	ex.sbufDown = make([]float64, 3*ex.nxy)
	ex.sbufUp = make([]float64, 3*ex.nxy)
	ex.rbufDown = make([]float64, 3*ex.nxy)
	ex.rbufUp = make([]float64, 3*ex.nxy)
	return ex
}

// packDown/packUp copy the boundary-layer forces into send buffers.
func (ex *exchanger) packDown(d *Domain) {
	for i := 0; i < ex.nxy; i++ {
		ex.sbufDown[3*i] = d.FX[i]
		ex.sbufDown[3*i+1] = d.FY[i]
		ex.sbufDown[3*i+2] = d.FZ[i]
	}
}

func (ex *exchanger) packUp(d *Domain) {
	base := d.NumNodes() - ex.nxy
	for i := 0; i < ex.nxy; i++ {
		ex.sbufUp[3*i] = d.FX[base+i]
		ex.sbufUp[3*i+1] = d.FY[base+i]
		ex.sbufUp[3*i+2] = d.FZ[base+i]
	}
}

// unpackDown/unpackUp add the neighbor's contributions to the shared
// layer.
func (ex *exchanger) unpackDown(d *Domain) {
	for i := 0; i < ex.nxy; i++ {
		d.FX[i] += ex.rbufDown[3*i]
		d.FY[i] += ex.rbufDown[3*i+1]
		d.FZ[i] += ex.rbufDown[3*i+2]
	}
}

func (ex *exchanger) unpackUp(d *Domain) {
	base := d.NumNodes() - ex.nxy
	for i := 0; i < ex.nxy; i++ {
		d.FX[base+i] += ex.rbufUp[3*i]
		d.FY[base+i] += ex.rbufUp[3*i+1]
		d.FZ[base+i] += ex.rbufUp[3*i+2]
	}
}

// exchangeForcesBlocking is the parallel-for form: post, wait all, add.
func (ex *exchanger) exchangeForcesBlocking(d *Domain) {
	if ex.comm == nil || (ex.down < 0 && ex.up < 0) {
		return
	}
	var reqs []*mpi.Request
	if ex.down >= 0 {
		reqs = append(reqs, ex.comm.Irecv(ex.rbufDown, ex.down, tagForceUp))
	}
	if ex.up >= 0 {
		reqs = append(reqs, ex.comm.Irecv(ex.rbufUp, ex.up, tagForceDown))
	}
	if ex.down >= 0 {
		ex.packDown(d)
		reqs = append(reqs, ex.comm.Isend(ex.sbufDown, ex.down, tagForceDown))
	}
	if ex.up >= 0 {
		ex.packUp(d)
		reqs = append(reqs, ex.comm.Isend(ex.sbufUp, ex.up, tagForceUp))
	}
	mpi.Waitall(reqs...)
	if ex.down >= 0 {
		ex.unpackDown(d)
	}
	if ex.up >= 0 {
		ex.unpackUp(d)
	}
}

// exchangeMass sums the shared-layer nodal masses once at startup.
func (ex *exchanger) exchangeMass(d *Domain) {
	if ex.comm == nil || (ex.down < 0 && ex.up < 0) {
		return
	}
	nxy := ex.nxy
	base := d.NumNodes() - nxy
	var reqs []*mpi.Request
	rDown := make([]float64, nxy)
	rUp := make([]float64, nxy)
	if ex.down >= 0 {
		reqs = append(reqs, ex.comm.Irecv(rDown, ex.down, tagMassUp))
		reqs = append(reqs, ex.comm.Isend(d.NodalMass[:nxy], ex.down, tagMassDown))
	}
	if ex.up >= 0 {
		reqs = append(reqs, ex.comm.Irecv(rUp, ex.up, tagMassDown))
		reqs = append(reqs, ex.comm.Isend(d.NodalMass[base:], ex.up, tagMassUp))
	}
	mpi.Waitall(reqs...)
	if ex.down >= 0 {
		for i := 0; i < nxy; i++ {
			d.NodalMass[i] += rDown[i]
		}
	}
	if ex.up >= 0 {
		for i := 0; i < nxy; i++ {
			d.NodalMass[base+i] += rUp[i]
		}
	}
}

// reduceDt performs the global minimum-dt reduction and advances the
// time step, resetting the candidate for the next iteration.
func (d *Domain) reduceDt(comm *mpi.Comm) {
	cand := d.DtCand
	if comm != nil && comm.Size() > 1 {
		var in, out [1]float64
		in[0] = cand
		comm.Allreduce(mpi.Min, in[:], out[:])
		cand = out[0]
	}
	d.FinishTimeStep(cand)
	d.DtCand = math.Inf(1)
}

// RunParallelFor executes the reference BSP form: every loop is a
// fork-join taskloop with a barrier; communications happen between
// loops, outside any task; the dt collective blocks at iteration start.
func RunParallelFor(d *Domain, r *rt.Runtime, comm *mpi.Comm) {
	ex := newExchanger(d, comm)
	ex.exchangeMass(d)
	nw := r.Scheduler().NumWorkers()
	nn, ne := d.NumNodes(), d.NumElems()
	d.DtCand = math.Inf(1)

	parfor := func(n int, body func(lo, hi int)) {
		r.TaskLoop(n, nw, func(c, lo, hi int) rt.Spec {
			return rt.Spec{Label: "parfor"}
		}, body)
		r.Taskwait()
	}

	for it := 0; it < d.P.Iters; it++ {
		d.reduceDt(comm)
		parfor(nn, d.CalcForceForNodes)
		ex.exchangeForcesBlocking(d)
		parfor(nn, d.CalcAccelAndBC)
		parfor(nn, d.CalcVelocityForNodes)
		parfor(nn, d.CalcPositionForNodes)
		parfor(ne, d.CalcLagrangeElements)
		parfor(ne, d.CalcQForElems)
		parfor(ne, d.ApplyMaterialProperties)
		parfor(ne, d.UpdateVolumesForElems)
		// Chunked min-reduction, merged deterministically.
		cands := make([]float64, nw)
		for c := 0; c < nw; c++ {
			lo, hi := chunkBounds(ne, nw, c)
			c := c
			r.Submit(rt.Spec{Label: "dtc", Do: func(any) error {
				cands[c] = d.ChunkTimeConstraint(lo, hi)
				return nil
			}})
		}
		r.Taskwait()
		for _, v := range cands {
			if v < d.DtCand {
				d.DtCand = v
			}
		}
	}
	d.reduceDt(comm) // apply the last iteration's constraint
}

// TaskConfig parametrizes the dependent-task form.
type TaskConfig struct {
	// TPL is the tasks-per-loop grain parameter of the paper.
	TPL int
	// Persistent enables the PTSG extension (optimization p).
	Persistent bool
	// MinimizeDeps applies optimization (a): merged dependence keys for
	// field groups always produced/consumed together.
	MinimizeDeps bool
}

// RunTask executes the dependent-task form of Listing 1: taskloops with
// depend clauses, MPI nested in detached tasks, inoutset dt reduction.
func RunTask(d *Domain, r *rt.Runtime, comm *mpi.Comm, cfg TaskConfig) error {
	if cfg.TPL <= 0 {
		cfg.TPL = 1
	}
	ex := newExchanger(d, comm)
	ex.exchangeMass(d)
	d.DtCand = math.Inf(1)
	var dtMu sync.Mutex

	// The time step's task graph does not change between iterations, so
	// its specs — keys, and closures over constant chunk bounds — are
	// built once and resubmitted every step.
	head, exch, tail := d.buildIteration(comm, ex, cfg, &dtMu)
	body := func(iter int) {
		r.SubmitBatch(head)
		for i := range exch {
			r.Submit(exch[i])
		}
		r.SubmitBatch(tail)
	}

	abort := func(err error) error {
		// A failed rank errors out its peers' pending requests instead
		// of leaving them deadlocked on halo exchanges that will never
		// be posted.
		if comm != nil {
			comm.Abort(err)
		}
		return err
	}
	if cfg.Persistent {
		if err := r.Persistent(d.P.Iters, body); err != nil {
			return abort(err)
		}
	} else {
		for it := 0; it < d.P.Iters; it++ {
			body(it)
		}
		if err := r.Taskwait(); err != nil {
			return abort(err)
		}
	}
	// Apply the final iteration's constraint (outside tasking).
	d.reduceDt(comm)
	return nil
}

// groups of field keys depending on optimization (a).
type fieldGroups struct {
	nodeState, nodeForce, elemKin, elemQ, elemEOS []int
}

func groupsFor(cfg TaskConfig) fieldGroups {
	if cfg.MinimizeDeps {
		return fieldGroups{
			nodeState: []int{fNodeState},
			nodeForce: []int{fNodeForce},
			elemKin:   []int{fElemKin},
			elemQ:     []int{fElemQ},
			elemEOS:   []int{fElemEOS},
		}
	}
	return fieldGroups{
		nodeState: []int{fNodeX, fNodeY, fNodeZ, fNodeXD, fNodeYD, fNodeZD},
		nodeForce: []int{fForceX, fForceY, fForceZ},
		elemKin:   []int{fElemV, fElemDelv, fElemVdov},
		elemQ:     []int{fElemQ},
		elemEOS:   []int{fElemE, fElemP, fElemSS},
	}
}

// keysForChunks builds keys for every (field, chunk) pair in the ranges.
func keysForChunks(fields []int, c0, c1 int) []graph.Key {
	if c1 < c0 {
		return nil
	}
	out := make([]graph.Key, 0, (c1-c0+1)*len(fields))
	for c := c0; c <= c1; c++ {
		for _, f := range fields {
			out = append(out, key(f, c))
		}
	}
	return out
}

// buildIteration returns one time step's task graph as three spec lists,
// submitted in this order: head (the dt task and the force loop) as one
// batch, exch (the frontier exchange, detached tasks) one by one, tail
// (every other chunked loop) as one batch.
func (d *Domain) buildIteration(comm *mpi.Comm, ex *exchanger, cfg TaskConfig, dtMu *sync.Mutex) (head, exch, tail []rt.Spec) {
	tpl := cfg.TPL
	nn, ne := d.NumNodes(), d.NumElems()
	g := groupsFor(cfg)

	specs := make([]rt.Spec, 0, tpl+1)

	// dt task: closes the inoutset group of the previous iteration's
	// constraints, reduces globally, publishes the new dt.
	specs = append(specs, rt.Spec{
		Label: "dt",
		In:    []graph.Key{key(fDtCand, 0)},
		Out:   []graph.Key{key(fDt, 0)},
		Do:    func(any) error { d.reduceDt(comm); return nil },
	})

	nodeChunkKeys := func(fields []int, lo, hi int) []graph.Key {
		c0, c1 := chunksCovering(nn, tpl, lo, hi)
		return keysForChunks(fields, c0, c1)
	}
	elemChunkKeys := func(fields []int, lo, hi int) []graph.Key {
		c0, c1 := chunksCovering(ne, tpl, lo, hi)
		return keysForChunks(fields, c0, c1)
	}

	// Force loop (node-chunked): reads dt, EOS state of adjacent
	// elements and positions of those elements' nodes (one layer beyond
	// the chunk); writes forces. The read set depends on the element range
	// alone, which consecutive chunks of one node layer share: they share
	// the slice too, which is how discovery admits them to one read run
	// without comparing keys.
	var in []graph.Key
	prevLo, prevHi := -1, -1
	for c := 0; c < tpl; c++ {
		lo, hi := chunkBounds(nn, tpl, c)
		elo, ehi := d.elemRangeForNodes(lo, hi)
		if elo != prevLo || ehi != prevHi {
			nlo, nhi := d.nodeRangeForElems(elo, ehi)
			// The force kernel reads positions and pressures only — no dt —
			// so next-iteration force tasks can overlap the dt collective.
			in = append(elemChunkKeys(g.elemEOS, elo, ehi), elemChunkKeys(g.elemQ, elo, ehi)...)
			in = append(in, nodeChunkKeys(g.nodeState, nlo, nhi)...)
			prevLo, prevHi = elo, ehi
		}
		lo2, hi2 := lo, hi
		specs = append(specs, rt.Spec{
			Label: "force",
			In:    in,
			Out:   keysForChunks(g.nodeForce, c, c),
			Do:    func(any) error { d.CalcForceForNodes(lo2, hi2); return nil },
		})
	}

	head = specs
	specs = make([]rt.Spec, 0, 8*tpl)

	// Frontier force exchange: pack -> isend (detached) and irecv
	// (detached) -> unpack-add, per neighbor.
	exch = d.forceExchangeSpecs(ex, cfg, g)

	// Acceleration+BC (in place on forces).
	for c := 0; c < tpl; c++ {
		lo, hi := chunkBounds(nn, tpl, c)
		lo2, hi2 := lo, hi
		specs = append(specs, rt.Spec{
			Label: "accel",
			InOut: keysForChunks(g.nodeForce, c, c),
			Do:    func(any) error { d.CalcAccelAndBC(lo2, hi2); return nil },
		})
	}
	// Velocity.
	for c := 0; c < tpl; c++ {
		lo, hi := chunkBounds(nn, tpl, c)
		lo2, hi2 := lo, hi
		specs = append(specs, rt.Spec{
			Label: "vel",
			In:    append([]graph.Key{key(fDt, 0)}, keysForChunks(g.nodeForce, c, c)...),
			InOut: keysForChunks(g.nodeState, c, c),
			Do:    func(any) error { d.CalcVelocityForNodes(lo2, hi2); return nil },
		})
	}
	// Position.
	for c := 0; c < tpl; c++ {
		lo, hi := chunkBounds(nn, tpl, c)
		lo2, hi2 := lo, hi
		specs = append(specs, rt.Spec{
			Label: "pos",
			In:    []graph.Key{key(fDt, 0)},
			InOut: keysForChunks(g.nodeState, c, c),
			Do:    func(any) error { d.CalcPositionForNodes(lo2, hi2); return nil },
		})
	}
	// Kinematics (element-chunked): reads adjacent node positions.
	for c := 0; c < tpl; c++ {
		lo, hi := chunkBounds(ne, tpl, c)
		nlo, nhi := d.nodeRangeForElems(lo, hi)
		lo2, hi2 := lo, hi
		specs = append(specs, rt.Spec{
			Label: "kin",
			In:    append([]graph.Key{key(fDt, 0)}, nodeChunkKeys(g.nodeState, nlo, nhi)...),
			InOut: keysForChunks(g.elemKin, c, c),
			Do:    func(any) error { d.CalcLagrangeElements(lo2, hi2); return nil },
		})
	}
	// Q.
	for c := 0; c < tpl; c++ {
		lo, hi := chunkBounds(ne, tpl, c)
		lo2, hi2 := lo, hi
		specs = append(specs, rt.Spec{
			Label: "q",
			In:    append(keysForChunks(g.elemKin, c, c), keysForChunks(g.elemEOS, c, c)...),
			Out:   []graph.Key{key(fElemQ, c)},
			Do:    func(any) error { d.CalcQForElems(lo2, hi2); return nil },
		})
	}
	// EOS.
	for c := 0; c < tpl; c++ {
		lo, hi := chunkBounds(ne, tpl, c)
		lo2, hi2 := lo, hi
		specs = append(specs, rt.Spec{
			Label: "eos",
			In:    append([]graph.Key{key(fElemQ, c)}, keysForChunks(g.elemKin, c, c)...),
			InOut: keysForChunks(g.elemEOS, c, c),
			Do:    func(any) error { d.ApplyMaterialProperties(lo2, hi2); return nil },
		})
	}
	// Volume update.
	for c := 0; c < tpl; c++ {
		lo, hi := chunkBounds(ne, tpl, c)
		lo2, hi2 := lo, hi
		specs = append(specs, rt.Spec{
			Label: "vol",
			InOut: keysForChunks(g.elemKin, c, c),
			Do:    func(any) error { d.UpdateVolumesForElems(lo2, hi2); return nil },
		})
	}
	// Time constraints: concurrent min-reduction via inoutset.
	for c := 0; c < tpl; c++ {
		lo, hi := chunkBounds(ne, tpl, c)
		lo2, hi2 := lo, hi
		specs = append(specs, rt.Spec{
			Label:    "dtc",
			In:       append(keysForChunks(g.elemKin, c, c), keysForChunks(g.elemEOS, c, c)...),
			InOutSet: []graph.Key{key(fDtCand, 0)},
			Do: func(any) error {
				v := d.ChunkTimeConstraint(lo2, hi2)
				dtMu.Lock()
				if v < d.DtCand {
					d.DtCand = v
				}
				dtMu.Unlock()
				return nil
			},
		})
	}
	return head, exch, specs
}

// forceExchangeSpecs builds the frontier communication tasks.
func (d *Domain) forceExchangeSpecs(ex *exchanger, cfg TaskConfig, g fieldGroups) (specs []rt.Spec) {
	if ex.comm == nil || (ex.down < 0 && ex.up < 0) {
		return nil
	}
	nn := d.NumNodes()
	tpl := cfg.TPL
	nxy := ex.nxy
	comm := ex.comm

	type side struct {
		peer             int
		lo, hi           int // frontier node range
		sbuf, rbuf       []float64
		sKey, rKey       graph.Key
		tagSend, tagRecv int
		pack, unpack     func(*Domain)
	}
	sides := []side{}
	if ex.down >= 0 {
		sides = append(sides, side{
			peer: ex.down, lo: 0, hi: nxy,
			sbuf: ex.sbufDown, rbuf: ex.rbufDown,
			sKey: key(fSbufDown, 0), rKey: key(fRbufDown, 0),
			tagSend: tagForceDown, tagRecv: tagForceUp,
			pack: ex.packDown, unpack: ex.unpackDown,
		})
	}
	if ex.up >= 0 {
		sides = append(sides, side{
			peer: ex.up, lo: nn - nxy, hi: nn,
			sbuf: ex.sbufUp, rbuf: ex.rbufUp,
			sKey: key(fSbufUp, 0), rKey: key(fRbufUp, 0),
			tagSend: tagForceUp, tagRecv: tagForceDown,
			pack: ex.packUp, unpack: ex.unpackUp,
		})
	}
	for _, s := range sides {
		s := s
		c0, c1 := chunksCovering(nn, tpl, s.lo, s.hi)
		frontierForce := keysForChunks(g.nodeForce, c0, c1)
		// Irecv first (posted early, as the paper's Listing 1).
		specs = append(specs, rt.Spec{
			Label:    "irecv",
			Out:      []graph.Key{s.rKey},
			Detached: true,
			DetachedBody: func(_ any, ev *rt.Event) {
				comm.Irecv(s.rbuf, s.peer, s.tagRecv).OnComplete(ev.Fulfill)
			},
		})
		// Pack frontier forces.
		specs = append(specs, rt.Spec{
			Label: "pack",
			In:    frontierForce,
			Out:   []graph.Key{s.sKey},
			Do:    func(any) error { s.pack(d); return nil },
		})
		// Isend (detached).
		specs = append(specs, rt.Spec{
			Label:    "isend",
			In:       []graph.Key{s.sKey},
			Detached: true,
			DetachedBody: func(_ any, ev *rt.Event) {
				comm.Isend(s.sbuf, s.peer, s.tagSend).OnComplete(ev.Fulfill)
			},
		})
		// Unpack adds into the frontier force chunks.
		specs = append(specs, rt.Spec{
			Label: "unpack",
			In:    []graph.Key{s.rKey},
			InOut: frontierForce,
			Do:    func(any) error { s.unpack(d); return nil },
		})
	}
	return specs
}
