package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"taskdep/apps/lulesh"
	"taskdep/internal/graph"
	"taskdep/internal/mpi"
	"taskdep/internal/obs"
	"taskdep/internal/rt"
	"taskdep/internal/sched"
	"taskdep/internal/serve"
	"taskdep/internal/sim"
	"taskdep/internal/values"
)

// layers.go times each layer in isolation: the benchmark calls the
// layer's exported functions directly, on generated inputs, with no
// executor (or nothing else) around them. Every traced run measures
// all of them, so the same names carry a fresh number on every
// workload.

// repeatFor calls once() until budget is spent (at least three times),
// all between two calibrations, and returns the median of the times it
// returned, at reference speed.
func repeatFor(budget time.Duration, once func() float64) float64 {
	var xs []float64
	slow := calibrated(func() {
		for t0 := time.Now(); len(xs) < 3 || time.Since(t0) < budget; {
			xs = append(xs, once())
		}
	})
	return median(xs) / slow
}

// drainer completes ready tasks of a bare graph until it is quiescent.
type drainer struct{ ready []*graph.Task }

func (d *drainer) onReady(t *graph.Task) { d.ready = append(d.ready, t) }

func (d *drainer) drain(g *graph.Graph) {
	for len(d.ready) > 0 {
		t := d.ready[len(d.ready)-1]
		d.ready = d.ready[:len(d.ready)-1]
		g.Start(t)
		for _, s := range g.Complete(t) {
			d.onReady(s)
		}
	}
}

// luleshStream is one iteration's dependence stream of the LULESH
// workloads, as (label, deps) pairs.
func luleshStream(sz appSizes) []sim.TaskSpec {
	ops := lulesh.BuildSimTaskIteration(lulesh.SimParams{
		S: sz.luleshS, Iters: 1, TPL: sz.luleshTPL, MinimizeDeps: true,
	}, 0)
	var specs []sim.TaskSpec
	for _, op := range ops {
		if op.Kind == sim.OpSubmit {
			specs = append(specs, op.Spec)
		}
	}
	return specs
}

// graphDiscover times Submit/Flush of the stream into a bare graph;
// execution is drained between iterations outside the timer.
func graphDiscover(stream []sim.TaskSpec, budget time.Duration) float64 {
	d := &drainer{}
	g := graph.NewWithConfig(graph.Config{Opts: graph.OptAll, OnReady: d.onReady})
	return repeatFor(budget, func() float64 {
		t0 := time.Now()
		for i := range stream {
			g.Submit(stream[i].Label, stream[i].Deps, nil, nil)
		}
		g.Flush()
		dt := time.Since(t0)
		d.drain(g)
		return float64(dt.Nanoseconds()) / float64(len(stream))
	})
}

// graphReplay records the stream once and times BeginReplay..Replay..
// FinishReplay of every later iteration.
func graphReplay(stream []sim.TaskSpec, budget time.Duration) (float64, error) {
	d := &drainer{}
	g := graph.NewWithConfig(graph.Config{Opts: graph.OptAll, OnReady: d.onReady})
	g.BeginRecording()
	for i := range stream {
		g.Submit(stream[i].Label, stream[i].Deps, nil, nil)
	}
	g.Flush()
	g.EndRecording()
	d.drain(g)
	var err error
	ns := repeatFor(budget, func() float64 {
		t0 := time.Now()
		if e := g.BeginReplay(); e != nil && err == nil {
			err = e
			return 0
		}
		for range stream {
			g.Replay(nil, nil, nil, nil)
		}
		if e := g.FinishReplay(); e != nil && err == nil {
			err = e
		}
		dt := time.Since(t0)
		d.drain(g)
		return float64(dt.Nanoseconds()) / float64(len(stream))
	})
	g.EndPersistent()
	return ns, err
}

// latticeDeps is the key-only form of a lattice: per task, the keys it
// reads and the one it writes. Keys are row*w+col; the tail writes w*d.
func latticeDeps(sh latticeShape) [][]graph.Dep {
	w, d := sh.w, sh.d
	deps := make([][]graph.Dep, 0, w*d+1)
	for c := 0; c < w; c++ {
		deps = append(deps, []graph.Dep{{Key: graph.Key(c), Type: graph.Out}})
	}
	for row := 1; row < d; row++ {
		for c := 0; c < w; c++ {
			var ds []graph.Dep
			for _, o := range sh.offsets[(row-1)*w+c] {
				src := (c + int(o) + w) % w
				ds = append(ds, graph.Dep{Key: graph.Key((row-1)*w + src), Type: graph.In})
			}
			deps = append(deps, append(ds, graph.Dep{Key: graph.Key(row*w + c), Type: graph.Out}))
		}
	}
	var tail []graph.Dep
	for c := 0; c < w; c++ {
		tail = append(tail, graph.Dep{Key: graph.Key((d-1)*w + c), Type: graph.In})
	}
	return append(deps, append(tail, graph.Dep{Key: graph.Key(w * d), Type: graph.Out}))
}

// graphCompile times Compile() of the recorded lattice, then a
// BeginIteration / FinishInto walk of the compiled schedule.
func graphCompile(sh latticeShape, budget time.Duration) (compileNs, iterNs float64, err error) {
	deps := latticeDeps(sh)
	d := &drainer{}
	g := graph.NewWithConfig(graph.Config{Opts: graph.OptAll, OnReady: d.onReady})
	g.BeginRecording()
	for _, ds := range deps {
		g.Submit("lattice", ds, nil, nil)
	}
	g.Flush()
	g.EndRecording()
	d.drain(g)
	n := float64(g.RecordedLen())

	var cs *graph.Compiled
	compileNs = repeatFor(budget/2, func() float64 {
		t0 := time.Now()
		c, e := g.Compile()
		dt := time.Since(t0)
		if e != nil && err == nil {
			err = e
		}
		cs = c
		return float64(dt.Nanoseconds()) / n
	})
	if err != nil {
		return 0, 0, err
	}
	var stack, buf []*graph.Task
	iterNs = repeatFor(budget/2, func() float64 {
		t0 := time.Now()
		if e := cs.BeginIteration(); e != nil && err == nil {
			err = e
			return 0
		}
		stack = append(stack[:0], cs.Roots()...)
		for len(stack) > 0 {
			t := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			buf = cs.FinishInto(t, buf, graph.Completed)
			stack = append(stack, buf...)
		}
		cs.EndIteration()
		return float64(time.Since(t0).Nanoseconds()) / n
	})
	g.EndPersistent()
	return compileNs, iterNs, err
}

// schedPushPop times a Push followed by a Pop on a worker's own deque;
// schedSteal times a Pop from another slot, whose own deque and the
// global queue are empty, so every pop is a steal.
func schedPushPop(budget time.Duration) float64 {
	const n = 1 << 14
	s := sched.New(sched.DepthFirst, 2)
	t := &graph.Task{}
	return repeatFor(budget, func() float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			s.Push(0, t)
			s.Pop(0)
		}
		return float64(time.Since(t0).Nanoseconds()) / n
	})
}

func schedSteal(budget time.Duration) (float64, error) {
	const n = 1 << 12
	s := sched.New(sched.DepthFirst, 2)
	t := &graph.Task{}
	var err error
	ns := repeatFor(budget, func() float64 {
		for i := 0; i < n; i++ {
			s.Push(0, t)
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if s.Pop(1) == nil && err == nil {
				err = fmt.Errorf("sched: thief found nothing with %d tasks queued", n-i)
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / n
	})
	return ns, err
}

// rtDrain times the drain of a grain-0 graph (roots, each fanning into
// lanes of chained tasks) held back by a detached gate, on one worker:
// gate.Fulfill -> Taskwait return, discovery excluded.
func rtDrain(tasks int, budget time.Duration) (float64, error) {
	const lanes, depth = 4, 24
	roots := max(1, tasks/(1+lanes*depth))
	total := roots * (1 + lanes*depth)
	const gateKey, rootKey, laneKey = graph.Key(1 << 40), graph.Key(2 << 40), graph.Key(3 << 40)
	var err error
	ns := repeatFor(budget, func() float64 {
		r, e := rt.NewRuntime(rt.Config{Workers: 1, Opts: graph.OptAll})
		if e != nil {
			err = e
			return 0
		}
		gate := r.Submit(rt.Spec{Label: "gate", Out: []graph.Key{gateKey}, Detached: true,
			DetachedBody: func(any, *rt.Event) {}})
		body := func(any) {}
		specs := make([]rt.Spec, 0, 1+lanes*depth)
		for g := 0; g < roots; g++ {
			specs = append(specs[:0], rt.Spec{Label: "root", In: []graph.Key{gateKey},
				Out: []graph.Key{rootKey + graph.Key(g)}, Body: body})
			for f := 0; f < lanes; f++ {
				lane := laneKey + graph.Key(g*lanes+f)
				for i := 0; i < depth; i++ {
					s := rt.Spec{Label: "lane", InOut: []graph.Key{lane}, Body: body}
					if i == 0 {
						s.In = []graph.Key{rootKey + graph.Key(g)}
					}
					specs = append(specs, s)
				}
			}
			r.SubmitBatch(specs)
		}
		t0 := time.Now()
		gate.Fulfill()
		e = r.Taskwait()
		dt := time.Since(t0)
		if e == nil {
			e = r.Close()
		}
		if e != nil && err == nil {
			err = e
		}
		return float64(dt.Nanoseconds()) / float64(total)
	})
	return ns, err
}

// rtFrozenReplay times compiled replay of the lattice with empty
// bodies: the difference between a long and a short Persistent region
// on fresh runtimes, per replayed task.
func rtFrozenReplay(sh latticeShape, budget time.Duration) (float64, error) {
	deps := latticeDeps(sh)
	specs := make([]rt.Spec, len(deps))
	for i, ds := range deps {
		sp := rt.Spec{Label: "lattice", Body: func(any) {}}
		for _, d := range ds {
			if d.Type == graph.In {
				sp.In = append(sp.In, d.Key)
			} else {
				sp.Out = append(sp.Out, d.Key)
			}
		}
		specs[i] = sp
	}
	const warm, long = 4, 204
	region := func(iters int) (time.Duration, error) {
		r, err := rt.NewRuntime(rt.Config{Workers: 1, Opts: graph.OptAll})
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		err = r.Persistent(iters, func(int) {
			for i := range specs {
				r.Submit(specs[i])
			}
		}, rt.Frozen())
		dt := time.Since(t0)
		if err == nil && r.Obs().Counter(obs.CReplayCompiled) == 0 {
			err = fmt.Errorf("rt: frozen region of %d iterations ran no compiled iteration", iters)
		}
		if cerr := r.Close(); err == nil {
			err = cerr
		}
		return dt, err
	}
	var err error
	ns := repeatFor(budget, func() float64 {
		short, e1 := region(warm)
		full, e2 := region(long)
		for _, e := range []error{e1, e2} {
			if e != nil && err == nil {
				err = e
			}
		}
		return float64((full - short).Nanoseconds()) / float64((long-warm)*len(specs))
	})
	return ns, err
}

// mpiIsolation times a one-way message of the halo size (half a
// ping-pong round trip) and a one-element allreduce between two ranks.
func mpiIsolation(haloLen int, budget time.Duration) (pingpongUs, allreduceUs float64) {
	const n = 2000
	timeRanks := func(body func(c *mpi.Comm)) time.Duration {
		w := mpi.NewWorld(2)
		t0 := time.Now()
		w.Run(body)
		return time.Since(t0)
	}
	pingpongUs = repeatFor(budget/2, func() float64 {
		dt := timeRanks(func(c *mpi.Comm) {
			buf := make([]float64, haloLen)
			peer := 1 - c.Rank()
			for i := 0; i < n; i++ {
				if c.Rank() == 0 {
					c.Isend(buf, peer, 1).Wait()
					c.Irecv(buf, peer, 2).Wait()
				} else {
					c.Irecv(buf, peer, 1).Wait()
					c.Isend(buf, peer, 2).Wait()
				}
			}
		})
		return dt.Seconds() * 1e6 / (2 * n)
	})
	allreduceUs = repeatFor(budget/2, func() float64 {
		dt := timeRanks(func(c *mpi.Comm) {
			var in, out [1]float64
			for i := 0; i < n; i++ {
				in[0] = float64(i)
				c.Iallreduce(mpi.Sum, in[:], out[:]).Wait()
			}
		})
		return dt.Seconds() * 1e6 / n
	})
	return pingpongUs, allreduceUs
}

// serveIsolation walks requests through the serve layer's exported
// steps, one step at a time: decode, Validate, Admit+release, Tenant.Run
// with a collecting emit, and the NDJSON encoding of the collected
// events; then Binder.Lower over a request's tasks for the values
// layer. It stores the costs under their per-layer names.
func serveIsolation(lats []lattice, budget time.Duration, out map[string]float64) error {
	var err error
	fail := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	m := serve.NewManager(serve.Options{})
	defer m.CloseAll()
	tn, e := m.Tenant("isolation")
	if e != nil {
		return e
	}
	reqs := make([]serve.GraphRequest, len(lats))
	perUs := func(n int, dt time.Duration) float64 { return dt.Seconds() * 1e6 / float64(n) }
	each := budget / 6

	out["serve.decode_us"] = repeatFor(each, func() float64 {
		t0 := time.Now()
		for i := range lats {
			reqs[i] = serve.GraphRequest{}
			fail(json.NewDecoder(bytes.NewReader(lats[i].body)).Decode(&reqs[i]))
		}
		return perUs(len(lats), time.Since(t0))
	})
	out["serve.validate_us"] = repeatFor(each, func() float64 {
		t0 := time.Now()
		for i := range reqs {
			fail(reqs[i].Validate())
		}
		return perUs(len(reqs), time.Since(t0))
	})
	out["serve.admit_ns"] = repeatFor(each, func() float64 {
		const n = 4096
		t0 := time.Now()
		for i := 0; i < n; i++ {
			release, e := m.Admit(tn)
			if e != nil {
				fail(e)
				continue
			}
			release()
		}
		return float64(time.Since(t0).Nanoseconds()) / n
	})
	var (
		mu     sync.Mutex
		events []serve.Event
	)
	emit := func(e serve.Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}
	out["serve.tenant_run_us"] = repeatFor(each, func() float64 {
		t0 := time.Now()
		for i := range reqs {
			events = events[:0]
			fail(tn.Run(context.Background(), &reqs[i], emit))
		}
		return perUs(len(reqs), time.Since(t0))
	})
	// events now holds the last request's stream.
	out["serve.encode_us"] = repeatFor(each, func() float64 {
		enc := json.NewEncoder(io.Discard)
		t0 := time.Now()
		for seq := range events {
			events[seq].Seq = seq + 1
			fail(enc.Encode(events[seq]))
		}
		return perUs(1, time.Since(t0))
	})

	// values: bind the request's slots once, then time the lowering of
	// its tasks onto runtime specs.
	store := values.NewStore()
	bind := func(names []string) []values.Handle {
		hs := make([]values.Handle, len(names))
		for i, n := range names {
			hs[i] = store.Bind(n)
		}
		return hs
	}
	req := &reqs[len(reqs)-1]
	specs := make([]values.Spec, len(req.Tasks))
	for i := range req.Tasks {
		t := &req.Tasks[i]
		specs[i] = values.Spec{Label: t.Label, Consume: bind(t.Consume), Provide: bind(t.Provide),
			Update: bind(t.Update), Do: func() error { return nil }}
	}
	var b values.Binder
	var sink rt.Spec
	out["values.lower_ns_per_task"] = repeatFor(each, func() float64 {
		t0 := time.Now()
		for i := range specs {
			sink = b.Lower(specs[i])
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(len(specs))
	})
	_ = sink
	return err
}

// measureIsolation runs every isolation timing within about budget and
// stores them under their per-layer names. lats are the serve requests
// to walk through the serve layer.
func measureIsolation(sz appSizes, sh latticeShape, lats []lattice, drainTasks int, budget time.Duration) (map[string]float64, error) {
	each := budget / 9
	out := map[string]float64{}
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	var err error
	stream := luleshStream(sz)
	out["graph.discover_ns_per_task"] = graphDiscover(stream, each)
	out["graph.replay_ns_per_task"], err = graphReplay(stream, each)
	note(err)
	out["graph.compile_ns_per_task"], out["graph.compiled_iter_ns_per_task"], err = graphCompile(sh, each)
	note(err)
	out["sched.push_pop_ns"] = schedPushPop(each / 2)
	out["sched.steal_ns"], err = schedSteal(each / 2)
	note(err)
	out["rt.drain_ns_per_task"], err = rtDrain(drainTasks, each)
	note(err)
	out["rt.frozen_replay_ns_per_task"], err = rtFrozenReplay(sh, each)
	note(err)
	out["mpi.pingpong_us"], out["mpi.allreduce_us"] = mpiIsolation(sz.hpcgN*sz.hpcgN, each)
	note(serveIsolation(lats, 2*each, out))
	return out, firstErr
}
