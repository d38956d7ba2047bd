package lulesh

import (
	"math"
	"runtime"
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

func serialRun(t *testing.T, p Params) *Domain {
	t.Helper()
	d, err := NewDomain(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.Iters; i++ {
		d.Step()
	}
	return d
}

func TestSerialPhysicsSane(t *testing.T) {
	d := serialRun(t, Params{S: 8, Iters: 10, Ranks: 1})
	if d.Dt <= 0 || math.IsNaN(d.Dt) {
		t.Fatalf("dt = %v", d.Dt)
	}
	// The blast wave must have spread energy beyond the origin element.
	energized := 0
	for _, e := range d.E {
		if e > 0 {
			energized++
		}
	}
	if energized < 2 {
		t.Fatalf("energy did not propagate: %d elements energized", energized)
	}
	for i, v := range d.V {
		if v <= 0 || math.IsNaN(v) {
			t.Fatalf("volume[%d] = %v", i, v)
		}
	}
	for _, x := range d.X {
		if math.IsNaN(x) {
			t.Fatalf("NaN position")
		}
	}
}

func TestSerialDeterminism(t *testing.T) {
	a := serialRun(t, Params{S: 6, Iters: 8, Ranks: 1})
	b := serialRun(t, Params{S: 6, Iters: 8, Ranks: 1})
	if a.Checksum() != b.Checksum() {
		t.Fatalf("serial runs differ")
	}
}

// compareDomains requires bitwise equality of the physical state.
func compareDomains(t *testing.T, want, got *Domain, label string) {
	t.Helper()
	cmp := func(name string, a, b []float64) {
		if len(a) != len(b) {
			t.Fatalf("%s: %s length %d vs %d", label, name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: %s[%d] = %v, want %v", label, name, i, b[i], a[i])
			}
		}
	}
	cmp("E", want.E, got.E)
	cmp("P", want.Pf, got.Pf)
	cmp("V", want.V, got.V)
	cmp("X", want.X, got.X)
	cmp("XD", want.XD, got.XD)
	if want.Dt != got.Dt {
		t.Fatalf("%s: dt %v vs %v", label, want.Dt, got.Dt)
	}
}

func TestParallelForMatchesSerial(t *testing.T) {
	p := Params{S: 6, Iters: 6, Ranks: 1}
	ref := serialRun(t, p)
	d, _ := NewDomain(p)
	r := newRuntime(t, rt.Config{Workers: 4})
	RunParallelFor(d, r, nil)
	r.Close()
	compareDomains(t, ref, d, "parallel-for")
}

func TestTaskMatchesSerialAcrossConfigs(t *testing.T) {
	p := Params{S: 6, Iters: 5, Ranks: 1}
	ref := serialRun(t, p)
	for _, tc := range []TaskConfig{
		{TPL: 1},
		{TPL: 4},
		{TPL: 13},
		{TPL: 4, MinimizeDeps: true},
		{TPL: 4, Persistent: true},
		// 13 divides neither the 343 nodes nor the 216 elements: uneven
		// chunks, whose bounds the once-built closures must carry.
		{TPL: 13, MinimizeDeps: true},
		{TPL: 13, Persistent: true},
		{TPL: 7, Persistent: true, MinimizeDeps: true},
	} {
		d, _ := NewDomain(p)
		r := newRuntime(t, rt.Config{Workers: 4, Opts: graph.OptAll})
		if err := RunTask(d, r, nil, tc); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		r.Close()
		compareDomains(t, ref, d, "task")
	}
}

// TestLaterIterationsAllocateNoSpecs pins that RunTask builds the time
// step's specs once. It measures the persistent form, where iterations
// after the first are replays and the graph and runtime allocate nothing
// for them: whatever an additional iteration allocates, the application
// allocated. Rebuilding the specs — a Spec, a closure and its key slices
// per task — costs about 300 bytes per task at this size; the bound
// leaves room for the race detector, under which sync.Pool drops what
// the runtime's staging buffers put back. The discovered form runs the
// same region body.
func TestLaterIterationsAllocateNoSpecs(t *testing.T) {
	const tpl, few, many, bound = 16, 2, 34, 64
	run := func(iters int) uint64 {
		d, err := NewDomain(Params{S: 8, Iters: iters, Ranks: 1})
		if err != nil {
			t.Fatal(err)
		}
		r := newRuntime(t, rt.Config{Workers: 1, Opts: graph.OptAll})
		defer r.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := RunTask(d, r, nil, TaskConfig{TPL: tpl, Persistent: true, MinimizeDeps: true}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	run(few) // warm the runtime's pools outside the measurement
	perTask := (float64(run(many)) - float64(run(few))) / float64((many-few)*(8*tpl+1))
	if perTask > bound {
		t.Fatalf("%.0f bytes allocated per task per additional iteration, bound %d", perTask, bound)
	}
}

func TestTaskBreadthAndNoOptsStillCorrect(t *testing.T) {
	p := Params{S: 5, Iters: 4, Ranks: 1}
	ref := serialRun(t, p)
	d, _ := NewDomain(p)
	r := newRuntime(t, rt.Config{Workers: 3, Opts: 0})
	if err := RunTask(d, r, nil, TaskConfig{TPL: 5}); err != nil {
		t.Fatal(err)
	}
	r.Close()
	compareDomains(t, ref, d, "task-noopts")
}

// TestDistributedMatchesGlobalSerial runs R ranks of SxSxS slabs and
// compares against one serial SxSx(R*S) domain.
func TestDistributedMatchesGlobalSerial(t *testing.T) {
	const S, R, iters = 4, 3, 5
	ref := serialRun(t, Params{S: S, SZ: R * S, Iters: iters, Ranks: 1})

	for _, mode := range []string{"parfor", "task", "task-persistent"} {
		w := mpi.NewWorld(R)
		doms := make([]*Domain, R)
		w.Run(func(c *mpi.Comm) {
			p := Params{S: S, Iters: iters, Ranks: R, Rank: c.Rank()}
			d, err := NewDomain(p)
			if err != nil {
				t.Error(err)
				return
			}
			doms[c.Rank()] = d
			r := newRuntime(t, rt.Config{Workers: 2, Opts: graph.OptAll})
			switch mode {
			case "parfor":
				RunParallelFor(d, r, c)
			case "task":
				if err := RunTask(d, r, c, TaskConfig{TPL: 3}); err != nil {
					t.Error(err)
				}
			case "task-persistent":
				if err := RunTask(d, r, c, TaskConfig{TPL: 3, Persistent: true, MinimizeDeps: true}); err != nil {
					t.Error(err)
				}
			}
			r.Close()
		})
		if t.Failed() {
			t.Fatalf("%s: rank errors", mode)
		}
		// Element fields are disjoint per slab: compare each.
		exy := S * S
		for rk := 0; rk < R; rk++ {
			d := doms[rk]
			off := rk * S * exy
			for i := range d.E {
				if d.E[i] != ref.E[off+i] {
					t.Fatalf("%s: rank %d E[%d] = %v, want %v", mode, rk, i, d.E[i], ref.E[off+i])
				}
				if d.V[i] != ref.V[off+i] {
					t.Fatalf("%s: rank %d V[%d] mismatch", mode, rk, i)
				}
			}
			if d.Dt != ref.Dt {
				t.Fatalf("%s: rank %d dt %v vs %v", mode, rk, d.Dt, ref.Dt)
			}
			// Interior nodal velocities (excluding shared layers is
			// unnecessary: shared layers should agree exactly too).
			nxy := (S + 1) * (S + 1)
			noff := rk * S * nxy
			for i := range d.XD {
				if d.XD[i] != ref.XD[noff+i] {
					t.Fatalf("%s: rank %d XD[%d] = %v, want %v", mode, rk, i, d.XD[i], ref.XD[noff+i])
				}
			}
		}
	}
}

func TestMinimizeDepsReducesEdges(t *testing.T) {
	p := Params{S: 5, Iters: 3, Ranks: 1}
	run := func(min bool) graph.Stats {
		d, _ := NewDomain(p)
		r := newRuntime(t, rt.Config{Workers: 2, Opts: graph.OptDedup})
		if err := RunTask(d, r, nil, TaskConfig{TPL: 5, MinimizeDeps: min}); err != nil {
			t.Fatal(err)
		}
		st := r.Graph().Stats()
		r.Close()
		return st
	}
	plain := run(false)
	minimized := run(true)
	if minimized.EdgesAttempted >= plain.EdgesAttempted {
		t.Fatalf("optimization (a) did not reduce attempted edges: %d vs %d",
			minimized.EdgesAttempted, plain.EdgesAttempted)
	}
}

func TestChunksCoveringInvertsChunkBounds(t *testing.T) {
	for _, n := range []int{10, 97, 1000} {
		for _, tpl := range []int{1, 3, 7, 10} {
			for c := 0; c < tpl; c++ {
				lo, hi := chunkBounds(n, tpl, c)
				if hi <= lo {
					continue
				}
				c0, c1 := chunksCovering(n, tpl, lo, hi)
				if c0 > c || c1 < c {
					t.Fatalf("n=%d tpl=%d chunk %d [%d,%d) not covered by [%d,%d]",
						n, tpl, c, lo, hi, c0, c1)
				}
			}
			// Full range covers all chunks.
			c0, c1 := chunksCovering(n, tpl, 0, n)
			if c0 != 0 || c1 != tpl-1 {
				t.Fatalf("full range coverage [%d,%d] for tpl=%d", c0, c1, tpl)
			}
		}
	}
}

func TestPersistentGraphSmallerDiscovery(t *testing.T) {
	p := Params{S: 5, Iters: 6, Ranks: 1}
	run := func(persistent bool) graph.Stats {
		d, _ := NewDomain(p)
		r := newRuntime(t, rt.Config{Workers: 2, Opts: graph.OptAll})
		if err := RunTask(d, r, nil, TaskConfig{TPL: 5, Persistent: persistent, MinimizeDeps: true}); err != nil {
			t.Fatal(err)
		}
		st := r.Graph().Stats()
		r.Close()
		return st
	}
	plain := run(false)
	pers := run(true)
	// Persistent mode discovers each task once and replays it.
	if pers.Tasks >= plain.Tasks {
		t.Fatalf("persistent tasks %d vs plain %d", pers.Tasks, plain.Tasks)
	}
	if pers.ReplayedTasks == 0 {
		t.Fatalf("no replays recorded")
	}
}

func BenchmarkSerialStep(b *testing.B) {
	d, _ := NewDomain(Params{S: 16, Iters: 1, Ranks: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Step()
	}
}

func BenchmarkTaskStep(b *testing.B) {
	d, _ := NewDomain(Params{S: 16, Iters: 1, Ranks: 1})
	r := newRuntime(b, rt.Config{Workers: 4, Opts: graph.OptAll})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.P.Iters = 1
		if err := RunTask(d, r, nil, TaskConfig{TPL: 8, MinimizeDeps: true}); err != nil {
			b.Fatal(err)
		}
	}
	r.Close()
}
