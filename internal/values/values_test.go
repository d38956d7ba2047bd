package values

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"taskdep/internal/fault"
	"taskdep/internal/graph"
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

func TestBindInternAndKeys(t *testing.T) {
	s := NewStoreAt(1000)
	a := s.Bind("a")
	b := s.Bind("b")
	a2 := s.Bind("a")
	if a != a2 {
		t.Fatalf("re-bind of %q returned a different handle", "a")
	}
	if a.GraphKey() != 1000 || b.GraphKey() != 1001 {
		t.Fatalf("keys = %d, %d; want 1000, 1001", a.GraphKey(), b.GraphKey())
	}
	if a.Name() != "a" || b.Name() != "b" {
		t.Fatalf("names = %q, %q", a.Name(), b.Name())
	}
	if got := s.Names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Names() = %v", got)
	}
	if s.Len() != 2 {
		t.Fatalf("Len() = %d", s.Len())
	}
	if h, ok := s.Lookup("b"); !ok || h != b {
		t.Fatalf("Lookup(b) = %v, %v", h, ok)
	}
	if _, ok := s.Lookup("zzz"); ok {
		t.Fatal("Lookup of unbound name succeeded")
	}
}

func TestTypedGetSet(t *testing.T) {
	s := NewStore()
	x := Bind[float64](s, "x")
	msg := Bind[string](s, "msg")
	x.Set(3.5)
	msg.Set("hi")
	if got := x.Get(); got != 3.5 {
		t.Fatalf("x = %v", got)
	}
	if got, ok := msg.GetOK(); !ok || got != "hi" {
		t.Fatalf("msg = %q, %v", got, ok)
	}
	// Type mismatch reads as zero, GetOK reports it.
	wrong := Bind[int](s, "x")
	if v, ok := wrong.GetOK(); ok || v != 0 {
		t.Fatalf("mismatched GetOK = %v, %v", v, ok)
	}
	// Unset slot.
	y := Bind[float64](s, "y")
	if v, ok := y.GetOK(); ok || v != 0 {
		t.Fatalf("unset GetOK = %v, %v", v, ok)
	}
}

func TestChunkGrowthKeepsOldSlots(t *testing.T) {
	s := NewStore()
	first := Bind[int](s, "k0")
	first.Set(41)
	// Force several chunk allocations.
	for i := 1; i < 5*chunkSize; i++ {
		Bind[int](s, fmt.Sprintf("k%d", i)).Set(i)
	}
	if got := first.Get(); got != 41 {
		t.Fatalf("slot 0 after growth = %d", got)
	}
	probe := Bind[int](s, fmt.Sprintf("k%d", 3*chunkSize+7))
	if got := probe.Get(); got != 3*chunkSize+7 {
		t.Fatalf("mid slot after growth = %d", got)
	}
}

// Concurrent binds racing slot accesses on already-bound handles: the
// chunk arrays never move, so -race must stay quiet.
func TestConcurrentBindAndAccess(t *testing.T) {
	s := NewStore()
	stable := Bind[int](s, "stable")
	stable.Set(7)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h := Bind[int](s, fmt.Sprintf("g%d-%d", g, i))
				h.Set(i)
				if h.Get() != i {
					t.Errorf("goroutine-local slot read back wrong")
					return
				}
				if stable.Get() != 7 {
					t.Errorf("stable slot corrupted during growth")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestLowerMapsBindings(t *testing.T) {
	s := NewStoreAt(500)
	a, b, c := s.Bind("a"), s.Bind("b"), s.Bind("c")
	sp := Spec{
		Label:   "t",
		Consume: []Handle{a},
		Provide: []Handle{b},
		Update:  []Handle{c},
		Do:      func() error { return nil },
	}
	low := Lower(sp)
	if low.Label != "t" || low.Do == nil {
		t.Fatalf("lowered label/body wrong: %+v", low)
	}
	if len(low.In) != 1 || low.In[0] != 500 {
		t.Fatalf("In = %v", low.In)
	}
	if len(low.Out) != 1 || low.Out[0] != 501 {
		t.Fatalf("Out = %v", low.Out)
	}
	if len(low.InOut) != 1 || low.InOut[0] != 502 {
		t.Fatalf("InOut = %v", low.InOut)
	}
}

func TestBinderReusesBuffer(t *testing.T) {
	s := NewStore()
	a, b := s.Bind("a"), s.Bind("b")
	var bd Binder
	sp := Spec{Label: "t", Consume: []Handle{a}, Provide: []Handle{b}, Do: func() error { return nil }}
	low := bd.Lower(sp)
	if len(low.In) != 1 || len(low.Out) != 1 {
		t.Fatalf("first lower: %+v", low)
	}
	// Steady state: no per-Lower key allocations (the binding slices
	// are hoisted, as a submission loop naturally does).
	consume, provide := []Handle{a}, []Handle{b}
	allocs := testing.AllocsPerRun(100, func() {
		_ = bd.Lower(Spec{Label: "t", Consume: consume, Provide: provide})
	})
	if allocs > 0 {
		t.Fatalf("Binder.Lower allocates %.1f/op without a body; want 0", allocs)
	}
}

func TestValidate(t *testing.T) {
	s := NewStore()
	a := s.Bind("a")
	good := Spec{Label: "ok", Provide: []Handle{a}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := Spec{Label: "bad", Consume: []Handle{{}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("unbound handle accepted")
	}
}

// End-to-end: a provide/consume diamond runs on the runtime, ordered
// purely by value bindings, and the consumer observes provided values.
func TestDataflowEndToEnd(t *testing.T) {
	r := newRuntime(t, rt.Config{Workers: 2})
	defer r.Close()
	s := NewStore()
	x := Bind[float64](s, "x")
	y := Bind[float64](s, "y")
	z := Bind[float64](s, "z")
	sum := Bind[float64](s, "sum")

	r.Submit(Lower(Spec{Label: "srcx", Provide: []Handle{x.Ref()}, Do: func() error { x.Set(2); return nil }}))
	r.Submit(Lower(Spec{Label: "dbl", Consume: []Handle{x.Ref()}, Provide: []Handle{y.Ref()},
		Do: func() error { y.Set(2 * x.Get()); return nil }}))
	r.Submit(Lower(Spec{Label: "sqr", Consume: []Handle{x.Ref()}, Provide: []Handle{z.Ref()},
		Do: func() error { z.Set(x.Get() * x.Get()); return nil }}))
	r.Submit(Lower(Spec{Label: "add", Consume: []Handle{y.Ref(), z.Ref()}, Provide: []Handle{sum.Ref()},
		Do: func() error { sum.Set(y.Get() + z.Get()); return nil }}))
	if err := r.Taskwait(); err != nil {
		t.Fatal(err)
	}
	if got := sum.Get(); got != 8 {
		t.Fatalf("sum = %v, want 8", got)
	}
}

// A failing provider poisons its consumers: the cone is skipped, the
// error surfaces from Taskwait, and disjoint dataflow completes.
func TestProviderFailurePoisonsConsumers(t *testing.T) {
	r := newRuntime(t, rt.Config{Workers: 2})
	defer r.Close()
	s := NewStore()
	x := Bind[int](s, "x")
	y := Bind[int](s, "y")
	other := Bind[int](s, "other")
	ran := false
	boom := errors.New("boom")
	r.Submit(Lower(Spec{Label: "badsrc", Provide: []Handle{x.Ref()}, Do: func() error { return boom }}))
	r.Submit(Lower(Spec{Label: "use", Consume: []Handle{x.Ref()}, Provide: []Handle{y.Ref()},
		Do: func() error { ran = true; return nil }}))
	r.Submit(Lower(Spec{Label: "disjoint", Provide: []Handle{other.Ref()},
		Do: func() error { other.Set(5); return nil }}))
	err := r.Taskwait()
	var te *fault.TaskError
	if !errors.As(err, &te) || te.Label != "badsrc" || !errors.Is(te.Cause, boom) {
		t.Fatalf("Taskwait = %v; want TaskError{badsrc, boom}", err)
	}
	if ran {
		t.Fatal("consumer of a failed provider ran")
	}
	if other.Get() != 5 {
		t.Fatal("disjoint provider did not run")
	}
}

// Value graphs replay through Persistent, including the compiled
// Frozen path: slot values recompute every iteration.
func TestPersistentFrozenReplay(t *testing.T) {
	r := newRuntime(t, rt.Config{Workers: 2})
	defer r.Close()
	s := NewStore()
	in := Bind[int](s, "in")
	out := Bind[int](s, "out")
	iter := 0
	in.Set(1)
	var results []int
	err := r.Persistent(4, func(int) {
		r.Submit(Lower(Spec{Label: "step", Consume: []Handle{in.Ref()}, Provide: []Handle{out.Ref()},
			Do: func() error { out.Set(in.Get() * 10); return nil }}))
		r.Submit(Lower(Spec{Label: "fold", Consume: []Handle{out.Ref()}, Update: []Handle{in.Ref()},
			Do: func() error { in.Set(in.Get() + 1); results = append(results, out.Get()); iter++; return nil }}))
	}, rt.Frozen())
	if err != nil {
		t.Fatal(err)
	}
	want := []int{10, 20, 30, 40}
	if len(results) != len(want) {
		t.Fatalf("results = %v, want %v", results, want)
	}
	for i := range want {
		if results[i] != want[i] {
			t.Fatalf("results = %v, want %v", results, want)
		}
	}
	// The frozen region really compiled: the replay counter moved.
	if iter != 4 {
		t.Fatalf("iterations = %d", iter)
	}
}

// TestBindCopiesTheName: the store outlives whatever its names were cut
// from (tdgserve cuts them from request bodies of up to 4 MiB), so Bind
// keeps a copy: once the caller drops the parent string nothing the
// store holds — name list or map key — keeps it alive.
func TestBindCopiesTheName(t *testing.T) {
	buf := make([]byte, 4<<20)
	copy(buf[len(buf)-4:], "slot")
	freed := make(chan struct{})
	runtime.SetFinalizer(&buf[0], func(*byte) { close(freed) })
	parent := unsafe.String(&buf[0], len(buf))

	s := NewStore()
	h := s.Bind(parent[len(parent)-4:])
	name := s.Names()[0]
	if p, lo := uintptr(unsafe.Pointer(unsafe.StringData(name))), uintptr(unsafe.Pointer(&buf[0])); name != "slot" || lo <= p && p < lo+uintptr(len(buf)) {
		t.Fatalf("store's name %q shares the caller's backing array", name)
	}
	buf, parent = nil, ""
	for i := 0; ; i++ {
		runtime.GC()
		select {
		case <-freed:
		case <-time.After(10 * time.Millisecond):
			if i < 100 {
				continue
			}
			t.Fatal("the parent string is still reachable a second after its last use: the store pins it")
		}
		break
	}
	if again, ok := s.Lookup("slot"); !ok || again != h || h.Name() != "slot" {
		t.Fatalf("binding lost: %v %v", again, ok)
	}
}

func TestResetKeepsBindings(t *testing.T) {
	s := NewStore()
	x := Bind[int](s, "x")
	x.Set(9)
	s.Reset()
	if v, ok := x.GetOK(); ok || v != 0 {
		t.Fatalf("after Reset: %v, %v", v, ok)
	}
	if s.Len() != 1 {
		t.Fatal("Reset dropped bindings")
	}
	x2 := Bind[int](s, "x")
	if x2 != x {
		t.Fatal("binding changed across Reset")
	}
}

func TestDefaultBaseAboveIndexKeys(t *testing.T) {
	if DefaultBase <= graph.Key(1<<32) {
		t.Fatal("DefaultBase too low to clear index-derived keys")
	}
	runtime.KeepAlive(DefaultBase)
}

// TestSlotKindSwitches: a slot written by SetFloat, then by SetAny, then
// by SetFloat again reads as what was written last through every
// accessor, and a number written by SetAny is a number to Float.
func TestSlotKindSwitches(t *testing.T) {
	s := NewStore()
	h := s.Bind("x")
	typed := Of[float64]{h}
	check := func(step string, wantAny any, wantNum float64, isNum bool) {
		t.Helper()
		if got := h.Any(); got != wantAny {
			t.Fatalf("%s: Any() = %#v, want %#v", step, got, wantAny)
		}
		if x, ok := h.Float(); ok != isNum || x != wantNum {
			t.Fatalf("%s: Float() = %v, %v; want %v, %v", step, x, ok, wantNum, isNum)
		}
		if x, ok := typed.GetOK(); ok != isNum || x != wantNum {
			t.Fatalf("%s: GetOK() = %v, %v; want %v, %v", step, x, ok, wantNum, isNum)
		}
	}
	check("unset", nil, 0, false)
	h.SetFloat(2.5)
	check("SetFloat", 2.5, 2.5, true)
	h.SetAny("text")
	check("SetAny string", "text", 0, false)
	h.SetFloat(-0.0)
	check("SetFloat again", -0.0, 0, true)
	if c, i := h.at(); c.vals[i] != nil {
		t.Fatal("SetFloat kept the string the slot held before")
	}
	h.SetAny(7.0)
	check("SetAny number", 7.0, 7, true)
	h.SetAny(nil)
	check("SetAny nil", nil, 0, false)
	typed.Set(1.5)
	check("typed Set", 1.5, 1.5, true)
	// A neighbouring slot of the same chunk keeps its own kind.
	other := s.Bind("y")
	other.SetFloat(9)
	h.SetAny("again")
	if x, ok := other.Float(); !ok || x != 9 {
		t.Fatalf("neighbour reads %v, %v", x, ok)
	}
}

// TestResetClearsKinds: Reset leaves no slot reading as a number, so a
// later request cannot see a stale one through Float.
func TestResetClearsKinds(t *testing.T) {
	s := NewStore()
	var hs []Handle
	for i := 0; i < 3*chunkSize; i++ {
		h := s.Bind(fmt.Sprintf("k%d", i))
		if i%2 == 0 {
			h.SetFloat(float64(i))
		} else {
			h.SetAny(fmt.Sprint(i))
		}
		hs = append(hs, h)
	}
	s.Reset()
	for i, h := range hs {
		if x, ok := h.Float(); ok {
			t.Fatalf("slot %d reads %v after Reset", i, x)
		}
		if v := h.Any(); v != nil {
			t.Fatalf("slot %d holds %#v after Reset", i, v)
		}
	}
}

// TestFloatAccessAllocatesNothing: SetFloat and Float neither allocate
// nor box; only Any of a number does, when something asks for the value.
func TestFloatAccessAllocatesNothing(t *testing.T) {
	s := NewStore()
	h := s.Bind("x")
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		h.SetFloat(sink + 1.25)
		x, _ := h.Float()
		sink = x
	}); n != 0 {
		t.Fatalf("SetFloat+Float allocate %.0f times", n)
	}
}

// TestFloatSlotsOrderedByDependences: tasks pass numbers through
// unboxed slots, every access ordered by a dependence only — a chain of
// updates, a fan-out and a fold over slots of one chunk written by
// concurrent tasks. Run it under -race: the kind bytes of neighbouring
// slots are written concurrently.
func TestFloatSlotsOrderedByDependences(t *testing.T) {
	r := newRuntime(t, rt.Config{Workers: 4})
	defer r.Close()
	s := NewStore()
	const width, rounds = 48, 20
	src := s.Bind("src")
	lanes := make([]Handle, width)
	for i := range lanes {
		lanes[i] = s.Bind(fmt.Sprintf("lane%d", i))
	}
	total := s.Bind("total")
	for round := 0; round < rounds; round++ {
		round := round
		r.Submit(Lower(Spec{Label: "src", Provide: []Handle{src}, Do: func() error {
			if round%3 == 2 {
				src.SetAny(float64(round)) // a boxed number reads as one too
			} else {
				src.SetFloat(float64(round))
			}
			return nil
		}}))
		for i, lane := range lanes {
			i, lane := i, lane
			r.Submit(Lower(Spec{Label: "lane", Consume: []Handle{src}, Provide: []Handle{lane}, Do: func() error {
				x, ok := src.Float()
				if !ok {
					return fmt.Errorf("src is %#v", src.Any())
				}
				lane.SetFloat(x * float64(i))
				return nil
			}}))
			r.Submit(Lower(Spec{Label: "bump", Update: []Handle{lane}, Do: func() error {
				x, ok := lane.Float()
				if !ok {
					return fmt.Errorf("lane is %#v", lane.Any())
				}
				lane.SetFloat(x + 1)
				return nil
			}}))
		}
		r.Submit(Lower(Spec{Label: "fold", Consume: lanes, Provide: []Handle{total}, Do: func() error {
			var sum float64
			for _, lane := range lanes {
				x, ok := lane.Float()
				if !ok {
					return fmt.Errorf("lane is %#v", lane.Any())
				}
				sum += x
			}
			total.SetFloat(sum)
			return nil
		}}))
		if err := r.Taskwait(); err != nil {
			t.Fatal(err)
		}
		if got, want := total.Any(), float64(round*width*(width-1)/2+width); got != want {
			t.Fatalf("round %d: total = %v, want %v", round, got, want)
		}
	}
}
