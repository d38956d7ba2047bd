package rt

// Failure-domain tests: task errors, panic recovery, poison cones,
// abort propagation, detached-task cancellation and deterministic
// fault injection — race-detector clean.

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"taskdep/internal/fault"
	"taskdep/internal/graph"
	"taskdep/internal/trace"
)

// waitGoroutines polls until the goroutine count settles back to (near)
// before; worker exit is asynchronous after Close returns.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+1 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDoErrorPoisonsCone is the core contract: a failed task aborts,
// its successor cone is skipped without running, everything outside the
// cone completes, Taskwait names the task, Close is clean and the
// workers are gone.
func TestDoErrorPoisonsCone(t *testing.T) {
	t.Run("lockfree", func(t *testing.T) {
		before := runtime.NumGoroutine()
		planted := errors.New("planted")
		r := newRuntime(t, Config{Workers: 4})
		var coneRan, freeRan atomic.Int64
		r.Submit(Spec{
			Label: "head",
			Out:   []graph.Key{1},
			Do:    func(any) error { return planted },
		})
		const depth = 50
		for i := 0; i < depth; i++ {
			r.Submit(Spec{InOut: []graph.Key{1}, Body: func(any) { coneRan.Add(1) }})
		}
		for i := 0; i < depth; i++ {
			r.Submit(Spec{InOut: []graph.Key{2}, Body: func(any) { freeRan.Add(1) }})
		}
		err := r.Taskwait()
		var te *fault.TaskError
		if !errors.As(err, &te) {
			t.Fatalf("Taskwait = %v, want *fault.TaskError", err)
		}
		if te.Label != "head" {
			t.Fatalf("failed label %q, want head", te.Label)
		}
		if !errors.Is(err, planted) {
			t.Fatalf("cause not reachable via errors.Is: %v", err)
		}
		if len(te.Keys) != 1 || te.Keys[0].Key != 1 || te.Keys[0].Type != graph.Out {
			t.Fatalf("declared keys not carried: %+v", te.Keys)
		}
		if got := coneRan.Load(); got != 0 {
			t.Fatalf("%d poisoned bodies ran", got)
		}
		if got := freeRan.Load(); got != depth {
			t.Fatalf("out-of-cone ran %d/%d", got, depth)
		}
		if cerr := r.Close(); cerr != nil {
			t.Fatalf("Close after handled failure: %v", cerr)
		}
		waitGoroutines(t, before)
	})
}

// TestPanicRecoveredAsTaskError: a panicking body surfaces as a
// *fault.PanicError cause with the panic-site stack attached.
func TestPanicRecoveredAsTaskError(t *testing.T) {
	t.Run("lockfree", func(t *testing.T) {
		r := newRuntime(t, Config{Workers: 2})
		defer r.Close()
		r.Submit(Spec{Label: "boom", Body: func(any) { panic("kaput") }})
		err := r.Taskwait()
		var te *fault.TaskError
		if !errors.As(err, &te) || te.Label != "boom" {
			t.Fatalf("Taskwait = %v", err)
		}
		var pe *fault.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("cause is not a *fault.PanicError: %v", te.Cause)
		}
		if pe.Value != "kaput" {
			t.Fatalf("panic value %v", pe.Value)
		}
		if len(pe.Stack) == 0 || len(te.Stack) == 0 {
			t.Fatalf("panic stack not captured")
		}
	})
}

// TestSiblingFailuresJoined: several independent failures in one wait
// window surface as one primary TaskError whose Siblings join reaches
// the others through errors.Is.
func TestSiblingFailuresJoined(t *testing.T) {
	r := newRuntime(t, Config{Workers: 4})
	defer r.Close()
	errA, errB := errors.New("a"), errors.New("b")
	r.Submit(Spec{Label: "fa", Out: []graph.Key{1}, Do: func(any) error { return errA }})
	r.Submit(Spec{Label: "fb", Out: []graph.Key{2}, Do: func(any) error { return errB }})
	err := r.Taskwait()
	var te *fault.TaskError
	if !errors.As(err, &te) {
		t.Fatalf("Taskwait = %v", err)
	}
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("not all causes reachable: %v", err)
	}
	if te.Siblings == nil {
		t.Fatalf("Siblings nil with two failures")
	}
}

// TestRuntimeReusableAfterFailure: Taskwait consumes the failure window
// — the same runtime then runs new work cleanly, including successors
// on the previously poisoned key.
func TestRuntimeReusableAfterFailure(t *testing.T) {
	t.Run("lockfree", func(t *testing.T) {
		r := newRuntime(t, Config{Workers: 2})
		defer r.Close()
		r.Submit(Spec{Label: "bad", Out: []graph.Key{1}, Do: func(any) error { return errors.New("x") }})
		if err := r.Taskwait(); err == nil {
			t.Fatalf("first Taskwait must fail")
		}
		var ran atomic.Bool
		r.Submit(Spec{Label: "good", InOut: []graph.Key{1}, Body: func(any) { ran.Store(true) }})
		if err := r.Taskwait(); err != nil {
			t.Fatalf("second Taskwait = %v, want nil", err)
		}
		if !ran.Load() {
			t.Fatalf("post-failure task did not run")
		}
	})
}

// TestCloseSurfacesFailure: an unconsumed failure comes out of Close.
func TestCloseSurfacesFailure(t *testing.T) {
	r := newRuntime(t, Config{Workers: 2})
	r.Submit(Spec{Label: "bad", Do: func(any) error { return errors.New("x") }})
	err := r.Close()
	var te *fault.TaskError
	if !errors.As(err, &te) || te.Label != "bad" {
		t.Fatalf("Close = %v, want the task failure", err)
	}
}

// TestAbortCancelsFrontier: Abort fails the window with the given
// cause; the stream drains, pending work is skipped, and the runtime
// reports Aborted until the next wait.
func TestAbortCancelsFrontier(t *testing.T) {
	t.Run("lockfree", func(t *testing.T) {
		r := newRuntime(t, Config{Workers: 4})
		defer r.Close()
		cause := errors.New("operator abort")
		var ran atomic.Int64
		gate := make(chan struct{})
		r.Submit(Spec{Label: "gate", Body: func(any) { <-gate }})
		for i := 0; i < 100; i++ {
			r.Submit(Spec{InOut: []graph.Key{7}, Body: func(any) { ran.Add(1) }})
		}
		r.Abort(cause)
		if !r.Aborted() {
			t.Fatalf("Aborted() false after Abort")
		}
		close(gate)
		err := r.Taskwait()
		if !errors.Is(err, cause) {
			t.Fatalf("Taskwait = %v, want the abort cause", err)
		}
		if r.Aborted() {
			t.Fatalf("abort flag not consumed by Taskwait")
		}
	})
}

// TestAbortNilUsesErrAborted: Abort(nil) installs the sentinel.
func TestAbortNilUsesErrAborted(t *testing.T) {
	r := newRuntime(t, Config{Workers: 1})
	defer r.Close()
	r.Abort(nil)
	if err := r.Taskwait(); !errors.Is(err, fault.ErrAborted) {
		t.Fatalf("Taskwait = %v, want ErrAborted", err)
	}
}

// TestAbortClaimsArmedDetachedTask: a detached task whose body returned
// without fulfilling its event would normally wait forever for an
// external Fulfill; Abort must claim it so the window drains.
func TestAbortClaimsArmedDetachedTask(t *testing.T) {
	t.Run("lockfree", func(t *testing.T) {
		r := newRuntime(t, Config{Workers: 2})
		defer r.Close()
		armed := make(chan struct{})
		r.Submit(Spec{
			Label:    "detached",
			Detached: true,
			DetachedBody: func(_ any, ev *Event) {
				close(armed) // never Fulfilled: simulates a lost completion
			},
		})
		<-armed
		r.Abort(errors.New("give up"))
		done := make(chan error, 1)
		go func() { done <- r.Taskwait() }()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("Taskwait nil after abort")
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Taskwait wedged: abort did not claim the detached task")
		}
	})
}

// TestFulfillAfterAbortIsLost: if Abort claims the event first, a late
// Fulfill must be a harmless no-op (exactly-once completion).
func TestFulfillAfterAbortIsLost(t *testing.T) {
	r := newRuntime(t, Config{Workers: 2})
	defer r.Close()
	var ev atomic.Pointer[Event]
	armed := make(chan struct{})
	r.Submit(Spec{
		Label:    "detached",
		Detached: true,
		DetachedBody: func(_ any, e *Event) {
			ev.Store(e)
			close(armed)
		},
	})
	<-armed
	r.Abort(nil)
	if err := r.Taskwait(); err == nil {
		t.Fatalf("Taskwait nil after abort")
	}
	ev.Load().Fulfill() // late external completion: must not panic or double-complete
	if err := r.Taskwait(); err != nil {
		t.Fatalf("Taskwait after late Fulfill = %v", err)
	}
}

// TestPersistentIterationFailure: a failure inside a persistent window
// ends the region at that iteration's barrier with the task error, and
// the runtime remains usable.
func TestPersistentIterationFailure(t *testing.T) {
	t.Run("lockfree", func(t *testing.T) {
		r := newRuntime(t, Config{Workers: 2})
		defer r.Close()
		var runs atomic.Int64
		failAt := errors.New("iteration 2 failure")
		err := r.Persistent(5, func(iter int) {
			r.Submit(Spec{
				Label: "step",
				InOut: []graph.Key{1},
				Do: func(any) error {
					runs.Add(1)
					if iter == 2 {
						return failAt
					}
					return nil
				},
			})
		})
		if !errors.Is(err, failAt) {
			t.Fatalf("Persistent = %v, want iteration failure", err)
		}
		var te *fault.TaskError
		if !errors.As(err, &te) || te.Label != "step" {
			t.Fatalf("failure does not name the task: %v", err)
		}
		if got := runs.Load(); got != 3 {
			t.Fatalf("ran %d iterations, want 3 (0,1,2)", got)
		}
		// The region ended; fresh non-persistent work still runs.
		var ok atomic.Bool
		r.Submit(Spec{Body: func(any) { ok.Store(true) }})
		if err := r.Taskwait(); err != nil {
			t.Fatalf("post-failure Taskwait = %v", err)
		}
		if !ok.Load() {
			t.Fatalf("post-failure task did not run")
		}
	})
}

// TestInjectDeterministicVictim: with one worker the execution order is
// the graph order, so a seeded Inject fails the same task every run.
func TestInjectDeterministicVictim(t *testing.T) {
	victim := func(seed int64) string {
		inj := &fault.Inject{Every: 8, Seed: seed, Mode: fault.Error}
		r := newRuntime(t, Config{Workers: 1, Inject: inj})
		defer r.Close()
		for i := 0; i < 32; i++ {
			r.Submit(Spec{Label: fmt.Sprintf("t%d", i), InOut: []graph.Key{1}, Body: func(any) {}})
		}
		err := r.Taskwait()
		var te *fault.TaskError
		if !errors.As(err, &te) {
			t.Fatalf("no injected failure surfaced: %v", err)
		}
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("cause is not ErrInjected: %v", err)
		}
		return te.Label
	}
	a1, a2 := victim(1), victim(1)
	if a1 != a2 {
		t.Fatalf("same seed failed %q then %q", a1, a2)
	}
	if b := victim(99); b == a1 {
		t.Logf("seeds 1 and 99 chose the same victim %q (possible, just unlikely)", b)
	}
}

// TestNewRuntimeValidation: NewRuntime reports bad configurations as
// errors.
func TestNewRuntimeValidation(t *testing.T) {
	bad := []Config{
		{Workers: -1},
		{ThrottleReady: -2},
		{ThrottleTotal: -2},
		{Policy: 99},
		{Verify: 99},
		{Workers: 2, Profile: trace.New(2, false)}, // needs Workers+1 slots
		{Inject: &fault.Inject{Every: -1}},
	}
	for i, cfg := range bad {
		if _, err := NewRuntime(cfg); err == nil {
			t.Errorf("config %d: NewRuntime accepted %+v", i, cfg)
		}
	}
	r, err := NewRuntime(Config{Workers: 2})
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	r.Close()
}
