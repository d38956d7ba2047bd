package tune

import (
	"testing"
	"time"

	"taskdep/internal/obs"
)

// harness is a Target over plain variables for deterministic Step tests.
type harness struct {
	workers            int
	pending            int
	thrReady, thrTotal int64
	fanout, stride     int
}

func (h *harness) target(r *obs.Registry) Target {
	return Target{
		Obs:      r,
		Workers:  h.workers,
		Pending:  func() int { return h.pending },
		Throttle: func() (int64, int64) { return h.thrReady, h.thrTotal },
		SetThrottle: func(r, t int64) {
			h.thrReady, h.thrTotal = r, t
		},
		WakePolicy:    func() (int, int) { return h.fanout, h.stride },
		SetWakePolicy: func(f, s int) { h.fanout, h.stride = f, s },
	}
}

func delta(exec int64) obs.Delta {
	var d obs.Delta
	d.Elapsed = time.Millisecond
	d.Counters[obs.CTasksExecuted] = exec
	return d
}

func TestValidate(t *testing.T) {
	bad := Options{Interval: -1}
	if bad.Validate() == nil {
		t.Fatal("negative Interval must fail validation")
	}
	ok := Options{}
	if err := ok.Validate(); err != nil {
		t.Fatalf("zero options: %v", err)
	}
}

// TestThrottleWidensOnStallsAndDecays: stalls with a shallow pool
// widen the windows ×4 per step (fast attack, capped); calm with deep
// queues decays them ÷2 back to the configured base, never below.
func TestThrottleWidensAndDecays(t *testing.T) {
	h := &harness{workers: 4, thrReady: 8, thrTotal: 16, pending: 0}
	r := obs.New(1, obs.Options{})
	tn := New(h.target(r), Options{Enable: true})

	d := delta(100)
	d.Counters[obs.CThrottleStalls] = 50
	tn.Step(d)
	if h.thrReady != 32 || h.thrTotal != 64 {
		t.Fatalf("windows after stall = (%d,%d), want (32,64)", h.thrReady, h.thrTotal)
	}
	tn.Step(d)
	if h.thrReady != 128 || h.thrTotal != 256 {
		t.Fatalf("windows after second stall = (%d,%d), want (128,256)", h.thrReady, h.thrTotal)
	}
	// Calm, deep queues: decay toward base (8,16) but not below.
	h.pending = 1000
	for i := 0; i < 10; i++ {
		tn.Step(delta(100))
	}
	if h.thrReady != 8 || h.thrTotal != 16 {
		t.Fatalf("windows after decay = (%d,%d), want (8,16)", h.thrReady, h.thrTotal)
	}
}

// TestThrottleNeverInvented: windows configured off stay off.
func TestThrottleNeverInvented(t *testing.T) {
	h := &harness{workers: 4}
	tn := New(h.target(obs.New(1, obs.Options{})), Options{Enable: true})
	d := delta(100)
	d.Counters[obs.CThrottleStalls] = 50
	tn.Step(d)
	if h.thrReady != 0 || h.thrTotal != 0 {
		t.Fatalf("tuner invented a throttle: (%d,%d)", h.thrReady, h.thrTotal)
	}
}

// TestThrottleCap: widening saturates at throttleCap.
func TestThrottleCap(t *testing.T) {
	h := &harness{workers: 1, thrReady: throttleCap - 1}
	tn := New(h.target(obs.New(1, obs.Options{})), Options{Enable: true})
	d := delta(10)
	d.Counters[obs.CThrottleStalls] = 5
	tn.Step(d)
	tn.Step(d)
	if h.thrReady != throttleCap {
		t.Fatalf("ready window = %d, want cap %d", h.thrReady, throttleCap)
	}
}

// TestWakeFanoutRampsOnChurnAndDecays.
func TestWakeFanoutRampsAndDecays(t *testing.T) {
	h := &harness{workers: 8, fanout: 1, stride: 1}
	r := obs.New(1, obs.Options{})
	tn := New(h.target(r), Options{Enable: true})

	d := delta(1000)
	d.Counters[obs.CParks] = 100 // > 2*workers: churn
	tn.Step(d)
	if h.fanout != 2 {
		t.Fatalf("fanout after churn = %d, want 2", h.fanout)
	}
	tn.Step(d)
	tn.Step(d)
	if h.fanout != 8 {
		t.Fatalf("fanout after ramp = %d, want 8", h.fanout)
	}
	// Churn gone: decay back toward 1.
	for i := 0; i < 4; i++ {
		tn.Step(delta(1000))
	}
	if h.fanout != 1 {
		t.Fatalf("fanout after decay = %d, want 1", h.fanout)
	}
}

// TestIdleWindowHoldsKnobs: a window with no executions changes nothing.
func TestIdleWindowHoldsKnobs(t *testing.T) {
	h := &harness{workers: 4, thrReady: 8, fanout: 2, stride: 1}
	tn := New(h.target(obs.New(1, obs.Options{})), Options{Enable: true})
	var d obs.Delta
	d.Counters[obs.CParks] = 1000
	d.Counters[obs.CThrottleStalls] = 1000
	tn.Step(d)
	if h.thrReady != 8 || h.fanout != 2 {
		t.Fatalf("idle window moved knobs: thrReady=%d fanout=%d", h.thrReady, h.fanout)
	}
}

// TestStartStopProbe: the loop runs and stops without ever opening a
// grain probe — nothing it steers reads the timing tier, so it stays
// off throughout.
func TestStartStopProbe(t *testing.T) {
	h := &harness{workers: 2}
	r := obs.New(1, obs.Options{})
	tn := New(h.target(r), Options{Enable: true, Interval: 100 * time.Microsecond})
	tn.Start()
	for deadline := time.Now().Add(5 * time.Millisecond); time.Now().Before(deadline); {
		if r.TimingOn() {
			tn.Stop()
			t.Fatal("tuner turned the timing tier on")
		}
	}
	tn.Stop()
}

// TestRespectsUserTiming: a user-enabled timing tier is never turned
// off by the probe cycle.
func TestRespectsUserTiming(t *testing.T) {
	h := &harness{workers: 2}
	r := obs.New(1, obs.Options{Spans: true})
	tn := New(h.target(r), Options{Enable: true, Interval: 100 * time.Microsecond})
	tn.Start()
	time.Sleep(5 * time.Millisecond)
	tn.Stop()
	if !r.TimingOn() {
		t.Fatal("tuner turned off a user-enabled timing tier")
	}
}
