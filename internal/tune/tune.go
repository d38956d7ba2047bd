package tune

import (
	"fmt"
	"time"

	"taskdep/internal/obs"
)

// Options configures the self-tuning control loop. The zero value
// disables it; set Enable to turn it on with defaults.
type Options struct {
	// Enable turns the control loop on.
	Enable bool
	// Interval is the snapshot/decision period. Default 1ms. The loop
	// is deliberately low-frequency: each tick costs two merged counter
	// reads and a handful of atomic knob writes.
	Interval time.Duration
	// NoThrottle and NoWake disable one actuator while keeping the other
	// running.
	NoThrottle bool
	NoWake     bool
}

// Validate reports a descriptive error for out-of-range option values.
func (o *Options) Validate() error {
	if o.Interval < 0 {
		return fmt.Errorf("tune: Interval is %v; want >= 0 (0 selects the default of %v)", o.Interval, defaultInterval)
	}
	return nil
}

const (
	defaultInterval = time.Millisecond

	// throttleCap bounds how far the throttle actuator may widen a
	// configured window (the user's nonzero config expresses intent to
	// bound memory; the cap keeps "wider" from becoming "unbounded").
	throttleCap = int64(1) << 20
)

// Target is the actuator surface the tuner drives, expressed as
// closures so tune depends only on obs. rt wires it to the runtime,
// scheduler and graph; tests wire it to counters.
type Target struct {
	// Obs is the registry snapshotted each tick.
	Obs *obs.Registry
	// Workers is the pool width, the scale for depth/churn thresholds.
	Workers int

	// Pending reads the current queue depth.
	Pending func() int

	// Throttle/SetThrottle read and resize the producer throttle
	// windows (ready, total; 0 = that window unbounded).
	Throttle    func() (ready, total int64)
	SetThrottle func(ready, total int64)

	// WakePolicy/SetWakePolicy read and set the scheduler's wake
	// fanout and rotating-hint stride.
	WakePolicy    func() (fanout, stride int)
	SetWakePolicy func(fanout, stride int)
}

// Tuner is the closed-loop adaptation engine: it snapshots windowed
// deltas from the metrics registry on a low-frequency ticker and
// nudges its two actuators (throttle windows, wake policy) against
// the detrimental patterns the deltas reveal. All actuator writes are
// single atomic knobs on the hot paths they steer, so the loop can run
// while workers execute at full speed.
type Tuner struct {
	t   Target
	opt Options

	win  *obs.Window
	stop chan struct{}
	done chan struct{}

	// baseReady/baseTotal anchor the throttle actuator: windows decay
	// back toward the configured values once pressure subsides, and
	// a window the user disabled (0) is never invented.
	baseReady, baseTotal int64
}

// New creates a tuner for the given target. Call Start to run the
// control loop; Step may instead be driven directly (tests, DES).
func New(t Target, o Options) *Tuner {
	if o.Interval <= 0 {
		o.Interval = defaultInterval
	}
	tn := &Tuner{
		t:    t,
		opt:  o,
		win:  t.Obs.NewWindow(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if t.Throttle != nil {
		tn.baseReady, tn.baseTotal = t.Throttle()
	}
	return tn
}

// Start launches the control-loop goroutine.
func (tn *Tuner) Start() {
	go tn.loop()
}

// Stop terminates the control loop and joins it. The actuator knobs
// keep their last values (quiescing the loop never changes behavior
// mid-flight); it is safe to call once, after Start.
func (tn *Tuner) Stop() {
	close(tn.stop)
	<-tn.done
}

func (tn *Tuner) loop() {
	defer close(tn.done)
	ticker := time.NewTicker(tn.opt.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-tn.stop:
			return
		case <-ticker.C:
			tn.Step(tn.win.Advance())
		}
	}
}

// Step runs one control decision against a windowed delta. Exported so
// tests (and simulators) can drive the loop deterministically without
// the ticker.
func (tn *Tuner) Step(d obs.Delta) {
	exec := d.Counters[obs.CTasksExecuted]
	if exec == 0 {
		return // idle window: no evidence, hold every knob
	}
	tn.throttleStep(d)
	tn.wakeStep(d, exec)
}

// throttleStep resizes the producer throttle windows from the observed
// stall-vs-depth tradeoff: a producer stalling at a window while the
// pool runs shallow means the window — not the machine — is the
// bottleneck, so it widens geometrically (up to throttleCap); once
// stalls cease and depth is ample, widened windows decay back toward
// the configured base. Windows the user disabled (0) are never
// invented, so throttling cannot appear where it was not configured.
func (tn *Tuner) throttleStep(d obs.Delta) {
	if tn.opt.NoThrottle || tn.t.Throttle == nil {
		return
	}
	rdy, tot := tn.t.Throttle()
	if rdy == 0 && tot == 0 {
		return // throttling off by config: not ours to enable
	}
	stalls := d.Counters[obs.CThrottleStalls]
	depth := int64(tn.t.Pending())
	w := int64(tn.t.Workers)
	// Widening is fast-attack (×4 per tick), decay slow-release (÷2):
	// a stalled producer loses throughput every window it stays tight,
	// and ticks can be sparse on a saturated machine, while an
	// over-widened window costs only bounded memory until decay.
	widen := func(v int64) int64 {
		if v == 0 {
			return 0
		}
		if v *= 4; v > throttleCap {
			return throttleCap
		}
		return v
	}
	halveFloor := func(v, floor int64) int64 {
		if v <= floor {
			return v
		}
		if v /= 2; v < floor {
			return floor
		}
		return v
	}
	switch {
	case stalls > 0 && depth < 2*w:
		// Stalling while the pool is starved for depth: widen.
		nr, nt := widen(rdy), widen(tot)
		if nr != rdy || nt != tot {
			tn.t.SetThrottle(nr, nt)
			tn.t.Obs.Add(obs.CTuneThrottle, 1)
		}
	case stalls == 0 && depth > 4*w:
		// No pressure and deep queues: decay toward the configured
		// base so a widened window does not hold memory forever.
		nr, nt := halveFloor(rdy, tn.baseReady), halveFloor(tot, tn.baseTotal)
		if nr != rdy || nt != tot {
			tn.t.SetThrottle(nr, nt)
			tn.t.Obs.Add(obs.CTuneThrottle, 1)
		}
	}
}

// wakeStep steers the scheduler's wake fanout against measured
// park/wake churn: workers cycling through park while work keeps
// arriving means the wake-one cascade ramps slower than the frontier
// widens (starvation waves), so each wake is allowed to recruit more
// of the pool at once; when churn subsides the policy decays back to
// wake-one, which is cheaper at steady state.
func (tn *Tuner) wakeStep(d obs.Delta, exec int64) {
	if tn.opt.NoWake || tn.t.WakePolicy == nil {
		return
	}
	fan, _ := tn.t.WakePolicy()
	churn := d.Counters[obs.CParks]
	w := int64(tn.t.Workers)
	if w < 1 {
		w = 1
	}
	switch {
	case churn > 2*w:
		// Every worker parks more than twice per tick while tasks still
		// execute: wavy supply. Widen the fanout geometrically and
		// spread the rotating hint so consecutive wakes hit distant
		// slots.
		if fan < tn.t.Workers {
			next := fan * 2
			if next > tn.t.Workers {
				next = tn.t.Workers
			}
			tn.t.SetWakePolicy(next, next/2+1)
			tn.t.Obs.Add(obs.CTuneWake, 1)
		}
	case churn < w/2 && fan > 1:
		// Churn subsided: decay toward wake-one.
		tn.t.SetWakePolicy(fan/2, fan/4+1)
		tn.t.Obs.Add(obs.CTuneWake, 1)
	}
}
