// Package tune is the runtime's self-tuning control layer: a
// closed-loop adaptation engine that watches the always-on metrics of
// internal/obs and steers the scheduler live against the detrimental
// task patterns that collapse mainstream task runtimes — producer/
// consumer imbalance at a throttle window, and starvation waves whose
// frontiers outrun the wake-one cascade. Too-fine grains need no loop:
// the executor's depth-first hand-over keeps a finished task's first
// successor on its own slot whatever the grain.
//
// # Control loop
//
// A Tuner snapshots windowed deltas (obs.Window) from the sharded
// counter registry on a low-frequency ticker (Options.Interval,
// default 1ms): executed-task and park/wake rates, throttle stalls and
// queue depth. Each tick costs two merged counter reads; each decision
// writes at most a few atomic knob words. The loop never blocks an
// executor.
//
// # Actuators
//
//   - Throttle resizing (rt): ThrottleReady/ThrottleTotal windows
//     widen geometrically while the producer stalls against them with
//     the pool running shallow, and decay back toward the configured
//     base once pressure subsides. Windows configured off are never
//     invented.
//   - Wake policy (sched): the cascade-wake fanout and rotating-hint
//     stride widen under measured park/wake churn (starvation waves)
//     and decay back to wake-one at steady state.
//
// Every actuation increments a taskdep_tune_*_adjust_total counter, so
// the loop's own behavior is observable on /metrics.
//
// # Safety
//
// Actuator knobs are single atomic words read on the hot paths they
// steer; changing one mid-flight is always safe (see the safety
// arguments in docs/architecture.md, "Self-tuning"). The tuner holds
// no locks shared with executors and reads only monotone merged
// counters, so a wedged or stopped tuner leaves the runtime running
// with its current knob values.
package tune
