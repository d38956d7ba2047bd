package rt

import (
	"fmt"

	"taskdep/internal/sched"
	"taskdep/internal/verify"
)

// CPathOptions configures the online critical-path profiler
// (internal/cpath): per-task phase attribution (discovery, ready-wait,
// execute, release), an O(1) release-time critical-path fold, and
// what-if projections of makespan with zero-cost discovery. Zero value:
// off, zero overhead. When enabled, every task carries four clock
// stamps read from a cached ~1 ns clock, the taskdep_phase_* counters
// are populated, window reports are published at every taskwait (and
// compiled-replay barrier), and the introspection endpoint gains
// /criticalpath. See docs/architecture.md, "Critical-path analysis".
type CPathOptions struct {
	// Enable turns critical-path profiling on.
	Enable bool
	// Precise reads the real clock on every stamp instead of the cached
	// atomic: exact attribution at ~30-60 ns per stamp, for tests and
	// coarse-grained workloads.
	Precise bool
	// Retain keeps every finished task until Runtime.CPathProfiler().
	// TakeRetained, so the offline exact longest-path cross-check can
	// run. Pins task memory; benchmark/test machinery, not production.
	Retain bool
	// PathMax bounds the critical-path entries rendered into a report;
	// <= 0 means 64.
	PathMax int
}

// normalize applies defaults and validates ranges and enum values.
// Returned by value: the caller's Config is never mutated.
func (cfg Config) normalize() (Config, error) {
	if cfg.Workers < 0 {
		return cfg, fmt.Errorf("rt: Workers is %d; want >= 0 (0 selects the default of 1)", cfg.Workers)
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.ThrottleReady < 0 {
		return cfg, fmt.Errorf("rt: ThrottleReady is %d; want >= 0 (0 disables ready-task throttling)", cfg.ThrottleReady)
	}
	if cfg.ThrottleTotal < 0 {
		return cfg, fmt.Errorf("rt: ThrottleTotal is %d; want >= 0 (0 disables total-task throttling)", cfg.ThrottleTotal)
	}
	if cfg.Profile != nil && cfg.Profile.NumWorkers() < cfg.Workers+1 {
		return cfg, fmt.Errorf("rt: profile has %d slots, need Workers+1 = %d (slot %d is the producer)",
			cfg.Profile.NumWorkers(), cfg.Workers+1, cfg.Workers)
	}
	switch cfg.Policy {
	case sched.DepthFirst, sched.BreadthFirst:
	default:
		return cfg, fmt.Errorf("rt: unknown Policy %d; want DepthFirst or BreadthFirst", cfg.Policy)
	}
	switch cfg.Verify {
	case verify.Off, verify.Observe, verify.Full:
	default:
		return cfg, fmt.Errorf("rt: unknown Verify mode %d; want Off, Observe or Full", cfg.Verify)
	}
	if cfg.Inject != nil && cfg.Inject.Every < 0 {
		return cfg, fmt.Errorf("rt: Inject.Every is %d; want >= 0 (0 disables injection)", cfg.Inject.Every)
	}
	return cfg, nil
}
