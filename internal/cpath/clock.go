// Package cpath is the online critical-path profiler: per-task phase
// attribution (discovery, ready-wait, execute, release), an O(1)
// release-time critical-path fold maintained by internal/graph, and a
// what-if projector for the paper's discovery-impact question — "is TDG
// discovery on the critical path, and by how much would eliminating it
// shrink makespan?" — answered live instead of by offline trace
// analysis.
//
// The division of labor: graph owns the per-task stamps and the
// cp[t] = own(t) + max_pred cp[p] fold (it is the only layer that
// walks every predecessor->successor edge at release time); this
// package owns the clock the stamps read, the per-slot aggregation of
// finished tasks (same single-writer sharding discipline as
// internal/obs), window reports with T1/T-infinity/parallelism and the
// discovery share of the critical path, the Brent-bound what-if
// projections, and an offline exact longest-path cross-check used by
// tests and the cpath benchmark gate.
package cpath

import (
	"sync/atomic"
	"time"
)

// DefaultTick is the cached-clock refresh period. 50us keeps stamp
// quantization far below any task worth attributing individually while
// the updater goroutine stays at ~20k wakes/s; consecutive same-slot
// quantization errors telescope (a task's end stamp is its successor's
// start stamp), so window and path totals stay accurate to about one
// tick regardless of task count.
const DefaultTick = 50 * time.Microsecond

// Clock is the profiler's monotonic nanosecond clock. In the default
// cached mode an updater goroutine periodically stores a precise
// time.Since reading into an atomic, so hot-path reads are a single
// uncontended load (~1 ns) instead of a ~35-60 ns time syscall — the
// difference between a ~3% and a ~50% profiler overhead at the
// grain-0 drain's 112 ns/task. Precise mode reads the real clock on
// every call, for tests and fine-grained attribution of long tasks.
type Clock struct {
	origin  time.Time
	cached  atomic.Int64
	precise bool
	stop    chan struct{}
	done    chan struct{}
}

// NewClock starts a clock of nanoseconds since origin, refreshed every
// DefaultTick; precise mode starts no updater. A runtime passes the
// origin its span registry measures from, so both read one time line.
func NewClock(origin time.Time, precise bool) *Clock {
	c := &Clock{origin: origin, precise: precise}
	if precise {
		return c
	}
	c.cached.Store(int64(time.Since(origin)))
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go c.run()
	return c
}

func (c *Clock) run() {
	defer close(c.done)
	tk := time.NewTicker(DefaultTick)
	defer tk.Stop()
	for {
		select {
		case <-tk.C:
			// The stored value is always a precise reading; only the
			// refresh frequency is coarse.
			c.cached.Store(int64(time.Since(c.origin)))
		case <-c.stop:
			return
		}
	}
}

// Now returns monotonic nanoseconds since the origin. Cached
// mode: one atomic load, value at most one tick old. Monotone
// non-decreasing in both modes.
func (c *Clock) Now() int64 {
	if c.precise {
		return int64(time.Since(c.origin))
	}
	return c.cached.Load()
}

// CachedRef exposes the cached cell for zero-call hot-path reads
// (graph.Config.CPathCached); nil in precise mode, where every read
// must go through Now.
func (c *Clock) CachedRef() *atomic.Int64 {
	if c.precise {
		return nil
	}
	return &c.cached
}

// Stop terminates the updater goroutine (no-op in precise mode). The
// clock remains readable afterwards, frozen at its last value.
func (c *Clock) Stop() {
	if c.stop != nil {
		close(c.stop)
		<-c.done
		c.stop = nil
	}
}
