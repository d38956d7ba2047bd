package graph

import (
	"sync/atomic"
	"time"
)

// clockTick is the cached clock's refresh period. 50us keeps stamp
// quantization far below any task worth attributing individually;
// consecutive same-slot quantization errors telescope (a task's end stamp
// is its successor's start stamp), so window and path totals stay
// accurate to about one tick regardless of task count.
const clockTick = 50 * time.Microsecond

// Clock is the critical-path stamp clock (Config.Clock): monotonic
// nanoseconds since an origin. In cached mode a ticker goroutine stores a
// precise reading into an atomic every clockTick, so a stamp is one
// uncontended load (~1 ns) instead of a ~35-60 ns time read. Precise mode
// reads the real clock on every stamp and runs no goroutine.
//
// The ticker runs only while its graph has work: once the graph has been
// idle (Live() == 0) for a whole tick it stores a precise reading and
// parks, and the producer's next entry (discover, Compiled.begin,
// BeginReplay) stores a fresh reading and wakes it before the entry's
// first stamp.
type Clock struct {
	// cached is the last precise reading stored, by the ticker or by the
	// producer that woke it: what Now returns in cached mode.
	cached  atomic.Int64
	precise bool
	read    func() int64
	// parked is set while the ticker sleeps on an idle graph; whichever
	// clears it, the ticker or a waking producer, owns the wake-up.
	parked           atomic.Bool
	wake, stop, done chan struct{}
}

// NewClock returns a clock of nanoseconds since origin. A runtime passes
// the origin its span registry measures from, so both read one time line.
// A cached clock starts ticking when a graph takes it (NewWithConfig); it
// serves that one graph, and Stop ends its goroutine.
func NewClock(origin time.Time, precise bool) *Clock {
	c := &Clock{precise: precise, read: func() int64 { return int64(time.Since(origin)) }}
	c.cached.Store(c.read())
	return c
}

// Now returns the clock: in cached mode one atomic load, at most one tick
// old while the graph has work. Monotone non-decreasing in both modes.
func (c *Clock) Now() int64 {
	if c.precise {
		return c.read()
	}
	return c.cached.Load()
}

// Read returns a precise reading in either mode, for the cold points that
// must not see a parked clock's value (a profiling window's end).
func (c *Clock) Read() int64 { return c.read() }

// start runs the cached clock's ticker for g.
func (c *Clock) start(g *Graph) {
	if c.precise {
		return
	}
	if c.done != nil {
		panic("graph: a Clock serves one graph")
	}
	c.wake = make(chan struct{}, 1)
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go c.tick(g)
}

func (c *Clock) tick(g *Graph) {
	defer close(c.done)
	tk := time.NewTicker(clockTick)
	defer tk.Stop()
	idle := false
	for {
		select {
		case <-tk.C:
		case <-c.stop:
			return
		}
		c.cached.Store(c.read())
		wasIdle := idle
		if idle = g.Live() == 0; !idle || !wasIdle {
			continue
		}
		// Park on the reading just stored. It went in before parked is
		// set, so the producer's, stored after it clears parked, is never
		// overwritten by an older one. The producer puts its tasks on the
		// live gauge before it loads parked (resume): either it sees
		// parked set, or the load below sees its tasks and the ticker
		// takes parked back.
		c.parked.Store(true)
		if g.Live() != 0 && c.parked.CompareAndSwap(true, false) {
			continue
		}
		tk.Stop()
		select {
		case <-c.wake:
		case <-c.stop:
			return
		}
		tk.Reset(clockTick)
		idle = false
	}
}

// resume wakes a parked ticker with a fresh reading: one load while the
// ticker runs, none without a clock. The caller, the producer, has
// already put the tasks it is about to stamp on the live gauge.
func (c *Clock) resume() {
	if c != nil && c.parked.Load() {
		c.unpark()
	}
}

func (c *Clock) unpark() {
	if c.parked.CompareAndSwap(true, false) {
		c.cached.Store(c.read())
		c.wake <- struct{}{}
	}
}

// Stop ends the ticker (a no-op for a precise clock or one no graph
// took). The clock stays readable, frozen at its last value.
func (c *Clock) Stop() {
	if c.stop != nil {
		close(c.stop)
		<-c.done
		c.stop = nil
	}
}
