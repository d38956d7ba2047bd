package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// releaseSchedule builds a compiled schedule of n positions by hand,
// without a recording: the first roots positions have no predecessor,
// every later one 1 to 16 distinct earlier ones. preds[p] lists p's.
func releaseSchedule(g *Graph, rng *rand.Rand, n, roots int) (c *Compiled, preds [][]int32) {
	preds = make([][]int32, n)
	succ := make([][]int32, n)
	for p := roots; p < n; p++ {
		for _, q := range rng.Perm(p)[:min(1+rng.Intn(16), p)] {
			preds[p] = append(preds[p], int32(q))
			succ[q] = append(succ[q], int32(p))
		}
	}
	c = &Compiled{g: g, tasks: make([]*Task, n), succOff: make([]int32, n+1), template: make([]int32, n), preds: make([]int32, n)}
	for p := range c.tasks {
		c.tasks[p] = &Task{ID: int64(p), slot: int32(p)}
		c.template[p] = int32(len(preds[p]))
		c.succOff[p] = int32(len(c.succs))
		c.succs = append(c.succs, succ[p]...)
		if len(preds[p]) == 0 {
			c.roots = append(c.roots, c.tasks[p])
		}
	}
	c.succOff[n] = int32(len(c.succs))
	return c, preds
}

// releaseIter is the bookkeeping of one iteration of a releaseSchedule.
// finished is written plainly by each position's finisher and read by
// its successors' finishers, so the race detector checks that the
// release orders every predecessor's writes before the successor runs.
type releaseIter struct {
	t        *testing.T
	c        *Compiled
	preds    [][]int32
	iter     int
	finished []int          // the iteration a position last finished in
	released []atomic.Int32 // releases of each position this iteration
	done     []atomic.Bool  // finished this iteration, for late holds
	cone     []bool         // poisoned by a failing root this iteration
	fail     []bool         // the failing roots
	queue    chan *Task
	left     atomic.Int64
}

// release hands a released position to the finishers, once.
func (r *releaseIter) release(t *Task) {
	if n := r.released[t.slot].Add(1); n != 1 {
		r.t.Errorf("iteration %d: position %d released %d times", r.iter, t.slot, n)
		return
	}
	r.queue <- t
}

// finisher runs released positions until the iteration has none left;
// with deferred set it settles the live gauge every few finishes, as an
// executor chaining tasks does.
func (r *releaseIter) finisher(deferred bool) {
	var buf []*Task
	var owed int64
	for t := range r.queue {
		p := t.slot
		for _, q := range r.preds[p] {
			if r.finished[q] != r.iter {
				r.t.Errorf("iteration %d: position %d released before its predecessor %d finished", r.iter, p, q)
			}
		}
		if fp, ok := t.FirstPrivate.(int); ok && fp != r.iter {
			r.t.Errorf("iteration %d: position %d runs on firstprivate %d", r.iter, p, fp)
		}
		final := Completed
		switch poisoned := t.Poisoned(); {
		case poisoned != r.cone[p]:
			r.t.Errorf("iteration %d: position %d poisoned %v, in the failed cone %v", r.iter, p, poisoned, r.cone[p])
		case poisoned:
			final = Skipped
		case r.fail[p]:
			final = Aborted
		}
		r.finished[p] = r.iter
		if deferred {
			buf = r.c.FinishIntoDeferred(t, buf, final)
			if owed++; owed == 3 {
				r.c.g.Retire(owed)
				owed = 0
			}
		} else {
			buf = r.c.FinishInto(t, buf, final)
		}
		r.done[p].Store(true)
		for _, s := range buf {
			r.release(s)
		}
		if r.left.Add(-1) == 0 {
			close(r.queue)
		}
	}
	r.c.g.Retire(owed)
}

// TestCompiledReleaseRule: on generated schedules, frozen and gated —
// the producer's holds dropped before any task runs, while they run, or
// each only once its position's predecessors have finished, so that the
// hold is the last count — with one to four finishers and a failing
// root in every other iteration, each position is released exactly once
// per iteration and never before its last predecessor finished, the
// failing roots' cones all finish Skipped, the live gauge reads zero at
// the barrier, and the next iteration starts from a clean reset.
func TestCompiledReleaseRule(t *testing.T) {
	const iters = 4
	for _, mode := range []string{"frozen", "early", "interleaved", "late"} {
		for finishers := 1; finishers <= 4; finishers++ {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("%s/finishers%d/seed%d", mode, finishers, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed*10 + int64(finishers)))
					r := &releaseIter{t: t}
					g := NewWithConfig(Config{Opts: OptAll, OnReady: r.release})
					n := 64 + rng.Intn(128)
					r.c, r.preds = releaseSchedule(g, rng, n, 1+rng.Intn(4))
					r.finished = make([]int, n)
					for it := 1; it <= iters; it++ {
						r.runIteration(rng, mode, finishers, it)
						if t.Failed() {
							return
						}
					}
				})
			}
		}
	}
}

// runIteration runs iteration it of r's schedule through its barrier.
func (r *releaseIter) runIteration(rng *rand.Rand, mode string, finishers, it int) {
	t, c, n := r.t, r.c, len(r.c.tasks)
	r.iter = it
	r.released = make([]atomic.Int32, n)
	r.done = make([]atomic.Bool, n)
	r.cone, r.fail = make([]bool, n), make([]bool, n)
	if it%2 == 0 {
		root := c.roots[rng.Intn(len(c.roots))].slot
		r.fail[root] = true
		for p := range r.preds {
			for _, q := range r.preds[p] {
				if q == root || r.cone[q] {
					r.cone[p] = true
				}
			}
		}
	}
	r.queue = make(chan *Task, n)
	r.left.Store(int64(n))

	var wg sync.WaitGroup
	start := func() {
		for i := 0; i < finishers; i++ {
			wg.Add(1)
			go func(deferred bool) {
				defer wg.Done()
				r.finisher(deferred)
			}(i%2 == 1)
		}
	}
	if mode == "frozen" {
		if err := c.BeginIteration(); err != nil {
			t.Fatalf("iteration %d: BeginIteration: %v", it, err)
		}
		for _, root := range c.roots {
			r.release(root)
		}
		start()
	} else {
		if err := c.BeginReplay(); err != nil {
			t.Fatalf("iteration %d: BeginReplay: %v", it, err)
		}
		if mode != "early" {
			start()
		}
		for p := 0; p < n; p++ {
			switch {
			case mode == "late":
				for _, q := range r.preds[p] {
					for !r.done[q].Load() {
						runtime.Gosched()
					}
				}
			case mode == "interleaved" && rng.Intn(4) == 0:
				runtime.Gosched()
			}
			c.Replay(it, nil, nil, nil)
		}
		if err := c.FinishReplay(); err != nil {
			t.Fatalf("iteration %d: FinishReplay: %v", it, err)
		}
		if c.Released() != n {
			t.Errorf("iteration %d: Released = %d after FinishReplay, want %d", it, c.Released(), n)
		}
		if mode == "early" {
			start()
		}
	}
	drained := make(chan struct{})
	go func() {
		wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatalf("iteration %d: %d of %d positions never ran", it, r.left.Load(), n)
	}
	for p := range r.released {
		if got := r.released[p].Load(); got != 1 {
			t.Errorf("iteration %d: position %d released %d times", it, p, got)
		}
	}
	if live := c.g.Live(); live != 0 {
		t.Errorf("iteration %d: live = %d at the barrier", it, live)
	}
}
