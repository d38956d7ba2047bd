package graph

import "math/bits"

// TaskDesc describes one task for SubmitBatch: the Submit parameters as
// data, so a producer can stage a slice of submissions and hand them to
// the graph in one call.
type TaskDesc struct {
	Label string
	Deps  []Dep
	Body  func(fp any)
	// Do is the error-returning body form; when set it takes precedence
	// over Body (see Task.Do).
	Do           func(fp any) error
	FirstPrivate any
	// Detached marks a task completed externally (Event/Fulfill) rather
	// than at body return.
	Detached bool
	// Attach is copied to Task.Attach before the task is published.
	Attach any
}

// SubmitBatch discovers all tasks described by descs, in order, and
// appends the created tasks to out (pass nil, or a buffer to reuse; the
// result is returned). It is semantically equivalent to calling Submit
// for each desc, but amortizes the fixed per-task costs across the
// batch:
//
//   - task IDs, the task/live counters and chunk-pool traffic are
//     reserved once per batch instead of once per task;
//   - every key-table stripe the batch touches is locked once, for the
//     whole batch, instead of once per dependence (see lockStripes);
//   - tasks that become ready during the batch are published once, at
//     the end, through OnReadyBatch when configured (one queue lock +
//     one wake-up instead of len(batch));
//   - the deps slices in descs are only read during the call, so
//     callers can build descs in reused buffers.
//
// Ready publication happening at batch end means a worker sees the
// first task of a batch at worst one batch later than with Submit —
// the latency/throughput trade the paper's discovery argument is about.
// Like Submit, SubmitBatch is safe for concurrent producers (outside
// recording mode) under the Graph concurrency contract: concurrent
// producers must keep disjoint key footprints.
func (g *Graph) SubmitBatch(descs []TaskDesc, out []*Task) []*Task {
	if len(descs) == 0 {
		return out
	}
	base := len(out)
	out = g.allocTasks(len(descs), out)
	var ready []*Task
	g.discover(descs, out[base:], &ready)
	g.notifyReady(ready)
	return out
}

// discover is the one submission path: it turns descs into the freshly
// allocated tasks ts (same length), resolving every dependence under a
// single sweep of the stripe locks. Tasks that become ready are appended
// to *ready for the caller to publish once the locks are dropped, or,
// when ready is nil, handed to OnReady on the spot.
func (g *Graph) discover(descs []TaskDesc, ts []*Task, ready *[]*Task) {
	n := int64(len(descs))
	firstID := g.nextID.Add(n) - n
	g.tasks.Add(n)
	g.lrAdd(n, 0)

	var small [4]uint64 // covers up to 256 stripes without allocating
	held := small[:]
	if words := (len(g.shards) + 63) / 64; words > len(small) {
		held = make([]uint64, words)
	}
	g.lockStripes(descs, held)
	cpath := g.cpath
	for i := range descs {
		var cpT0 int64
		if cpath {
			cpT0 = g.cpNow()
		}
		d := &descs[i]
		t := ts[i]
		t.ID = firstID + int64(i)
		t.Label = d.Label
		t.Body = d.Body
		t.Do = d.Do
		t.FirstPrivate = d.FirstPrivate
		t.Detached = d.Detached
		t.Attach = d.Attach
		t.captureDeps(d.Deps)
		t.preds.Store(sentinelBias)
		t.Persistent = g.recording
		if g.recording {
			t.recordEpoch = g.epoch
			g.recorded = append(g.recorded, t)
		}
		for _, dep := range d.Deps {
			g.processDep(t, dep, ready)
		}
		if cpath {
			// Discovery ends when the dependences are resolved; the
			// stamp must land before the sentinel release publishes the
			// task.
			t.discNs = g.cpNow() - cpT0
		}
		g.releaseSentinel(t, ready)
	}
	g.unlockStripes(held)
}

// lockStripes locks every key-table stripe a dependence of descs hashes
// to, marking each in held (one bit per stripe). Locks are taken in
// ascending stripe index: every goroutine that holds more than one
// stripe lock acquired them in that order, so no cycle of waiters can
// form, whatever Config.Shards is.
func (g *Graph) lockStripes(descs []TaskDesc, held []uint64) {
	unmarked := len(g.shards)
scan:
	for i := range descs {
		for _, d := range descs[i].Deps {
			s := g.stripeOf(d.Key)
			if w, bit := s>>6, uint64(1)<<(s&63); held[w]&bit == 0 {
				held[w] |= bit
				if unmarked--; unmarked == 0 {
					break scan // the batch holds the whole table
				}
			}
		}
	}
	for w, m := range held {
		for ; m != 0; m &= m - 1 {
			g.shards[w<<6+bits.TrailingZeros64(m)].mu.Lock()
		}
	}
}

// unlockStripes releases the stripes marked in held.
func (g *Graph) unlockStripes(held []uint64) {
	for w, m := range held {
		for ; m != 0; m &= m - 1 {
			g.shards[w<<6+bits.TrailingZeros64(m)].mu.Unlock()
		}
	}
}
