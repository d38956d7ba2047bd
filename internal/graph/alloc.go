package graph

// Pooled allocation for the discovery hot path.
//
// Discovery used to pay one heap allocation per Task, one per successor
// slice, and one per keyState — a GC storm at millions of tasks per
// second. Three poolings remove almost all of it:
//
//   - Tasks are carved out of fixed-size chunks ([]Task blocks). A chunk
//     is handed to exactly one producer at a time through a sync.Pool
//     (per-P free lists), so concurrent producers never contend on the
//     allocator. Task memory is never recycled — a chunk is dropped once
//     full and reclaimed by the GC when every task in it is dead — so
//     there is no use-after-reuse hazard; pooling only amortizes the
//     allocation count by chunkTasks.
//   - Successor lists start on the Task's inline succs0 array (task.go)
//     and continue past inlineSuccs edges in fixed-size blocks that are
//     chained, never regrown: no edge is copied twice.
//   - keyStates are recycled per shard through a free list
//     (ResetDiscoveryFrontier refills it), and a keyState's internal
//     slices keep their capacity across group open/close cycles and
//     across frontier resets, so steady-state discovery re-walks
//     already-grown buffers instead of reallocating them.

// chunkTasks is the number of Tasks per allocation chunk: one heap
// allocation amortized over this many submissions.
const chunkTasks = 128

// taskChunk is a block of tasks owned by at most one producer at a time.
type taskChunk struct {
	buf  []Task
	next int
}

// allocTasks appends n zeroed tasks with pooled backing storage to out,
// grabbing the chunk once. Safe for concurrent producers: the chunk pool
// hands each caller an exclusive chunk. With Config.NoPool every task is
// an individual heap allocation (the pre-optimization behaviour, kept
// for A/B benchmarking).
func (g *Graph) allocTasks(n int, out []*Task) []*Task {
	if g.noPool {
		for i := 0; i < n; i++ {
			out = append(out, &Task{})
		}
		return out
	}
	c, _ := g.chunkPool.Get().(*taskChunk)
	for i := 0; i < n; i++ {
		if c == nil || c.next == len(c.buf) {
			c = &taskChunk{buf: make([]Task, chunkTasks)}
		}
		t := &c.buf[c.next]
		c.next++
		out = append(out, t)
	}
	if c != nil && c.next < len(c.buf) {
		g.chunkPool.Put(c)
	}
	return out
}

// allocKeyState returns a keyState for this shard, recycling one from
// the shard free list (with its slice capacities intact) when possible.
// Caller holds sh.mu.
func (sh *shard) allocKeyState() *keyState {
	if n := len(sh.free); n > 0 {
		ks := sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
		return ks
	}
	return &keyState{}
}

// recycle resets ks for reuse, keeping slice capacities. Caller holds
// sh.mu.
func (sh *shard) recycle(ks *keyState) {
	clearTasks(ks.outSet)
	clearTasks(ks.readers)
	clearTasks(ks.baseOut)
	clearTasks(ks.baseReaders)
	*ks = keyState{
		outSet:      ks.outSet[:0],
		readers:     ks.readers[:0],
		baseOut:     ks.baseOut[:0],
		baseReaders: ks.baseReaders[:0],
	}
	sh.free = append(sh.free, ks)
}

// clearTasks nils out the full capacity of a task slice so recycled
// buffers do not pin dead tasks.
func clearTasks(s []*Task) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = nil
	}
}
