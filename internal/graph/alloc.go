package graph

// Pooled allocation for the discovery hot path.
//
// Discovery used to pay one heap allocation per Task, one per successor
// slice, and one per keyState — a GC storm at millions of tasks per
// second. Three poolings remove almost all of it:
//
//   - Tasks are carved out of fixed-size chunks ([]Task blocks). The
//     graph keeps its current chunk in a producer-owned field. Task
//     memory is never recycled — a full chunk is replaced by a fresh one
//     and reclaimed by the GC when every task in it is dead — so there is no
//     use-after-reuse hazard; chunking only amortizes the allocation
//     count by chunkTasks, and keeps each chunk under the small-object
//     limit (see chunkTasks). A graph with the critical-path profiler
//     gets a side array of cpStates with every chunk; one without it
//     allocates none. The field is the Graph's own, not a sync.Pool:
//     a pool stays reachable from the runtime's global pool list for two
//     collections after its last Put, and its chunk's tasks hold their
//     bodies, so a closed runtime's whole last region stayed live for
//     one more cycle. That doubled the heap goal and kept it doubled, a
//     steady state that some processes fell into and others did not.
//   - Successor lists start on the Task's inline succs0 array (task.go)
//     and continue past inlineSuccs edges in fixed-size blocks that are
//     chained, never regrown: no edge is copied twice.
//   - keyStates are recycled through a free list
//     (ResetDiscoveryFrontier refills it), the key table (keytable.go)
//     keeps its slot array across resets, and a keyState's internal
//     slices keep their capacity across group open/close cycles and
//     across frontier resets, so steady-state discovery re-walks
//     already-grown buffers instead of reallocating them.

// chunkTasks is the number of Tasks per allocation chunk: one heap
// allocation amortized over this many submissions. With the 232-byte
// Task a chunk is 29 696 bytes, which with the allocator's 8-byte
// header still fits the largest small-object size class (32 KiB):
// the chunk comes from the per-P cache like any small object, not from
// the large-object path that takes the heap lock and zeroes it on the
// side (TestTaskLayout pins this).
const chunkTasks = 128

// taskChunk is a block of tasks the producer carves submissions from.
// cps is the chunk's critical-path side array (cpath.go), one record per
// task, allocated only for a graph configured with CPath.
type taskChunk struct {
	buf  []Task
	cps  []cpState
	next int
}

// allocTasks appends n zeroed tasks with chunked backing storage to out.
// Producer-only.
func (g *Graph) allocTasks(n int, out []*Task) []*Task {
	c := g.chunk
	for i := 0; i < n; i++ {
		if c == nil || c.next == len(c.buf) {
			c = &taskChunk{buf: make([]Task, chunkTasks)}
			if g.cpath {
				c.cps = make([]cpState, chunkTasks)
			}
		}
		t := &c.buf[c.next]
		if c.cps != nil {
			t.cp = &c.cps[c.next]
		}
		c.next++
		out = append(out, t)
	}
	g.chunk = c
	return out
}

// allocKeyState returns a keyState, recycling one from the free list
// (with its slice capacities intact) when possible. Caller holds g.mu.
func (g *Graph) allocKeyState() *keyState {
	if n := len(g.free); n > 0 {
		ks := g.free[n-1]
		g.free[n-1] = nil
		g.free = g.free[:n-1]
		return ks
	}
	return &keyState{}
}

// recycle resets ks for reuse, keeping slice capacities. Caller holds
// g.mu.
func (g *Graph) recycle(ks *keyState) {
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
	g.free = append(g.free, ks)
}

// clearTasks nils out the full capacity of a task slice so recycled
// buffers do not pin dead tasks.
func clearTasks(s []*Task) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = nil
	}
}
