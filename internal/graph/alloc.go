package graph

import "unsafe"

// Pooled allocation for the discovery hot path.
//
// Discovery used to pay one heap allocation per Task, one per successor
// slice, and one per keyState — a GC storm at millions of tasks per
// second. Three poolings remove almost all of it:
//
//   - Tasks are carved out of fixed-size chunks ([]Task blocks): one heap
//     allocation per chunkTasks submissions, each chunk under the
//     small-object limit (see chunkTasks). A chunk is reused only after
//     the window that carved it has ended (Graph.EndWindow): the graph
//     has drained, every finisher has let go of its task, and the
//     frontier that pointed at its tasks is forgotten. EndWindow clears
//     the chunk and puts it on a free list that allocTasks takes from
//     before it allocates. A chunk is never reused (pinned) when it holds
//     a recorded task, which a compiled schedule keeps and replays, or a
//     detached task, whose stale pointer a run queue or a slot may still
//     hold after an early Fulfill finished it; nor is any chunk of a graph
//     with the critical-path profiler, which keeps finished tasks past
//     their window, or of a graph whose caller never ends a window. Those
//     go to the GC when nothing points into them. A graph with the
//     profiler also gets a side array of cpStates with every chunk. The
//     free list is the Graph's own, not a sync.Pool: a pool stays
//     reachable from the runtime's global pool list for two collections
//     after its last Put, and its chunk's tasks hold their bodies, so a
//     closed runtime's whole last region stayed live for one more cycle.
//     That doubled the heap goal and kept it doubled, a steady state that
//     some processes fell into and others did not.
//   - Successor lists start on the Task's inline succs0 array (task.go)
//     and continue past inlineSuccs edges in fixed-size blocks that are
//     chained, never regrown: no edge is copied twice.
//   - keyStates are recycled through a free list
//     (ResetDiscoveryFrontier refills it), the key table (keytable.go)
//     keeps its slot array across resets, and a keyState's internal
//     slices keep their capacity across group open/close cycles, ended
//     windows and frontier resets, so steady-state discovery re-walks
//     already-grown buffers instead of reallocating them.

// chunkTasks is the number of Tasks per allocation chunk: one heap
// allocation amortized over this many submissions. With the 216-byte
// Task a chunk is 27 648 bytes, which with the allocator's 8-byte
// header still fits a small-object size class (at most 32 KiB):
// the chunk comes from the per-P cache like any small object, not from
// the large-object path that takes the heap lock and zeroes it on the
// side (TestTaskLayout pins this).
const chunkTasks = 128

// maxWindowChunks bounds the chunks a window keeps for recycling, and so
// the free list: a window that carves more leaves the rest to the GC,
// and a graph holds at most this many chunks (1.9 MB) it is not using.
const maxWindowChunks = 64

// taskChunk is a block of tasks the producer carves submissions from.
// cps is the chunk's critical-path side array (cpath.go), one record per
// task, allocated only for a graph configured with a clock. pinned marks a
// chunk that must never be reused (see above); recycled, one that came off
// the free list.
type taskChunk struct {
	buf      []Task
	cps      []cpState
	next     int
	pinned   bool
	recycled bool
}

// allocTasks appends n zeroed tasks with chunked backing storage to out.
// A task carved while the graph records pins its chunk. Producer-only.
func (g *Graph) allocTasks(n int, out []*Task) []*Task {
	c := g.chunk
	var reused int64
	for i := 0; i < n; i++ {
		if c == nil || c.next == len(c.buf) {
			c = g.newChunk()
		}
		t := &c.buf[c.next]
		if c.cps != nil {
			t.cp = &c.cps[c.next]
		}
		if c.recycled {
			reused++
		}
		if g.recording {
			c.pinned = true
		}
		c.next++
		out = append(out, t)
	}
	if reused != 0 {
		g.reused.Add(reused)
	}
	g.chunk = c
	return out
}

// newChunk returns an empty chunk, a recycled one when the free list has
// one, and enters it in the window's chunk list.
func (g *Graph) newChunk() *taskChunk {
	var c *taskChunk
	if n := len(g.spare); n > 0 {
		c = g.spare[n-1]
		g.spare[n-1] = nil
		g.spare = g.spare[:n-1]
		c.recycled = true
	} else {
		c = &taskChunk{buf: make([]Task, chunkTasks)}
		if g.clock != nil {
			c.cps = make([]cpState, chunkTasks)
		}
	}
	if len(g.windowChunks) < maxWindowChunks {
		g.windowChunks = append(g.windowChunks, c)
	}
	return c
}

// pin keeps t's chunk from being recycled. t is a task of the current
// window, so its chunk is among the window's last ones; one the window
// did not enter (past maxWindowChunks) is never recycled anyway.
func (g *Graph) pin(t *Task) {
	p := uintptr(unsafe.Pointer(t))
	for i := len(g.windowChunks) - 1; i >= 0; i-- {
		c := g.windowChunks[i]
		if p-uintptr(unsafe.Pointer(&c.buf[0])) < uintptr(len(c.buf))*unsafe.Sizeof(Task{}) {
			c.pinned = true
			return
		}
	}
}

// recycleChunks ends the window's use of its chunks (EndWindow): each
// that is not pinned is cleared and goes on the free list, and the next
// task comes from a chunk off that list. A graph with the critical-path
// profiler recycles none and goes on carving its current chunk.
func (g *Graph) recycleChunks() {
	if g.clock == nil {
		for _, c := range g.windowChunks {
			if !c.pinned {
				// Only the carved prefix was written since the chunk was
				// last zeroed.
				clear(c.buf[:c.next])
				c.next = 0
				g.spare = append(g.spare, c)
			}
		}
		g.chunk = nil
	}
	clear(g.windowChunks)
	g.windowChunks = g.windowChunks[:0]
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
