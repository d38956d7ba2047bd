// Package sim is the discrete-event machine simulator used to reproduce
// the paper's measurements that depend on hardware behaviour: cache
// misses and stall cycles per level (Fig. 2e/f, Table 1), work-time
// inflation under DRAM contention (Fig. 2d), discovery-bound executions
// (Figs. 1, 2c, 6), communication overlap (Figs. 7, 9) and weak/strong
// scaling (Table 3).
//
// A simulation advances a virtual clock through an event heap. Each MPI
// rank is a Rank: one producer core discovering the task graph at modeled
// per-task/per-edge costs (the paper's TDG discovery speed), plus worker
// cores executing tasks whose duration comes from a compute + memory cost
// model evaluated against an L1/L2/L3 LRU cache hierarchy. Ranks are
// coupled by a network model with eager/rendezvous point-to-point
// transfers and tree-based collectives.
package sim

import "container/heap"

// event is a scheduled callback.
type event struct {
	t   float64
	seq int64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) peek() event   { return h[0] }

// Engine is a deterministic discrete-event loop. Ties in time are broken
// by scheduling order, so identical inputs give identical timelines.
type Engine struct {
	now  float64
	seq  int64
	heap eventHeap
}

// NewEngine creates an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn at absolute time t (>= Now).
func (e *Engine) At(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.heap, event{t: t, seq: e.seq, fn: fn})
}

// After schedules fn d seconds from now.
func (e *Engine) After(d float64, fn func()) { e.At(e.now+d, fn) }

// Run processes events until the heap is empty and returns the final
// time.
func (e *Engine) Run() float64 {
	for e.heap.Len() > 0 {
		ev := heap.Pop(&e.heap).(event)
		e.now = ev.t
		ev.fn()
	}
	return e.now
}

// Step processes a single event; reports false when none remain.
func (e *Engine) Step() bool {
	if e.heap.Len() == 0 {
		return false
	}
	ev := heap.Pop(&e.heap).(event)
	e.now = ev.t
	ev.fn()
	return true
}
