package sched

import (
	"sync/atomic"

	"taskdep/internal/graph"
)

// wsArray is one growable ring generation of a WSDeque. The fields are
// immutable after construction; slot contents are accessed atomically so
// thieves holding a stale generation still read coherent values.
type wsArray struct {
	mask  int64
	slots []atomic.Pointer[graph.Task]
}

func newWSArray(size int64) *wsArray {
	return &wsArray{mask: size - 1, slots: make([]atomic.Pointer[graph.Task], size)}
}

func (a *wsArray) get(i int64) *graph.Task    { return a.slots[i&a.mask].Load() }
func (a *wsArray) put(i int64, t *graph.Task) { a.slots[i&a.mask].Store(t) }
func (a *wsArray) size() int64                { return a.mask + 1 }

// WSDeque is a Chase–Lev work-stealing deque (Chase & Lev, SPAA'05, with
// the memory ordering of Lê et al., PPoPP'13) over a growable circular
// array. Terminology follows this package, not the literature: the *top*
// is the LIFO end owned by one worker goroutine (PushTop / PushTopAll /
// PopTop, plain loads plus one CAS only in the final-element race), and
// the *bottom* is the FIFO end thieves steal from with a single CAS per
// claimed task.
//
// Ownership contract: PushTop, PushTopAll and PopTop must only be called
// from the deque's owner goroutine. Steal and Len are safe from any
// goroutine. The zero value is an empty, usable deque.
//
// Memory ordering: indices and slots are Go sync/atomic operations,
// which are sequentially consistent — strictly stronger than the
// acquire/release/seq-cst mix the C11 formulation needs, so the
// published proofs carry over. Stale array generations after a grow are
// reclaimed by the garbage collector, which removes the algorithm's
// classic reclamation problem entirely.
type WSDeque struct {
	// steal is the next index thieves claim (the literature's "top");
	// monotonically increasing, so CAS never suffers ABA.
	steal atomic.Int64
	// owner is one past the last owner-pushed index (the literature's
	// "bottom"). Written only by the owner.
	owner atomic.Int64
	arr   atomic.Pointer[wsArray]
}

// ensure returns an array with room for n more owner-side elements,
// growing (and publishing) a doubled generation holding [st, ow) first
// if needed. Owner-only.
func (d *WSDeque) ensure(a *wsArray, st, ow, n int64) *wsArray {
	if a != nil && ow-st+n <= a.size() {
		return a
	}
	sz := int64(8)
	if a != nil {
		sz = a.size()
	}
	for sz < ow-st+n {
		sz <<= 1
	}
	if a != nil && sz == a.size() {
		sz <<= 1
	}
	na := newWSArray(sz)
	for i := st; i < ow; i++ {
		na.put(i, a.get(i))
	}
	// Thieves that already loaded the old generation keep reading it:
	// every index in [st, ow) holds the same task in both generations,
	// and the claiming CAS on d.steal arbitrates regardless of which
	// generation the value was read from.
	d.arr.Store(na)
	return na
}

// PushTop adds t at the LIFO end. Owner-only.
func (d *WSDeque) PushTop(t *graph.Task) {
	ow := d.owner.Load()
	st := d.steal.Load()
	a := d.ensure(d.arr.Load(), st, ow, 1)
	a.put(ow, t)
	d.owner.Store(ow + 1)
}

// PushTopAll adds every task in ts at the LIFO end, publishing the whole
// batch with a single index store so thieves observe all of it at once.
// Owner-only.
func (d *WSDeque) PushTopAll(ts []*graph.Task) {
	n := int64(len(ts))
	if n == 0 {
		return
	}
	ow := d.owner.Load()
	st := d.steal.Load()
	a := d.ensure(d.arr.Load(), st, ow, n)
	for i, t := range ts {
		a.put(ow+int64(i), t)
	}
	d.owner.Store(ow + n)
}

// PopTop removes and returns the most recently pushed task, or nil.
// Owner-only. Lock-free: the only synchronization is one CAS when the
// deque holds a single element and a thief races for it. A deque the
// owner sees empty is empty for it — only the owner pushes, and thieves
// only take — so that case returns before the two owner-index stores
// that reserve an element against thieves.
func (d *WSDeque) PopTop() *graph.Task {
	a := d.arr.Load()
	if a == nil {
		return nil
	}
	ow := d.owner.Load()
	if d.steal.Load() >= ow {
		return nil
	}
	ow--
	d.owner.Store(ow)
	st := d.steal.Load()
	if st > ow {
		// A thief took the last element since the check: restore the
		// owner index.
		d.owner.Store(ow + 1)
		return nil
	}
	t := a.get(ow)
	if st == ow {
		// Final element: race thieves for it by claiming the steal
		// index; exactly one side's CAS succeeds.
		if !d.steal.CompareAndSwap(st, st+1) {
			t = nil
		}
		d.owner.Store(ow + 1)
	}
	return t
}

// Steal removes and returns the oldest task (the FIFO end — stealing
// breadth keeps the owner's depth-first locality intact). It returns
// (nil, false) when the deque is observed empty and (nil, true) when a
// concurrent owner pop or competing thief won the claiming CAS — the
// element went somewhere, so retrying is productive.
func (d *WSDeque) Steal() (*graph.Task, bool) {
	st := d.steal.Load()
	ow := d.owner.Load()
	if st >= ow {
		return nil, false
	}
	a := d.arr.Load()
	if a == nil {
		return nil, false
	}
	// Read the candidate before claiming it; the CAS on the steal index
	// validates the read (any interference moves the index and fails it).
	t := a.get(st)
	if !d.steal.CompareAndSwap(st, st+1) {
		return nil, true
	}
	return t, false
}

// Len returns a racy snapshot of the queue length. Exact when the deque
// is quiescent; a lower/upper bound of transient states otherwise.
func (d *WSDeque) Len() int {
	n := d.owner.Load() - d.steal.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}
