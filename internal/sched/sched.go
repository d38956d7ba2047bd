package sched

import (
	"sync"
	"sync/atomic"

	"taskdep/internal/graph"
	"taskdep/internal/obs"
)

// Policy selects the order in which ready tasks are executed.
type Policy int

const (
	// DepthFirst: per-worker LIFO deques, successors pushed to the
	// completing worker's top, FIFO steals.
	DepthFirst Policy = iota
	// BreadthFirst: one global FIFO queue (the behaviour the paper's
	// discovery-bound executions degrade to).
	BreadthFirst
)

func (p Policy) String() string {
	if p == DepthFirst {
		return "depth-first"
	}
	return "breadth-first"
}

// Deque is the scheduler's cross-thread entry queue and nothing else: an
// unbounded mutex-guarded FIFO of tasks backed by a growable ring buffer,
// pushed at the top and popped at the bottom, every operation O(1)
// amortized. It is safe for concurrent use from any goroutine — pushes
// from the producer, detach-event callbacks and (breadth-first) every
// worker need no ownership discipline here. Per-worker queues are
// WSDeques.
type Deque struct {
	mu   sync.Mutex
	buf  []*graph.Task // len is 0 or a power of two, indexed with a mask
	head int           // index of the bottom (oldest) element
	n    int
}

func (d *Deque) grow(need int) {
	c := len(d.buf) * 2
	if c == 0 {
		c = 8
	}
	for c < need {
		c *= 2
	}
	buf := make([]*graph.Task, c)
	// The live elements occupy [head, head+n) mod len: at most two
	// contiguous runs, moved with two copy calls.
	k := copy(buf, d.buf[d.head:])
	if k < d.n {
		copy(buf[k:], d.buf[:d.n-k])
	}
	d.buf = buf
	d.head = 0
}

// PushTop adds t behind everything already queued.
func (d *Deque) PushTop(t *graph.Task) {
	d.mu.Lock()
	if d.n == len(d.buf) {
		d.grow(d.n + 1)
	}
	d.buf[(d.head+d.n)&(len(d.buf)-1)] = t
	d.n++
	d.mu.Unlock()
}

// PushTopAll adds every task in ts, in order, under one lock acquisition
// (batch publication path).
func (d *Deque) PushTopAll(ts []*graph.Task) {
	if len(ts) == 0 {
		return
	}
	d.mu.Lock()
	if d.n+len(ts) > len(d.buf) {
		d.grow(d.n + len(ts))
	}
	for _, t := range ts {
		d.buf[(d.head+d.n)&(len(d.buf)-1)] = t
		d.n++
	}
	d.mu.Unlock()
}

// PopBottom removes and returns the oldest task, or nil.
func (d *Deque) PopBottom() *graph.Task {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.n == 0 {
		return nil
	}
	t := d.buf[d.head]
	d.buf[d.head] = nil
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.n--
	return t
}

// Len returns the current queue length.
func (d *Deque) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}

// Parked-slot states; see the parking protocol on Scheduler.
const (
	slotActive int32 = iota
	slotParked
)

// wsWorker is the per-worker queue state, padded so neighbouring
// workers' hot fields never share a cache line.
type wsWorker struct {
	deque WSDeque
	rng   uint64 // xorshift victim-selection state, owner-only
	_     [64]byte
}

// slotStatus is one worker's (or the producer's) park flag, padded
// against false sharing with its neighbours.
type slotStatus struct {
	v atomic.Int32
	_ [60]byte
}

// Scheduler distributes ready tasks over nWorkers according to a policy.
// Worker IDs are 0..nWorkers-1; ID nWorkers designates the producer
// acting as a consumer (taskwait, throttle) — it owns a deque of its own,
// so producer-executed chains keep depth-first locality instead of
// cycling through the global FIFO. ID -1 designates any other non-worker
// context (e.g. an MPI completion callback).
//
// Ownership contract: Push/PushBatch with worker >= 0
// and Pop(worker) for worker >= 0 must be called from that worker's own
// goroutine — they touch the slot's Chase–Lev deque at its owner end.
// The producer slot nWorkers is owned by the producer goroutine.
// Cross-thread contexts (detach-event callbacks) use worker = -1, which
// routes through the thread-safe global FIFO and CAS-only steals.
// Single-goroutine drivers (the DES simulator) may use any IDs, since
// ownership is about concurrency, not identity.
//
// # Parking protocol
//
// Idle workers and the waiting producer park on per-slot channels
// instead of spinning: a parker (1) publishes its intent by flipping its
// slot's status flag and (2) re-checks its wake condition — including
// the seqlock-style wake counter Seq, bumped by every publication and
// Kick — before (3) blocking on its token channel. A publisher makes
// work visible first and reads status flags after, so in the total order
// of the (sequentially consistent) atomics either the publisher observes
// the parker's flag and delivers a token, or the parker's re-check
// observes the publication — a lost wakeup would require both reads to
// miss both writes, which seq-cst forbids. Tokens travel through
// capacity-1 channels, so a wake issued while the parker is still in its
// re-check window is buffered, never dropped. Spurious tokens (a waker
// that claimed a slot whose parker simultaneously cancelled) at worst
// cause one extra loop through the caller's re-check.
//
// A publication wakes at most one parked slot (WakeOne) and relies on
// wake cascading — a worker that pops from the global queue or steals
// while more work remains wakes the next slot — to ramp the pool up.
type Scheduler struct {
	policy Policy

	// ws has nWorkers+1 entries: the last is the producer-as-consumer's
	// own deque.
	ws    []*wsWorker
	prng  uint64 // victim RNG for worker = -1 contexts (rare; racy is fine)
	seq   atomic.Uint64
	nIdle atomic.Int32
	stat  []slotStatus    // nWorkers+1 slots; the last is the producer
	parks []chan struct{} // capacity-1 token channels, same indexing
	// wakeHint rotates the wake scan's start for fairness: every wake
	// advances it by one slot.
	wakeHint atomic.Uint32

	// global receives producer-submitted tasks and, under BreadthFirst,
	// all work. Mutex-based: it is the cross-thread entry point, touched
	// only when a worker's own deque is empty.
	global *Deque

	// obs receives queue counters (pushes, pops, steals, steal
	// failures, parks, wakes). Nil disables the hooks entirely; all
	// Registry methods are nil-safe, so no guards are needed at the
	// call sites. Slot indexing matches slot(): workers 0..N-1, the
	// producer at N.
	obs *obs.Registry
}

// New creates a scheduler for nWorkers workers.
func New(policy Policy, nWorkers int) *Scheduler {
	s := &Scheduler{
		policy: policy,
		global: &Deque{},
		prng:   0x9E3779B97F4A7C15,
		stat:   make([]slotStatus, nWorkers+1),
		parks:  make([]chan struct{}, nWorkers+1),
	}
	for i := range s.parks {
		s.parks[i] = make(chan struct{}, 1)
	}
	s.ws = make([]*wsWorker, nWorkers+1)
	for i := range s.ws {
		s.ws[i] = &wsWorker{rng: uint64(i)*0x9E3779B97F4A7C15 + 1}
	}
	return s
}

// SetObs attaches a metrics registry (or detaches with nil). Call
// before workers start; the field is read without synchronization on
// the hot path.
func (s *Scheduler) SetObs(r *obs.Registry) { s.obs = r }

// Policy returns the scheduling policy.
func (s *Scheduler) Policy() Policy { return s.policy }

// NumWorkers returns the worker count.
func (s *Scheduler) NumWorkers() int { return len(s.stat) - 1 }

// slot maps a worker ID to its parking slot; every non-worker ID (-1)
// shares the producer slot.
func (s *Scheduler) slot(worker int) int {
	if worker >= 0 && worker < s.NumWorkers() {
		return worker
	}
	return s.NumWorkers()
}

// bump advances the wake counter after a publication (or Kick) so any
// parker between its PrePark snapshot and its block observes the change.
func (s *Scheduler) bump() { s.seq.Add(1) }

// Seq returns the wake counter. Read it via PrePark before a final
// emptiness check; a changed value means a publication (or Kick)
// happened since and parking must be retried.
func (s *Scheduler) Seq() uint64 { return s.seq.Load() }

// ownDeque reports whether a push attributed to worker lands on that
// worker's own deque (depth-first locality) rather than the global FIFO.
// The producer slot (worker == NumWorkers) has its own deque too.
func (s *Scheduler) ownDeque(worker int) bool {
	return s.policy == DepthFirst && worker >= 0 && worker < len(s.ws)
}

// Push makes t runnable, attributed to worker (or -1). Depth-first
// pushes from a worker go to that worker's LIFO top — and wake nobody:
// the owner is live and pops it next, which is the depth-first locality
// story. Everything else enters the global FIFO and wakes at most one
// parked slot.
func (s *Scheduler) Push(worker int, t *graph.Task) {
	s.obs.IncSlot(worker, obs.CDequePush)
	own := s.ownDeque(worker)
	if own {
		s.ws[worker].deque.PushTop(t)
	} else {
		s.global.PushTop(t)
	}
	s.bump()
	if !own {
		s.WakeOne()
	}
}

// PushBatch makes every task in ts runnable, attributed to worker (or
// -1), with one queue publication and at most one remote wake for the
// whole batch — the scheduler half of the graph's SubmitBatch /
// CompleteInto amortization. Further ramp-up is cascaded: each woken
// worker that finds surplus work wakes the next.
func (s *Scheduler) PushBatch(worker int, ts []*graph.Task) {
	if len(ts) == 0 {
		return
	}
	s.obs.AddSlot(worker, obs.CDequePush, int64(len(ts)))
	own := s.ownDeque(worker)
	if own {
		s.ws[worker].deque.PushTopAll(ts)
	} else {
		s.global.PushTopAll(ts)
	}
	s.bump()
	// An owner batch of one needs no help — the owner pops it next.
	// Anything beyond that is stealable surplus worth one wake; the woken
	// worker cascades the next.
	if !own || len(ts) > 1 {
		s.WakeOne()
	}
}

// SeedReplay publishes a compiled replay iteration's root set (see
// graph.Compiled): one queue publication, then a fan-out wake of up to
// len(ts) parked slots. PushBatch's wake-one + cascade ramp-up is right
// for discovery, where readiness trickles in; a replay iteration
// instead starts with its whole ready frontier known at once, so the
// pool is woken to its width in one pass instead of over a cascade
// chain. owner must be the calling goroutine's slot (the producer,
// during Persistent replay): depth-first seeds land on its own deque
// and are stolen FIFO — recorded order — by the woken workers.
func (s *Scheduler) SeedReplay(owner int, ts []*graph.Task) {
	if len(ts) == 0 {
		return
	}
	s.obs.AddSlot(owner, obs.CDequePush, int64(len(ts)))
	if s.ownDeque(owner) {
		s.ws[owner].deque.PushTopAll(ts)
	} else {
		s.global.PushTopAll(ts)
	}
	s.bump()
	s.wakeN(len(ts))
}

// wakeN wakes up to n parked slots, scanning from the rotating hint —
// WakeOne generalized to a known burst of available work.
func (s *Scheduler) wakeN(n int) {
	if n <= 0 || s.nIdle.Load() == 0 {
		return
	}
	total := len(s.stat)
	if n > total {
		n = total
	}
	start := int(s.wakeHint.Add(1)) % total
	woken := 0
	for i := 0; i < total && woken < n; i++ {
		sl := start + i
		if sl >= total {
			sl -= total
		}
		if s.wakeSlot(sl) {
			woken++
		}
	}
}

// xorshift64 advances a victim-selection RNG state.
func xorshift64(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// Pop returns the next task for the worker, or nil if none is available
// anywhere. Depth-first order: own deque top, then the global FIFO, then
// steal the oldest task from a sibling — randomized sweep start so
// thieves spread over victims, sequential sweep order from there.
// Breadth-first: the global FIFO only. A non-own pop that leaves surplus
// work behind cascades one wake.
func (s *Scheduler) Pop(worker int) *graph.Task {
	if s.policy == BreadthFirst {
		t := s.global.PopBottom()
		if t != nil {
			s.obs.IncSlot(worker, obs.CDequePop)
			s.cascade()
		}
		return t
	}
	if worker >= 0 && worker < len(s.ws) {
		if t := s.ws[worker].deque.PopTop(); t != nil {
			s.obs.IncSlot(worker, obs.CDequePop)
			return t
		}
	}
	if t := s.global.PopBottom(); t != nil {
		s.obs.IncSlot(worker, obs.CDequePop)
		s.cascade()
		return t
	}
	if t := s.steal(worker); t != nil {
		s.obs.IncSlot(worker, obs.CDequeSteal)
		s.cascade()
		return t
	}
	s.obs.IncSlot(worker, obs.CDequeStealFail)
	// A pop miss means this slot is out of local work — a natural
	// moment to publish its pending counter deltas.
	s.obs.MaybeFlush(worker)
	return nil
}

// steal sweeps sibling deques from a randomized start index.
func (s *Scheduler) steal(worker int) *graph.Task {
	nw := len(s.ws)
	if nw == 0 {
		return nil
	}
	var r uint64
	if worker >= 0 && worker < nw {
		s.ws[worker].rng = xorshift64(s.ws[worker].rng)
		r = s.ws[worker].rng
	} else {
		// Producer-only path (single goroutine by contract).
		s.prng = xorshift64(s.prng)
		r = s.prng
	}
	start := int(r % uint64(nw))
	for i := 0; i < nw; i++ {
		v := start + i
		if v >= nw {
			v -= nw
		}
		if v == worker {
			continue
		}
		for {
			t, retry := s.ws[v].deque.Steal()
			if t != nil {
				return t
			}
			if !retry {
				break
			}
		}
	}
	return nil
}

// cascade wakes one more slot when surplus work remains and someone is
// parked — the ramp-up half of the wake-one policy: each woken worker
// that finds surplus wakes the next.
func (s *Scheduler) cascade() {
	if s.nIdle.Load() > 0 && s.Pending() > 0 {
		s.WakeOne()
	}
}

// PrePark announces that the caller (worker, or -1 for the producer) is
// about to park and returns the wake-counter snapshot to re-check
// against. The caller must then re-examine its wake condition (queues,
// shutdown flag, Seq) and either CancelPark or Park.
func (s *Scheduler) PrePark(worker int) uint64 {
	s.nIdle.Add(1)
	s.stat[s.slot(worker)].v.Store(slotParked)
	return s.seq.Load()
}

// CancelPark retracts a PrePark announcement without blocking.
//
// The status word is a two-state protocol (active/parked), so the
// retraction needs no compare: an unconditional swap to active is a
// single wait-free XCHG, and observing parked as the old value IS the
// claim — exactly one of a retracting owner and any number of
// concurrent wakers can read it.
func (s *Scheduler) CancelPark(worker int) {
	sl := s.slot(worker)
	if s.stat[sl].v.Swap(slotActive) == slotParked {
		s.nIdle.Add(-1)
		return
	}
	// A waker claimed the slot concurrently; its token is in flight (or
	// already buffered). Absorb it if it has landed — if not, the
	// capacity-1 buffer holds it and the next Park returns immediately,
	// which the caller's re-check loop absorbs.
	select {
	case <-s.parks[sl]:
	default:
	}
}

// unparkSelf restores a slot to active after Park returns, covering
// wakes that arrived without a claiming waker (stale tokens). Same
// wait-free swap-claim as CancelPark.
func (s *Scheduler) unparkSelf(sl int) {
	if s.stat[sl].v.Swap(slotActive) == slotParked {
		s.nIdle.Add(-1)
	}
}

// Park blocks the announced caller until a waker delivers a token (or a
// stale token from a cancelled episode is pending — a spurious return
// the caller's loop re-checks). Must follow PrePark.
func (s *Scheduler) Park(worker int) {
	sl := s.slot(worker)
	s.obs.IncSlot(sl, obs.CParks)
	// About to block: publish pending deltas so /metrics sees an idle
	// slot's full history.
	s.obs.FlushSlot(sl)
	<-s.parks[sl]
	s.unparkSelf(sl)
}

// wakeSlot claims one parked slot and delivers its token; reports
// whether it woke anybody. The claim is a single unconditional XCHG,
// not a compare-and-swap: the target state is always active, so the
// swapped-out value alone decides the winner (old == parked), and the
// transition is wait-free — no failure path, no retry, and losing
// swappers have merely stored the value already there. The ordering
// argument of the parking protocol is unchanged: a swap is a full
// read-modify-write in the seq-cst total order, exactly like the CAS
// it replaces.
func (s *Scheduler) wakeSlot(sl int) bool {
	if s.stat[sl].v.Swap(slotActive) == slotParked {
		s.nIdle.Add(-1)
		select {
		case s.parks[sl] <- struct{}{}:
		default:
		}
		// Wakers run in arbitrary goroutines, so this is an external
		// (true atomic) add, off any worker's shard.
		s.obs.Add(obs.CWakes, 1)
		return true
	}
	return false
}

// WakeOne wakes at most one parked slot (workers and producer alike),
// scanning from a rotating start for fairness. A no-op when nobody is
// parked — one atomic load on the publication fast path.
func (s *Scheduler) WakeOne() {
	if s.nIdle.Load() == 0 {
		return
	}
	n := len(s.stat)
	start := int(s.wakeHint.Add(1)) % n
	for i := 0; i < n; i++ {
		sl := start + i
		if sl >= n {
			sl -= n
		}
		if s.wakeSlot(sl) {
			return
		}
	}
}

// WakeProducer wakes the producer slot if it is parked (taskwait or
// throttle). Completions call it on the transitions only the producer
// waits on — counter drops with no published successors, or the graph
// draining to empty.
func (s *Scheduler) WakeProducer() {
	s.bump()
	s.wakeSlot(s.NumWorkers())
}

// Kick wakes every parked slot without adding work (shutdown, detach
// events, external completions).
func (s *Scheduler) Kick() {
	s.bump()
	for sl := range s.stat {
		s.wakeSlot(sl)
	}
}

// IdleWorkers returns how many execution slots (workers plus the
// producer-as-consumer) are currently announced idle in the parking
// protocol. Racy snapshot — a slot can be between PrePark and Park, or
// waking — but monotone enough for instantaneous-parallelism readings
// (the /criticalpath endpoint's "running workers" figure).
func (s *Scheduler) IdleWorkers() int { return int(s.nIdle.Load()) }

// Pending returns the total number of queued tasks across all queues.
// Racy snapshot while producers run; exact at quiescent points.
func (s *Scheduler) Pending() int {
	n := s.global.Len()
	for _, w := range s.ws {
		n += w.deque.Len()
	}
	return n
}
