// Package mpi implements the message-passing substrate of the
// reproduction: an in-process MPI subset where ranks are goroutines of
// one OS process. It provides the primitives the paper's applications
// use — nonblocking point-to-point (Isend/Irecv with eager and
// rendezvous protocols selected by message size, as observed on the
// paper's Open MPI/BXI configuration), a nonblocking Iallreduce
// collective, Done/Wait completion, and PMPI-style profiling hooks that
// feed the communication-overlap metrics of internal/trace.
//
// Matching follows MPI semantics: per (source, tag) FIFO order with
// wildcard AnySource/AnyTag receives.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"taskdep/internal/obs"
	"taskdep/internal/trace"
)

// ErrAborted reports that the world was torn down by World.Abort (a
// rank failed): every pending request — including rendezvous sends and
// half-gathered collectives that would otherwise block forever — is
// completed with an error wrapping it, and later posts complete
// immediately the same way. Use errors.Is(err, mpi.ErrAborted).
var ErrAborted = errors.New("mpi: world aborted")

// abortError carries the abort cause alongside ErrAborted.
type abortError struct{ cause error }

func (e *abortError) Error() string {
	if e.cause == nil {
		return ErrAborted.Error()
	}
	return ErrAborted.Error() + ": " + e.cause.Error()
}

func (e *abortError) Unwrap() []error {
	if e.cause == nil {
		return []error{ErrAborted}
	}
	return []error{ErrAborted, e.cause}
}

// AnySource and AnyTag are wildcard matching values for Irecv.
const (
	AnySource = -1
	AnyTag    = -1
)

// DefaultEagerThreshold is the message size (in elements of float64,
// i.e. 8 bytes each) below which sends complete eagerly; larger messages
// use a rendezvous protocol and complete only when matched. 64 KiB / 8.
const DefaultEagerThreshold = 8192

// Op is a reduction operator.
type Op int

const (
	// Sum adds contributions elementwise.
	Sum Op = iota
	// Min takes the elementwise minimum (LULESH dt reduction).
	Min
	// Max takes the elementwise maximum.
	Max
)

func (o Op) apply(acc, in []float64) {
	switch o {
	case Sum:
		for i := range acc {
			acc[i] += in[i]
		}
	case Min:
		for i := range acc {
			if in[i] < acc[i] {
				acc[i] = in[i]
			}
		}
	case Max:
		for i := range acc {
			if in[i] > acc[i] {
				acc[i] = in[i]
			}
		}
	}
}

// Request is a nonblocking operation handle.
type Request struct {
	id    int64
	kind  trace.CommKind
	bytes int
	done  chan struct{}
	once  sync.Once
	// err is the completion status: nil for success, an ErrAborted
	// wrapper when the world aborted under the request. Written before
	// done is closed, read only after it — the channel orders the
	// accesses.
	err error

	// Source/Tag are filled on receive completion (matched envelope).
	Source int
	Tag    int

	// onComplete, if set, runs exactly once at completion, from the
	// completing goroutine (used to fulfill detached task events).
	onComplete atomic.Pointer[func()]

	comm *Comm
}

// ID returns the unique request id (used in profiles).
func (r *Request) ID() int64 { return r.id }

// OnComplete registers f to run at completion; if the request already
// completed, f runs immediately. Used to bridge MPI completion to
// detached-task events.
func (r *Request) OnComplete(f func()) {
	r.onComplete.Store(&f)
	select {
	case <-r.done:
		r.fire()
	default:
	}
}

func (r *Request) fire() {
	if p := r.onComplete.Swap(nil); p != nil {
		(*p)()
	}
}

func (r *Request) complete() { r.completeErr(nil) }

// completeErr finishes the request exactly once, recording err as its
// status. OnComplete callbacks fire on error completions too, so
// detached-task events bridged to requests are still fulfilled and the
// task graph drains; the task observes the failure through Err.
func (r *Request) completeErr(err error) {
	r.once.Do(func() {
		r.err = err
		if c := r.comm; c != nil && c.profile != nil {
			c.profile.CommComplete(r.id, c.clock())
		}
		close(r.done)
		r.fire()
	})
}

// Err returns the request's completion status: nil before completion
// and for successful completion, an ErrAborted-wrapping error when the
// world aborted under the request.
func (r *Request) Err() error {
	select {
	case <-r.done:
		return r.err
	default:
		return nil
	}
}

// Done reports (without blocking) whether the request completed.
func (r *Request) Done() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// message is an in-flight point-to-point message.
type message struct {
	src, tag int
	data     []float64 // owned copy (eager) or sender's buffer (rendezvous)
	sreq     *Request  // non-nil for rendezvous: completed on match
}

// postedRecv is a pending receive.
type postedRecv struct {
	src, tag int
	buf      []float64
	req      *Request
}

// mailbox is the per-rank matching engine.
type mailbox struct {
	mu         sync.Mutex
	unexpected []message
	posted     []postedRecv
}

// collective tracks one in-flight Iallreduce instance. Contributions are
// stored per rank and reduced in rank order at completion, so the result
// is deterministic even for non-associative floating-point sums.
type collective struct {
	op    Op
	n     int
	ins   [][]float64 // indexed by rank
	count int
	outs  [][]float64
	reqs  []*Request
}

// World is a set of ranks sharing an interconnect.
type World struct {
	size  int
	boxes []*mailbox

	collMu sync.Mutex
	colls  map[int64]*collective
	// collSeqs holds each rank's collective call counter so repeated
	// Comm() handles for the same rank share the matching sequence.
	collSeqs []int64

	reqID atomic.Int64

	// Abort state. aborted is checked inside the mailbox/collective
	// critical sections, so a post either lands before the abort drain
	// (and is drained) or observes the flag (and fails immediately) —
	// never enqueues unseen.
	aborted  atomic.Bool
	abortMu  sync.Mutex
	abortErr error
}

// NewWorld creates a world of size ranks with the default eager
// threshold.
func NewWorld(size int) *World {
	w := &World{
		size:     size,
		boxes:    make([]*mailbox, size),
		colls:    make(map[int64]*collective),
		collSeqs: make([]int64, size),
	}
	for i := range w.boxes {
		w.boxes[i] = &mailbox{}
	}
	return w
}

// Abort tears the world down after a rank failed: every pending request
// on every rank — posted receives, rendezvous sends parked in
// unexpected queues, half-gathered collectives — completes with an
// error wrapping ErrAborted and cause, and every later post completes
// immediately the same way. Peers blocked in Wait/Waitall observe the
// error instead of deadlocking against a rank that will never send.
// Idempotent; the first cause wins. Safe to call from any goroutine.
func (w *World) Abort(cause error) {
	w.abortMu.Lock()
	if w.aborted.Load() {
		w.abortMu.Unlock()
		return
	}
	w.abortErr = &abortError{cause: cause}
	err := w.abortErr
	w.aborted.Store(true)
	w.abortMu.Unlock()

	for _, box := range w.boxes {
		box.mu.Lock()
		posted := box.posted
		box.posted = nil
		var sreqs []*Request
		for _, m := range box.unexpected {
			if m.sreq != nil {
				sreqs = append(sreqs, m.sreq)
			}
		}
		box.unexpected = nil
		box.mu.Unlock()
		for _, p := range posted {
			p.req.completeErr(err)
		}
		for _, s := range sreqs {
			s.completeErr(err)
		}
	}

	w.collMu.Lock()
	colls := w.colls
	w.colls = make(map[int64]*collective)
	w.collMu.Unlock()
	for _, coll := range colls {
		for _, r := range coll.reqs {
			r.completeErr(err)
		}
	}
}

// Aborted reports whether the world was aborted.
func (w *World) Aborted() bool { return w.aborted.Load() }

// abortedErr returns the composed abort error; call only after aborted
// is observed true.
func (w *World) abortedErr() error {
	w.abortMu.Lock()
	defer w.abortMu.Unlock()
	return w.abortErr
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Run executes f concurrently on every rank and waits for all to return.
func (w *World) Run(f func(c *Comm)) {
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			f(w.Comm(rank))
		}(r)
	}
	wg.Wait()
}

// Comm returns rank r's communicator handle.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("mpi: rank %d out of world size %d", rank, w.size))
	}
	return &Comm{world: w, rank: rank, collSeq: &w.collSeqs[rank]}
}

// Comm is one rank's endpoint. A Comm must be used by one goroutine for
// posting operations (the owning rank), matching MPI's threading level
// as used in the paper (communications nested in tasks of one runtime).
type Comm struct {
	world   *World
	rank    int
	collSeq *int64

	profile *trace.Profile
	clock   func() float64
	metrics *obs.Registry
}

// Rank returns the caller's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Abort tears down the whole world (see World.Abort): a rank whose
// runtime failed calls it so its peers error out of pending and future
// communications instead of deadlocking against a dead rank.
func (c *Comm) Abort(cause error) { c.world.Abort(cause) }

// SetProfile attaches a PMPI-style profiler: every send/collective post
// and completion is recorded with clock, or with the profile's own
// clock (Profile.Now) when clock is nil — the one a runtime given the
// same profile stamps its task records with, so requests and task boxes
// share a time origin.
func (c *Comm) SetProfile(p *trace.Profile, clock func() float64) {
	c.profile = p
	c.clock = clock
	if clock == nil && p != nil {
		c.clock = p.Now
	}
}

// SetMetrics attaches a metrics registry: every posted send, receive
// and collective bumps the taskdep_mpi_* counters (operation count and
// payload bytes). Typically wired to the posting rank's runtime
// registry (Runtime.Obs). Set before posting operations.
func (c *Comm) SetMetrics(r *obs.Registry) { c.metrics = r }

func (c *Comm) newRequest(kind trace.CommKind, bytes int) *Request {
	r := &Request{
		id:    c.world.reqID.Add(1),
		kind:  kind,
		bytes: bytes,
		done:  make(chan struct{}),
		comm:  c,
	}
	if c.profile != nil {
		c.profile.CommPost(r.id, kind, bytes, c.clock())
	}
	if m := c.metrics; m != nil {
		// MPI posts happen inside task bodies on arbitrary workers, and
		// completion callbacks on engine goroutines: route through the
		// registry's external (true atomic) shard. Collective payloads
		// count as sent bytes.
		switch kind {
		case trace.Send:
			m.Add(obs.CMPISends, 1)
			m.Add(obs.CMPIBytesSent, int64(bytes))
		case trace.Recv:
			m.Add(obs.CMPIRecvs, 1)
			m.Add(obs.CMPIBytesRecvd, int64(bytes))
		case trace.Collective:
			m.Add(obs.CMPICollectives, 1)
			m.Add(obs.CMPIBytesSent, int64(bytes))
		}
	}
	return r
}

// Isend posts a nonblocking send of buf to dest with tag. Small messages
// (below the eager threshold) complete immediately; large ones complete
// when the matching receive is posted (rendezvous).
func (c *Comm) Isend(buf []float64, dest, tag int) *Request {
	if dest < 0 || dest >= c.world.size {
		panic(fmt.Sprintf("mpi: Isend to invalid rank %d", dest))
	}
	req := c.newRequest(trace.Send, 8*len(buf))
	eager := len(buf) < DefaultEagerThreshold
	box := c.world.boxes[dest]

	box.mu.Lock()
	if c.world.aborted.Load() {
		box.mu.Unlock()
		req.completeErr(c.world.abortedErr())
		return req
	}
	// Try to match an already-posted receive (FIFO).
	for i := range box.posted {
		p := box.posted[i]
		if (p.src == AnySource || p.src == c.rank) && (p.tag == AnyTag || p.tag == tag) {
			box.posted = append(box.posted[:i], box.posted[i+1:]...)
			copy(p.buf, buf)
			p.req.Source, p.req.Tag = c.rank, tag
			box.mu.Unlock()
			p.req.complete()
			req.complete()
			return req
		}
	}
	// No receive yet: enqueue.
	m := message{src: c.rank, tag: tag}
	if eager {
		m.data = append([]float64(nil), buf...)
	} else {
		m.data = buf // rendezvous: sender buffer referenced until match
		m.sreq = req
	}
	box.unexpected = append(box.unexpected, m)
	box.mu.Unlock()
	if eager {
		req.complete()
	}
	return req
}

// Irecv posts a nonblocking receive into buf from src (or AnySource)
// with tag (or AnyTag).
func (c *Comm) Irecv(buf []float64, src, tag int) *Request {
	req := c.newRequest(trace.Recv, 8*len(buf))
	box := c.world.boxes[c.rank]

	box.mu.Lock()
	if c.world.aborted.Load() {
		box.mu.Unlock()
		req.completeErr(c.world.abortedErr())
		return req
	}
	for i := range box.unexpected {
		m := box.unexpected[i]
		if (src == AnySource || m.src == src) && (tag == AnyTag || m.tag == tag) {
			box.unexpected = append(box.unexpected[:i], box.unexpected[i+1:]...)
			copy(buf, m.data)
			req.Source, req.Tag = m.src, m.tag
			box.mu.Unlock()
			if m.sreq != nil {
				m.sreq.complete() // rendezvous sender completes on match
			}
			req.complete()
			return req
		}
	}
	box.posted = append(box.posted, postedRecv{src: src, tag: tag, buf: buf, req: req})
	box.mu.Unlock()
	return req
}

// Send is a blocking send (Isend + Wait).
func (c *Comm) Send(buf []float64, dest, tag int) { c.Isend(buf, dest, tag).Wait() }

// Recv is a blocking receive (Irecv + Wait). It returns the matched
// source and tag.
func (c *Comm) Recv(buf []float64, src, tag int) (int, int) {
	r := c.Irecv(buf, src, tag)
	r.Wait()
	return r.Source, r.Tag
}

// Iallreduce posts a nonblocking allreduce: recv = op over every rank's
// send. All ranks must call it the same number of times with equal
// lengths; instances match by per-rank call sequence. The request
// completes when every rank has contributed.
func (c *Comm) Iallreduce(op Op, send, recv []float64) *Request {
	if len(send) != len(recv) {
		panic("mpi: Iallreduce length mismatch")
	}
	req := c.newRequest(trace.Collective, 8*len(send))
	seq := atomic.AddInt64(c.collSeq, 1)

	w := c.world
	w.collMu.Lock()
	if w.aborted.Load() {
		w.collMu.Unlock()
		req.completeErr(w.abortedErr())
		return req
	}
	coll := w.colls[seq]
	if coll == nil {
		coll = &collective{op: op, n: len(send), ins: make([][]float64, w.size)}
		w.colls[seq] = coll
	} else if coll.op != op || coll.n != len(send) {
		w.collMu.Unlock()
		panic("mpi: mismatched Iallreduce across ranks")
	}
	coll.ins[c.rank] = append([]float64(nil), send...)
	coll.count++
	coll.outs = append(coll.outs, recv)
	coll.reqs = append(coll.reqs, req)
	if coll.count == w.size {
		delete(w.colls, seq)
		w.collMu.Unlock()
		acc := append([]float64(nil), coll.ins[0]...)
		for rk := 1; rk < w.size; rk++ {
			op.apply(acc, coll.ins[rk])
		}
		for i, out := range coll.outs {
			copy(out, acc)
			coll.reqs[i].complete()
		}
		return req
	}
	w.collMu.Unlock()
	return req
}

// Allreduce is the blocking form of Iallreduce.
func (c *Comm) Allreduce(op Op, send, recv []float64) {
	c.Iallreduce(op, send, recv).Wait()
}

// Wait blocks until the request completes and returns its status: nil
// on success, an ErrAborted-wrapping error when the world aborted.
func (r *Request) Wait() error {
	<-r.done
	return r.err
}

// Waitall blocks until every request completes and returns the joined
// non-nil statuses (nil when all succeeded).
func Waitall(reqs ...*Request) error {
	var errs []error
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if err := r.Wait(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
