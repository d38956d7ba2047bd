package mpi

// Abort-propagation tests: a failed rank must error out its peers'
// pending communication instead of leaving them deadlocked against a
// rank that will never post.

import (
	"errors"
	"testing"
	"time"
)

// TestAbortErrorsPendingRendezvousSend is the deadlock scenario the
// abort path exists for: a rendezvous send whose matching receive will
// never be posted (the receiver failed) completes with an error instead
// of blocking forever.
func TestAbortErrorsPendingRendezvousSend(t *testing.T) {
	w := NewWorld(2)
	cause := errors.New("rank 1 task failure")
	big := make([]float64, DefaultEagerThreshold)
	r := w.Comm(0).Isend(big, 1, 3)
	time.Sleep(5 * time.Millisecond)
	if r.Done() {
		t.Fatalf("rendezvous send completed with no receiver")
	}
	w.Comm(1).Abort(cause) // rank 1 dies before posting its recv
	done := make(chan error, 1)
	go func() { done <- r.Wait() }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrAborted) || !errors.Is(err, cause) {
			t.Fatalf("Wait = %v, want ErrAborted wrapping the cause", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Wait deadlocked despite the abort")
	}
}

// TestAbortErrorsPostedRecv: a posted receive with no sender errors out.
func TestAbortErrorsPostedRecv(t *testing.T) {
	w := NewWorld(2)
	buf := make([]float64, 4)
	r := w.Comm(1).Irecv(buf, 0, 9)
	w.Abort(nil)
	if err := r.Wait(); !errors.Is(err, ErrAborted) {
		t.Fatalf("Wait = %v, want ErrAborted", err)
	}
}

// TestAbortErrorsHalfGatheredCollective: an allreduce some ranks never
// join completes with the abort error on the ranks that did.
func TestAbortErrorsHalfGatheredCollective(t *testing.T) {
	w := NewWorld(3)
	in, out := []float64{1}, make([]float64, 1)
	r := w.Comm(0).Iallreduce(Sum, in, out)
	w.Abort(errors.New("peer gone"))
	if err := r.Wait(); !errors.Is(err, ErrAborted) {
		t.Fatalf("Wait = %v, want ErrAborted", err)
	}
}

// TestPostAfterAbortFailsImmediately: communication posted after the
// abort completes at once with the error — no new deadlocks form.
func TestPostAfterAbortFailsImmediately(t *testing.T) {
	w := NewWorld(2)
	cause := errors.New("down")
	w.Abort(cause)
	if !w.Aborted() {
		t.Fatalf("Aborted() false after Abort")
	}
	r := w.Comm(0).Isend(make([]float64, DefaultEagerThreshold), 1, 0)
	if !r.Done() {
		t.Fatalf("post-abort send did not complete immediately")
	}
	if err := r.Err(); !errors.Is(err, cause) {
		t.Fatalf("Err = %v, want the abort cause", err)
	}
	buf := make([]float64, 1)
	if err := w.Comm(1).Irecv(buf, 0, 0).Wait(); !errors.Is(err, ErrAborted) {
		t.Fatalf("post-abort recv Wait = %v", err)
	}
}

// TestAbortIdempotentFirstCauseWins: repeated aborts keep the first
// cause.
func TestAbortIdempotentFirstCauseWins(t *testing.T) {
	w := NewWorld(2)
	first, second := errors.New("first"), errors.New("second")
	w.Abort(first)
	w.Abort(second)
	r := w.Comm(0).Irecv(make([]float64, 1), 1, 0)
	err := r.Wait()
	if !errors.Is(err, first) {
		t.Fatalf("Wait = %v, want the first cause", err)
	}
	if errors.Is(err, second) {
		t.Fatalf("second cause overwrote the first: %v", err)
	}
}

// TestAbortFiresOnComplete: detached-task events bridged via OnComplete
// must still fire when the request completes with an error, or the task
// graph would never drain.
func TestAbortFiresOnComplete(t *testing.T) {
	w := NewWorld(2)
	r := w.Comm(0).Irecv(make([]float64, 1), 1, 4)
	fired := make(chan struct{})
	r.OnComplete(func() { close(fired) })
	w.Abort(nil)
	select {
	case <-fired:
	case <-time.After(10 * time.Second):
		t.Fatalf("OnComplete did not fire on error completion")
	}
}
