package mpi

import (
	"sync/atomic"
	"testing"
	"time"

	"taskdep/internal/trace"
)

func TestEagerThresholdBoundary(t *testing.T) {
	w := NewWorld(2)
	// len == threshold: rendezvous; len < threshold: eager.
	exact := w.Comm(0).Isend(make([]float64, DefaultEagerThreshold), 1, 1)
	if exact.Done() {
		t.Fatalf("at-threshold send completed eagerly")
	}
	below := w.Comm(0).Isend(make([]float64, DefaultEagerThreshold-1), 1, 2)
	if !below.Done() {
		t.Fatalf("below-threshold send did not complete eagerly")
	}
	buf := make([]float64, DefaultEagerThreshold)
	w.Comm(1).Recv(buf, 0, 1)
	exact.Wait()
	w.Comm(1).Recv(buf[:DefaultEagerThreshold-1], 0, 2)
}

func TestRepeatedCommHandlesShareCollectiveSequence(t *testing.T) {
	// World.Comm(rank) called twice must share the per-rank collective
	// counter; otherwise instances mismatch.
	w := NewWorld(2)
	done := make(chan float64, 2)
	go func() {
		var out [1]float64
		w.Comm(0).Allreduce(Sum, []float64{1}, out[:]) // handle A
		w.Comm(0).Allreduce(Sum, []float64{2}, out[:]) // handle B (fresh)
		done <- out[0]
	}()
	go func() {
		var out [1]float64
		c := w.Comm(1)
		c.Allreduce(Sum, []float64{10}, out[:])
		c.Allreduce(Sum, []float64{20}, out[:])
		done <- out[0]
	}()
	a, b := <-done, <-done
	if a != 22 || b != 22 {
		t.Fatalf("results %v %v, want 22 22", a, b)
	}
}

func TestSelfSend(t *testing.T) {
	w := NewWorld(1)
	c := w.Comm(0)
	r := c.Irecv(make([]float64, 1), 0, 5)
	c.Isend([]float64{3}, 0, 5)
	r.Wait()
}

func TestWaitallWithNil(t *testing.T) {
	w := NewWorld(2)
	r := w.Comm(0).Isend([]float64{1}, 1, 0)
	if err := Waitall(nil, r, nil); err != nil {
		t.Fatalf("Waitall = %v", err)
	}
	buf := make([]float64, 1)
	r2 := w.Comm(1).Irecv(buf, 0, 1)
	if r2.Done() {
		t.Fatalf("unmatched recv reported done")
	}
	w.Comm(0).Isend([]float64{2}, 1, 1)
	if err := Waitall(r2); err != nil || buf[0] != 2 {
		t.Fatalf("Waitall = %v, buf = %v", err, buf)
	}
}

func TestRecvCompletionFillsEnvelope(t *testing.T) {
	w := NewWorld(3)
	w.Comm(2).Isend([]float64{1}, 0, 77)
	buf := make([]float64, 1)
	r := w.Comm(0).Irecv(buf, AnySource, AnyTag)
	r.Wait()
	if r.Source != 2 || r.Tag != 77 {
		t.Fatalf("envelope = %d/%d", r.Source, r.Tag)
	}
}

func TestRendezvousZeroCopyVisibility(t *testing.T) {
	// Rendezvous references the sender's buffer until the match; data
	// written before the Isend must arrive intact.
	w := NewWorld(2)
	src := make([]float64, DefaultEagerThreshold)
	for i := range src {
		src[i] = float64(i + 1)
	}
	req := w.Comm(0).Isend(src, 1, 0)
	dst := make([]float64, len(src))
	w.Comm(1).Recv(dst, 0, 0)
	req.Wait()
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], src[i])
		}
	}
}

func TestProfileRecordsRecvSeparately(t *testing.T) {
	w := NewWorld(2)
	p := trace.New(1, true)
	c1 := w.Comm(1)
	c1.SetProfile(p, func() float64 { return 0 })
	buf := make([]float64, 1)
	r := c1.Irecv(buf, 0, 0)
	w.Comm(0).Send([]float64{1}, 1, 0)
	r.Wait()
	// Recv requests are recorded but excluded from the paper's comm
	// metric.
	if got := len(p.Comms()); got != 1 {
		t.Fatalf("records = %d", got)
	}
	if s := p.CommSummary(); s.Requests != 0 {
		t.Fatalf("recv counted in summary: %+v", s)
	}
}

func TestConcurrentSendersManyTags(t *testing.T) {
	const senders, msgs = 4, 50
	w := NewWorld(senders + 1)
	var sum atomic.Int64
	doneCh := make(chan struct{})
	go func() {
		defer close(doneCh)
		c := w.Comm(senders)
		buf := make([]float64, 1)
		for i := 0; i < senders*msgs; i++ {
			c.Recv(buf, AnySource, AnyTag)
			sum.Add(int64(buf[0]))
		}
	}()
	for s := 0; s < senders; s++ {
		go func(s int) {
			c := w.Comm(s)
			for m := 0; m < msgs; m++ {
				c.Send([]float64{1}, senders, m)
			}
		}(s)
	}
	select {
	case <-doneCh:
	case <-time.After(20 * time.Second):
		t.Fatalf("receiver starved: got %d", sum.Load())
	}
	if sum.Load() != senders*msgs {
		t.Fatalf("sum = %d", sum.Load())
	}
}

func TestBarrierRepeated(t *testing.T) {
	const n, rounds = 5, 10
	w := NewWorld(n)
	var phase atomic.Int32
	var bad atomic.Bool
	w.Run(func(c *Comm) {
		for r := 0; r < rounds; r++ {
			phase.Add(1)
			barrier(c)
			if int(phase.Load()) < (r+1)*n {
				bad.Store(true)
			}
			barrier(c) // second barrier prevents next-round overtaking
		}
	})
	if bad.Load() {
		t.Fatalf("barrier round leaked")
	}
}
