package mpi

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"taskdep/internal/trace"
)

func TestSendRecvBlocking(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send([]float64{1, 2, 3}, 1, 7)
		} else {
			buf := make([]float64, 3)
			src, tag := c.Recv(buf, 0, 7)
			if src != 0 || tag != 7 || buf[0] != 1 || buf[2] != 3 {
				t.Errorf("recv = %v src=%d tag=%d", buf, src, tag)
			}
		}
	})
}

func TestEagerSendCompletesBeforeRecv(t *testing.T) {
	w := NewWorld(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c := w.Comm(0)
		r := c.Isend([]float64{42}, 1, 0) // below threshold: eager
		if !r.Done() {
			t.Errorf("eager send did not complete at post")
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("eager send blocked")
	}
	// Receiver still gets the data later.
	buf := make([]float64, 1)
	w.Comm(1).Recv(buf, 0, 0)
	if buf[0] != 42 {
		t.Fatalf("buf = %v", buf)
	}
}

func TestRendezvousSendWaitsForRecv(t *testing.T) {
	w := NewWorld(2)
	big := make([]float64, DefaultEagerThreshold)
	for i := range big {
		big[i] = float64(i)
	}
	c0 := w.Comm(0)
	r := c0.Isend(big, 1, 3)
	time.Sleep(10 * time.Millisecond)
	if r.Done() {
		t.Fatalf("rendezvous send completed before matching recv")
	}
	buf := make([]float64, len(big))
	w.Comm(1).Recv(buf, 0, 3)
	r.Wait()
	if n := len(buf) - 1; buf[n] != float64(n) {
		t.Fatalf("data corrupted: %v", buf)
	}
}

func TestRecvThenSendMatch(t *testing.T) {
	w := NewWorld(2)
	buf := make([]float64, 2)
	req := w.Comm(1).Irecv(buf, 0, 5)
	if req.Done() {
		t.Fatalf("recv completed with no sender")
	}
	w.Comm(0).Send([]float64{9, 8}, 1, 5)
	req.Wait()
	if buf[0] != 9 || buf[1] != 8 {
		t.Fatalf("buf = %v", buf)
	}
}

func TestTagMatching(t *testing.T) {
	w := NewWorld(2)
	c0, c1 := w.Comm(0), w.Comm(1)
	c0.Isend([]float64{1}, 1, 10)
	c0.Isend([]float64{2}, 1, 20)
	buf := make([]float64, 1)
	c1.Recv(buf, 0, 20)
	if buf[0] != 2 {
		t.Fatalf("tag 20 got %v", buf[0])
	}
	c1.Recv(buf, 0, 10)
	if buf[0] != 1 {
		t.Fatalf("tag 10 got %v", buf[0])
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	w := NewWorld(3)
	w.Comm(2).Isend([]float64{5}, 0, 99)
	buf := make([]float64, 1)
	src, tag := w.Comm(0).Recv(buf, AnySource, AnyTag)
	if src != 2 || tag != 99 || buf[0] != 5 {
		t.Fatalf("src=%d tag=%d buf=%v", src, tag, buf)
	}
}

func TestNonOvertakingSameSourceTag(t *testing.T) {
	w := NewWorld(2)
	c0 := w.Comm(0)
	for i := 0; i < 10; i++ {
		c0.Isend([]float64{float64(i)}, 1, 1)
	}
	buf := make([]float64, 1)
	for i := 0; i < 10; i++ {
		w.Comm(1).Recv(buf, 0, 1)
		if buf[0] != float64(i) {
			t.Fatalf("overtaking: got %v want %d", buf[0], i)
		}
	}
}

func TestAllreduceSumMinMax(t *testing.T) {
	const n = 8
	w := NewWorld(n)
	var mu sync.Mutex
	results := map[int][3]float64{}
	w.Run(func(c *Comm) {
		r := float64(c.Rank())
		var sum, mn, mx [1]float64
		c.Allreduce(Sum, []float64{r}, sum[:])
		c.Allreduce(Min, []float64{r}, mn[:])
		c.Allreduce(Max, []float64{r}, mx[:])
		mu.Lock()
		results[c.Rank()] = [3]float64{sum[0], mn[0], mx[0]}
		mu.Unlock()
	})
	for rank, v := range results {
		if v[0] != n*(n-1)/2 || v[1] != 0 || v[2] != n-1 {
			t.Fatalf("rank %d results %v", rank, v)
		}
	}
}

func TestIallreduceNonblockingOverlap(t *testing.T) {
	w := NewWorld(4)
	var overlapped atomic.Int32
	w.Run(func(c *Comm) {
		in := []float64{float64(c.Rank() + 1)}
		out := make([]float64, 1)
		req := c.Iallreduce(Sum, in, out)
		overlapped.Add(1) // work between post and wait
		req.Wait()
		if out[0] != 10 {
			t.Errorf("sum = %v", out[0])
		}
	})
	if overlapped.Load() != 4 {
		t.Fatalf("ranks did not proceed past post")
	}
}

// barrier is the one-element Allreduce every rank must join before any
// leaves it.
func barrier(c *Comm) {
	var x, y [1]float64
	c.Allreduce(Sum, x[:], y[:])
}

func TestBarrier(t *testing.T) {
	const n = 6
	w := NewWorld(n)
	var phase atomic.Int32
	var bad atomic.Bool
	w.Run(func(c *Comm) {
		phase.Add(1)
		barrier(c)
		if phase.Load() != n {
			bad.Store(true)
		}
	})
	if bad.Load() {
		t.Fatalf("barrier released early")
	}
}

func TestOnCompleteFiresOnce(t *testing.T) {
	w := NewWorld(2)
	var fires atomic.Int32
	buf := make([]float64, 1)
	req := w.Comm(1).Irecv(buf, 0, 0)
	req.OnComplete(func() { fires.Add(1) })
	w.Comm(0).Send([]float64{1}, 1, 0)
	req.Wait()
	req.OnComplete(func() { fires.Add(1) }) // already done: fires now
	if fires.Load() != 2 {
		t.Fatalf("fires = %d, want 2 (once per registration)", fires.Load())
	}
}

func TestOnCompleteAfterCompletionRunsImmediately(t *testing.T) {
	w := NewWorld(2)
	r := w.Comm(0).Isend([]float64{1}, 1, 0) // eager: done at post
	var ran atomic.Bool
	r.OnComplete(func() { ran.Store(true) })
	if !ran.Load() {
		t.Fatalf("late OnComplete did not run")
	}
}

func TestProfileRecordsSendAndCollective(t *testing.T) {
	w := NewWorld(2)
	p := trace.New(1, true)
	clk := func() float64 { return 1.0 }
	var recvd atomic.Bool
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.SetProfile(p, clk)
			c.Isend([]float64{1}, 1, 0).Wait()
			var a, b [1]float64
			c.Iallreduce(Sum, a[:], b[:]).Wait()
		} else {
			buf := make([]float64, 1)
			c.Recv(buf, 0, 0)
			recvd.Store(true)
			var a, b [1]float64
			c.Iallreduce(Sum, a[:], b[:]).Wait()
		}
	})
	if !recvd.Load() {
		t.Fatalf("recv missing")
	}
	s := p.CommSummary()
	if s.Requests != 2 {
		t.Fatalf("profiled requests = %d, want 2 (send + collective)", s.Requests)
	}
}

func TestManyRanksRing(t *testing.T) {
	const n = 16
	w := NewWorld(n)
	var sum atomic.Int64
	w.Run(func(c *Comm) {
		next := (c.Rank() + 1) % n
		prev := (c.Rank() - 1 + n) % n
		buf := make([]float64, 1)
		rr := c.Irecv(buf, prev, 0)
		c.Isend([]float64{float64(c.Rank())}, next, 0)
		rr.Wait()
		sum.Add(int64(buf[0]))
	})
	if sum.Load() != n*(n-1)/2 {
		t.Fatalf("ring sum = %d", sum.Load())
	}
}

// TestPropertyExchangeDeliversExactly: random pairwise exchanges deliver
// every message exactly once with correct payload.
func TestPropertyExchangeDeliversExactly(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6) + 2
		msgs := rng.Intn(20) + 1
		w := NewWorld(n)
		// Plan: each message i goes src->dst with tag i and value i.
		type plan struct{ src, dst int }
		plans := make([]plan, msgs)
		for i := range plans {
			plans[i] = plan{rng.Intn(n), rng.Intn(n)}
		}
		var total atomic.Int64
		w.Run(func(c *Comm) {
			var reqs []*Request
			for i, pl := range plans {
				if pl.dst == c.Rank() {
					buf := make([]float64, 1)
					i := i
					r := c.Irecv(buf, pl.src, i)
					r.OnComplete(func() { total.Add(int64(buf[0])) })
					reqs = append(reqs, r)
				}
			}
			for i, pl := range plans {
				if pl.src == c.Rank() {
					c.Isend([]float64{float64(i)}, pl.dst, i)
				}
			}
			Waitall(reqs...)
		})
		want := int64(msgs * (msgs - 1) / 2)
		return total.Load() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAllreduceEquivalentToSerial checks vector allreduce against
// a serial reduction for random inputs.
func TestPropertyAllreduceEquivalentToSerial(t *testing.T) {
	f := func(seed int64, opRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6) + 2
		l := rng.Intn(10) + 1
		op := Op(opRaw % 3)
		in := make([][]float64, n)
		for r := range in {
			in[r] = make([]float64, l)
			for i := range in[r] {
				in[r][i] = rng.NormFloat64()
			}
		}
		want := append([]float64(nil), in[0]...)
		for r := 1; r < n; r++ {
			op.apply(want, in[r])
		}
		w := NewWorld(n)
		outs := make([][]float64, n)
		w.Run(func(c *Comm) {
			out := make([]float64, l)
			c.Allreduce(op, in[c.Rank()], out)
			outs[c.Rank()] = out
		})
		for r := 0; r < n; r++ {
			for i := 0; i < l; i++ {
				if math.Abs(outs[r][i]-want[i]) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEagerSendRecv(b *testing.B) {
	w := NewWorld(2)
	c0, c1 := w.Comm(0), w.Comm(1)
	buf := []float64{1, 2, 3, 4}
	rbuf := make([]float64, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c0.Isend(buf, 1, 0)
		c1.Recv(rbuf, 0, 0)
	}
}

func BenchmarkAllreduce8(b *testing.B) {
	const n = 8
	w := NewWorld(n)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := w.Comm(rank)
			in := []float64{float64(rank)}
			out := make([]float64, 1)
			for i := 0; i < b.N; i++ {
				c.Allreduce(Sum, in, out)
			}
		}(r)
	}
	wg.Wait()
}
