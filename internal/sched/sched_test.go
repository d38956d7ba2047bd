package sched

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"taskdep/internal/graph"
)

func mkTasks(n int) []*graph.Task {
	ts := make([]*graph.Task, n)
	for i := range ts {
		ts[i] = &graph.Task{ID: int64(i)}
	}
	return ts
}

func TestDequeStealFIFO(t *testing.T) {
	d := &Deque{}
	ts := mkTasks(10)
	for _, tk := range ts {
		d.PushTop(tk)
	}
	for i := 0; i < 10; i++ {
		got := d.PopBottom()
		if got == nil || got.ID != int64(i) {
			t.Fatalf("PopBottom = %v, want id %d", got, i)
		}
	}
	if d.PopBottom() != nil {
		t.Fatalf("empty deque should return nil")
	}
}

func TestDequeGrowthAcrossWrap(t *testing.T) {
	d := &Deque{}
	ts := mkTasks(100)
	// Interleave pushes and pops to force head movement before growth.
	for i := 0; i < 20; i++ {
		d.PushTop(ts[i])
	}
	for i := 0; i < 15; i++ {
		d.PopBottom()
	}
	for i := 20; i < 100; i++ {
		d.PushTop(ts[i])
	}
	want := int64(15)
	for d.Len() > 0 {
		got := d.PopBottom()
		if got.ID != want {
			t.Fatalf("order broken after growth: got %d want %d", got.ID, want)
		}
		want++
	}
	if want != 100 {
		t.Fatalf("drained %d items, want 85", want-15)
	}
}

// TestPropertyDequeSequence model-checks the queue against a reference
// slice under random operation sequences.
func TestPropertyDequeSequence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := &Deque{}
		var ref []*graph.Task
		id := int64(0)
		for op := 0; op < 200; op++ {
			switch rng.Intn(3) {
			case 0:
				tk := &graph.Task{ID: id}
				id++
				d.PushTop(tk)
				ref = append(ref, tk)
			case 1:
				// A batch long enough to force growth across a wrapped head.
				batch := make([]*graph.Task, rng.Intn(12))
				for i := range batch {
					batch[i] = &graph.Task{ID: id}
					id++
				}
				d.PushTopAll(batch)
				ref = append(ref, batch...)
			case 2:
				got := d.PopBottom()
				if len(ref) == 0 {
					if got != nil {
						return false
					}
				} else {
					want := ref[0]
					ref = ref[1:]
					if got != want {
						return false
					}
				}
			}
			if d.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulerDepthFirstPrefersOwnTop(t *testing.T) {
	s := New(DepthFirst, 2)
	ts := mkTasks(3)
	s.Push(0, ts[0])
	s.Push(0, ts[1])
	s.Push(1, ts[2])
	if got := s.Pop(0); got != ts[1] {
		t.Fatalf("worker 0 should pop its own LIFO top, got %d", got.ID)
	}
	if got := s.Pop(1); got != ts[2] {
		t.Fatalf("worker 1 should pop its own task, got %d", got.ID)
	}
	// Worker 1's deque is empty; it steals worker 0's oldest.
	if got := s.Pop(1); got != ts[0] {
		t.Fatalf("worker 1 should steal task 0, got %v", got)
	}
}

func TestSchedulerProducerPushGoesGlobalFIFO(t *testing.T) {
	s := New(DepthFirst, 2)
	ts := mkTasks(3)
	for _, tk := range ts {
		s.Push(-1, tk)
	}
	for i := 0; i < 3; i++ {
		if got := s.Pop(0); got != ts[i] {
			t.Fatalf("global queue not FIFO at %d: got %v", i, got)
		}
	}
}

func TestSchedulerBreadthFirstIsGlobalFIFO(t *testing.T) {
	s := New(BreadthFirst, 4)
	ts := mkTasks(8)
	for i, tk := range ts {
		s.Push(i%4, tk) // worker attribution ignored
	}
	for i := 0; i < 8; i++ {
		if got := s.Pop(i % 4); got != ts[i] {
			t.Fatalf("breadth-first order broken at %d", i)
		}
	}
}

func TestSchedulerPending(t *testing.T) {
	s := New(DepthFirst, 2)
	ts := mkTasks(5)
	s.Push(0, ts[0])
	s.Push(1, ts[1])
	s.Push(-1, ts[2])
	if s.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", s.Pending())
	}
	s.Pop(0)
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
}

// parkBlocked runs PrePark+Park for worker w in a goroutine (re-checking
// the wake condition as the protocol requires) and returns a channel
// closed once Park returns.
func parkBlocked(s *Scheduler, w int) chan struct{} {
	done := make(chan struct{})
	ready := make(chan struct{})
	go func() {
		snap := s.PrePark(w)
		if s.Pop(w) != nil || s.Seq() != snap {
			s.CancelPark(w)
			close(ready)
			close(done)
			return
		}
		close(ready)
		s.Park(w)
		close(done)
	}()
	<-ready
	return done
}

func TestParkWakesOnPush(t *testing.T) {
	t.Run("lock-free", func(t *testing.T) {
		s := New(DepthFirst, 1)
		done := parkBlocked(s, 0)
		s.Push(-1, &graph.Task{})
		<-done // must not hang
		if got := s.Pop(0); got == nil {
			t.Fatalf("task lost")
		}
	})
}

func TestKickWakesParkedWithoutWork(t *testing.T) {
	t.Run("lock-free", func(t *testing.T) {
		s := New(DepthFirst, 1)
		done := parkBlocked(s, 0)
		s.Kick()
		<-done
	})
}

func TestWakeProducerWakesParkedProducer(t *testing.T) {
	t.Run("lock-free", func(t *testing.T) {
		s := New(DepthFirst, 2)
		done := parkBlocked(s, -1)
		s.WakeProducer()
		<-done
	})
}

func TestCancelParkAbsorbsConcurrentWake(t *testing.T) {
	// A waker claiming a slot whose parker cancels concurrently must not
	// wedge the slot: the token is either absorbed by CancelPark or
	// buffered for the next Park, which then returns immediately.
	s := New(DepthFirst, 1)
	for i := 0; i < 1000; i++ {
		s.PrePark(0)
		go s.WakeOne()
		s.CancelPark(0)
		// The slot must still be usable for a real park/wake cycle.
		done := parkBlocked(s, 0)
		s.Kick()
		<-done
	}
}

// TestBatchRampsUpEveryWorker: one batch published to a fully parked pool
// must reach every worker, under either policy — PushBatch wakes one slot
// and each pop that leaves work behind wakes the next. The bodies block
// until the test has counted the workers that started, so a pool that
// runs the batch on one worker never gets there.
func TestBatchRampsUpEveryWorker(t *testing.T) {
	for _, policy := range []Policy{DepthFirst, BreadthFirst} {
		for _, workers := range []int{2, 4} {
			t.Run(fmt.Sprintf("%v/%d", policy, workers), func(t *testing.T) {
				s := New(policy, workers)
				started := make(chan int, workers)
				release := make(chan struct{})
				var stop atomic.Bool
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for !stop.Load() {
							if s.Pop(w) != nil {
								started <- w
								<-release // the task's body
								continue
							}
							snap := s.PrePark(w)
							if s.Pending() > 0 || stop.Load() || s.Seq() != snap {
								s.CancelPark(w)
								continue
							}
							s.Park(w)
						}
					}(w)
				}
				for s.IdleWorkers() < workers {
					runtime.Gosched()
				}
				s.PushBatch(-1, mkTasks(workers))
				seen := make(map[int]bool)
				timeout := time.After(10 * time.Second)
			wait:
				for len(seen) < workers {
					select {
					case w := <-started:
						seen[w] = true
					case <-timeout:
						t.Errorf("%d of %d workers started a task of the batch; %d tasks still queued", len(seen), workers, s.Pending())
						break wait
					}
				}
				close(release)
				stop.Store(true)
				s.Kick()
				wg.Wait()
			})
		}
	}
}

// TestConcurrentStealNoLossNoDup runs a cross-thread producer against
// stealing workers, each of which also owner-pushes follow-up tasks to
// its own deque, and checks every task is seen exactly once. Run with
// -race.
func TestConcurrentStealNoLossNoDup(t *testing.T) {
	t.Run("lock-free", func(t *testing.T) {
		const nRoots = 5000
		const nWorkers = 8
		const fanout = 1 // one child per root, owner-pushed
		s := New(DepthFirst, nWorkers)
		ts := mkTasks(nRoots * (1 + fanout))

		var seen sync.Map
		var wg sync.WaitGroup
		var popped [nWorkers]int64

		stop := make(chan struct{})
		for w := 0; w < nWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				drain := false
				for {
					tk := s.Pop(w)
					if tk == nil {
						if drain {
							return
						}
						select {
						case <-stop:
							drain = true
						default:
						}
						continue
					}
					drain = false
					if _, dup := seen.LoadOrStore(tk.ID, w); dup {
						t.Errorf("task %d seen twice", tk.ID)
					}
					atomic.AddInt64(&popped[w], 1)
					// Roots spawn a child onto the worker's own deque —
					// the owner-push side of the ownership contract.
					if tk.ID < nRoots {
						s.Push(w, ts[nRoots+tk.ID])
					}
				}
			}(w)
		}
		for _, tk := range ts[:nRoots] {
			s.Push(-1, tk)
		}
		// Roots are visible; children only appear after their root is
		// popped, so spin until everything is accounted for.
		for {
			total := int64(0)
			for w := range popped {
				total += atomic.LoadInt64(&popped[w])
			}
			if total == int64(nRoots*(1+fanout)) {
				break
			}
			runtime.Gosched()
		}
		close(stop)
		s.Kick()
		wg.Wait()
	})
}

func BenchmarkDequePushPop(b *testing.B) {
	d := &Deque{}
	tk := &graph.Task{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.PushTop(tk)
		d.PopBottom()
	}
}

func BenchmarkSchedulerPushPop(b *testing.B) {
	s := New(DepthFirst, 8)
	tk := &graph.Task{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Push(i%8, tk)
		s.Pop(i % 8)
	}
}
