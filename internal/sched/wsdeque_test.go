package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"taskdep/internal/graph"
)

func TestWSDequeLIFOOwner(t *testing.T) {
	d := &WSDeque{}
	if d.PopTop() != nil {
		t.Fatalf("zero-value deque should pop nil")
	}
	ts := mkTasks(10)
	for _, tk := range ts {
		d.PushTop(tk)
	}
	if d.Len() != 10 {
		t.Fatalf("Len = %d, want 10", d.Len())
	}
	for i := 9; i >= 0; i-- {
		got := d.PopTop()
		if got == nil || got.ID != int64(i) {
			t.Fatalf("PopTop = %v, want id %d", got, i)
		}
	}
	if d.PopTop() != nil {
		t.Fatalf("drained deque should pop nil")
	}
}

func TestWSDequeStealFIFO(t *testing.T) {
	d := &WSDeque{}
	if tk, retry := d.Steal(); tk != nil || retry {
		t.Fatalf("empty steal = (%v, %v), want (nil, false)", tk, retry)
	}
	ts := mkTasks(10)
	d.PushTopAll(ts)
	for i := 0; i < 10; i++ {
		tk, retry := d.Steal()
		if retry || tk == nil || tk.ID != int64(i) {
			t.Fatalf("Steal %d = (%v, %v), want id %d", i, tk, retry, i)
		}
	}
	if tk, retry := d.Steal(); tk != nil || retry {
		t.Fatalf("drained steal = (%v, %v), want (nil, false)", tk, retry)
	}
}

func TestWSDequeGrowthPreservesOrder(t *testing.T) {
	d := &WSDeque{}
	ts := mkTasks(300)
	// Interleave to move the steal index before growth wraps indices.
	for _, tk := range ts[:50] {
		d.PushTop(tk)
	}
	for i := 0; i < 40; i++ {
		d.Steal()
	}
	d.PushTopAll(ts[50:])
	want := int64(40)
	for {
		tk, _ := d.Steal()
		if tk == nil {
			break
		}
		if tk.ID != want {
			t.Fatalf("order broken after growth: got %d want %d", tk.ID, want)
		}
		want++
	}
	if want != 300 {
		t.Fatalf("drained up to %d, want 300", want)
	}
}

// drainWS runs nThieves stealing goroutines against d until stop is
// closed and the deque is empty, recording each stolen task exactly once
// in seen.
func drainWS(t *testing.T, d *WSDeque, nThieves int, stop chan struct{}, seen *sync.Map, counts []int64) *sync.WaitGroup {
	var wg sync.WaitGroup
	for th := 0; th < nThieves; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			drain := false
			for {
				tk, retry := d.Steal()
				if tk != nil {
					if _, dup := seen.LoadOrStore(tk.ID, th); dup {
						t.Errorf("task %d stolen twice", tk.ID)
					}
					atomic.AddInt64(&counts[th], 1)
					drain = false
					continue
				}
				if retry {
					continue
				}
				if drain {
					return
				}
				select {
				case <-stop:
					drain = true
				default:
					runtime.Gosched()
				}
			}
		}(th)
	}
	return &wg
}

// TestWSDequeOwnerVsThieves races owner push/pop against multiple
// thieves: every task must surface exactly once, on exactly one side.
// Run with -race.
func TestWSDequeOwnerVsThieves(t *testing.T) {
	const nTasks = 20000
	const nThieves = 4
	d := &WSDeque{}
	var seen sync.Map
	counts := make([]int64, nThieves+1)
	stop := make(chan struct{})
	wg := drainWS(t, d, nThieves, stop, &seen, counts)

	// Owner: push in small bursts, pop some back immediately (the
	// depth-first execution pattern), leaving the rest to thieves.
	id := int64(0)
	buf := make([]*graph.Task, 0, 8)
	for id < nTasks {
		buf = buf[:0]
		for k := 0; k < 8 && id < nTasks; k++ {
			buf = append(buf, &graph.Task{ID: id})
			id++
		}
		d.PushTopAll(buf)
		for k := 0; k < 3; k++ {
			if tk := d.PopTop(); tk != nil {
				if _, dup := seen.LoadOrStore(tk.ID, "owner"); dup {
					t.Errorf("task %d seen twice (owner)", tk.ID)
				}
				atomic.AddInt64(&counts[nThieves], 1)
			}
		}
	}
	// Owner drains its remainder, racing the thieves for the tail.
	for tk := d.PopTop(); tk != nil; tk = d.PopTop() {
		if _, dup := seen.LoadOrStore(tk.ID, "owner"); dup {
			t.Errorf("task %d seen twice (owner drain)", tk.ID)
		}
		atomic.AddInt64(&counts[nThieves], 1)
	}
	close(stop)
	wg.Wait()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != nTasks {
		t.Fatalf("surfaced %d of %d tasks", total, nTasks)
	}
}

// TestWSDequeStealDuringGrow keeps the deque growing (never popping on
// the owner side) while thieves steal, so claims overlap array
// generation swaps. Run with -race.
func TestWSDequeStealDuringGrow(t *testing.T) {
	const nTasks = 50000
	const nThieves = 3
	d := &WSDeque{}
	var seen sync.Map
	counts := make([]int64, nThieves)
	stop := make(chan struct{})
	wg := drainWS(t, d, nThieves, stop, &seen, counts)

	for id := int64(0); id < nTasks; id++ {
		d.PushTop(&graph.Task{ID: id}) // grows through many generations
	}
	close(stop)
	wg.Wait()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != nTasks {
		t.Fatalf("stole %d of %d tasks", total, nTasks)
	}
}

// TestWSDequeOneElementRace races the owner's PopTop against a thief's
// Steal on single-element deques: exactly one side must win each round.
// Run with -race.
func TestWSDequeOneElementRace(t *testing.T) {
	const rounds = 30000
	d := &WSDeque{}
	var ownerWins, thiefWins int64
	start := make(chan struct{}) // unbuffered: round barrier
	stolen := make(chan *graph.Task)
	go func() {
		for range start {
			var tk *graph.Task
			for {
				var retry bool
				tk, retry = d.Steal()
				if !retry {
					break
				}
			}
			stolen <- tk
		}
	}()
	for i := 0; i < rounds; i++ {
		tk := &graph.Task{ID: int64(i)}
		d.PushTop(tk)
		start <- struct{}{}
		mine := d.PopTop()
		theirs := <-stolen
		switch {
		case mine == tk && theirs == nil:
			ownerWins++
		case mine == nil && theirs == tk:
			thiefWins++
		default:
			t.Fatalf("round %d: owner=%v thief=%v", i, mine, theirs)
		}
		if d.Len() != 0 {
			t.Fatalf("round %d: deque not empty", i)
		}
	}
	if ownerWins+thiefWins != rounds {
		t.Fatalf("wins %d+%d != %d", ownerWins, thiefWins, rounds)
	}
	close(start)
}

// TestSchedulerStarvationFreedom parks all but one worker's production:
// worker 0 owner-pushes every task while the rest only steal; every
// task must eventually run — no thief starves the owner and no task is
// stranded. Run with -race.
func TestSchedulerStarvationFreedom(t *testing.T) {
	const nTasks = 20000
	const nWorkers = 6
	s := New(DepthFirst, nWorkers)
	var seen sync.Map
	var done int64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Workers 1..n-1 never produce; they live off steals alone.
	for w := 1; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				tk := s.Pop(w)
				if tk == nil {
					select {
					case <-stop:
						return
					default:
						runtime.Gosched()
						continue
					}
				}
				if _, dup := seen.LoadOrStore(tk.ID, w); dup {
					t.Errorf("task %d ran twice", tk.ID)
				}
				atomic.AddInt64(&done, 1)
			}
		}(w)
	}
	// Worker 0 produces everything and also executes its own share.
	for id := int64(0); id < nTasks; id++ {
		s.Push(0, &graph.Task{ID: id})
		if id%4 == 0 {
			if tk := s.Pop(0); tk != nil {
				if _, dup := seen.LoadOrStore(tk.ID, 0); dup {
					t.Errorf("task %d ran twice (owner)", tk.ID)
				}
				atomic.AddInt64(&done, 1)
			}
		}
	}
	for tk := s.Pop(0); tk != nil; tk = s.Pop(0) {
		if _, dup := seen.LoadOrStore(tk.ID, 0); dup {
			t.Errorf("task %d ran twice (owner drain)", tk.ID)
		}
		atomic.AddInt64(&done, 1)
	}
	// Liveness: every submitted task surfaces somewhere.
	for atomic.LoadInt64(&done) != nTasks {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
}

func BenchmarkWSDequePushPop(b *testing.B) {
	d := &WSDeque{}
	tk := &graph.Task{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.PushTop(tk)
		d.PopTop()
	}
}

func BenchmarkWSDequePushBatch8(b *testing.B) {
	d := &WSDeque{}
	ts := mkTasks(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.PushTopAll(ts)
		for k := 0; k < 8; k++ {
			d.PopTop()
		}
	}
}

func BenchmarkWSDequeSteal(b *testing.B) {
	d := &WSDeque{}
	tk := &graph.Task{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.PushTop(tk)
		d.Steal()
	}
}

func BenchmarkSchedulerPushPopLockFree(b *testing.B) {
	s := New(DepthFirst, 1)
	tk := &graph.Task{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Push(0, tk)
		s.Pop(0)
	}
}

func BenchmarkParkWakeRoundTrip(b *testing.B) {
	s := New(DepthFirst, 1)
	ready := make(chan struct{}, 1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			snap := s.PrePark(0)
			ready <- struct{}{}
			if s.Seq() == snap {
				s.Park(0)
			} else {
				s.CancelPark(0)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		<-ready
		s.Kick()
	}
	b.StopTimer()
	close(stop)
	s.Kick() // release the parker if it re-parked before seeing stop
	wg.Wait()
}
