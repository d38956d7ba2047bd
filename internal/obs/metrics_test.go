package obs

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterNamesComplete(t *testing.T) {
	seen := map[string]bool{}
	for c := Counter(0); c < NumCounters; c++ {
		n := c.Name()
		if n == "" || n == "taskdep_unknown_total" {
			t.Fatalf("counter %d has no name", c)
		}
		if !strings.HasPrefix(n, "taskdep_") || !strings.HasSuffix(n, "_total") {
			t.Fatalf("counter %d name %q violates the naming convention", c, n)
		}
		if seen[n] {
			t.Fatalf("duplicate counter name %q", n)
		}
		seen[n] = true
	}
	for h := Histo(0); h < NumHistos; h++ {
		if h.Name() == "taskdep_unknown_ns" {
			t.Fatalf("histogram %d has no name", h)
		}
	}
}

func TestOwnerAndExternalRouting(t *testing.T) {
	r := New(2, time.Now(), Options{})
	r.IncSlot(0, CDequePop)
	r.IncSlot(1, CDequePop)
	r.IncSlot(2, CDequePop)  // producer slot
	r.IncSlot(-1, CDequePop) // external
	r.IncSlot(99, CDequePop) // out of range -> external
	r.Add(CDequePop, 1)
	r.FlushAll() // owner increments are pending until a flush point
	if got := r.Counter(CDequePop); got != 6 {
		t.Fatalf("merged CDequePop = %d, want 6", got)
	}
	r.AddSlot(1, CDequePush, 41)
	r.IncSlot(1, CDequePush)
	r.FlushSlot(1)
	if got := r.Counter(CDequePush); got != 42 {
		t.Fatalf("merged CDequePush = %d, want 42", got)
	}
}

func TestDisableAndToggle(t *testing.T) {
	r := New(1, time.Now(), Options{Disable: true})
	if r.Enabled() || r.TimingOn() {
		t.Fatal("Disable should turn both tiers off")
	}
	r.IncSlot(0, CParks)
	r.Add(CParks, 1)
	r.ObserveSlot(0, HTaskBodyNs, 100)
	r.FlushAll()
	if r.Counter(CParks) != 0 || r.Histogram(HTaskBodyNs).Count != 0 {
		t.Fatal("disabled registry must record nothing")
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.IncSlot(0, CParks)
	r.AddSlot(0, CParks, 3)
	r.Add(CParks, 1)
	r.FlushSlot(0)
	r.MaybeFlush(0)
	r.FlushAll()
	r.ObserveSlot(0, HTaskBodyNs, 5)
	r.Instant(0, InstSkip, 1, 0, 0)
	sp := r.BeginSpan(0, SpanTaskBody, 1, 0, 0)
	sp.End()
	if r.Sampled(0) || r.Enabled() || r.TimingOn() {
		t.Fatal("nil registry must report everything off")
	}
	if r.Counter(CParks) != 0 || len(r.DrainSpans()) != 0 || r.Slots() != 0 {
		t.Fatal("nil registry reads must be empty")
	}
	if err := r.WriteMetrics(nil); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentShardWritesAndMergedReads exercises the single-writer
// owner shards (one goroutine per slot), external-shard atomics from
// several goroutines, and concurrent merged reads — the -race proof of
// the shard layout's memory model.
func TestConcurrentShardWritesAndMergedReads(t *testing.T) {
	const slots = 4
	const perSlot = 20000
	const extWriters = 3
	r := New(slots, time.Now(), Options{Spans: true})
	var wg sync.WaitGroup
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSlot; i++ {
				r.IncSlot(s, CTasksExecuted)
				r.AddSlot(s, CDequePush, 2)
				r.ObserveSlot(s, HTaskBodyNs, int64(i%5000))
				// Owner-driven periodic flush, concurrent with the
				// merged readers below.
				r.MaybeFlush(s)
			}
			r.FlushSlot(s)
		}(s)
	}
	for e := 0; e < extWriters; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSlot; i++ {
				r.Add(CWakes, 1)
				r.IncSlot(-1, CTasksExecuted)
			}
		}()
	}
	// Concurrent merged reads: values must be torn-free and monotone.
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := r.Counter(CTasksExecuted)
			if v < last {
				t.Errorf("merged counter went backwards: %d -> %d", last, v)
				return
			}
			last = v
			_ = r.Histogram(HTaskBodyNs)
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()
	if got, want := r.Counter(CTasksExecuted), int64((slots+extWriters)*perSlot); got != want {
		t.Fatalf("CTasksExecuted = %d, want %d", got, want)
	}
	if got, want := r.Counter(CDequePush), int64(slots*perSlot*2); got != want {
		t.Fatalf("CDequePush = %d, want %d", got, want)
	}
	if got, want := r.Counter(CWakes), int64(extWriters*perSlot); got != want {
		t.Fatalf("CWakes = %d, want %d", got, want)
	}
	h := r.Histogram(HTaskBodyNs)
	if h.Count != int64(slots*perSlot) {
		t.Fatalf("histogram count = %d, want %d", h.Count, slots*perSlot)
	}
}

func TestWriteMetricsServesAllSeries(t *testing.T) {
	r := New(2, time.Now(), Options{Spans: true})
	r.IncSlot(0, CTasksExecuted)
	r.FlushSlot(0)
	r.ObserveSlot(0, HTaskBodyNs, 1500)
	r.RegisterCounterFunc("taskdep_edges_created_total", func() int64 { return 7 })
	r.RegisterGauge("taskdep_graph_live_tasks", func() float64 { return 3 })
	var b strings.Builder
	if err := r.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	page := b.String()
	for c := Counter(0); c < NumCounters; c++ {
		if !strings.Contains(page, "\n"+c.Name()+" ") && !strings.HasPrefix(page, c.Name()+" ") {
			t.Errorf("/metrics page is missing counter %s", c.Name())
		}
	}
	for h := Histo(0); h < NumHistos; h++ {
		if !strings.Contains(page, h.Name()+"_count") {
			t.Errorf("/metrics page is missing histogram %s", h.Name())
		}
	}
	for _, want := range []string{
		"taskdep_edges_created_total 7",
		"# TYPE taskdep_graph_live_tasks gauge",
		"taskdep_graph_live_tasks 3",
		"taskdep_tasks_executed_total 1",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics page is missing %q", want)
		}
	}
}

// TestWindowConcurrentPhaseFlush drives the critical-path phase
// counters through both write disciplines — owner AddSlot with
// FlushSlot drains (the ObserveRelease path) and external Add (the
// cold-point EndWindow flush) — while a reader samples the merged
// counters concurrently, then runs FlushAll against the still-running
// reader. Under -race this pins down the snapshot contract: readers
// never need shard coordination, and FlushAll only requires writer
// quiescence, not reader quiescence. Reads must never go backwards and
// totals must be exact at the end.
func TestWindowConcurrentPhaseFlush(t *testing.T) {
	const (
		slots   = 3
		perSlot = 10000
		extAdds = 25000
	)
	r := New(slots, time.Now(), Options{})

	var wg sync.WaitGroup
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSlot; i++ {
				r.AddSlot(s, CPhaseReleaseNs, 1)
				if i%64 == 0 {
					r.FlushSlot(s)
				}
			}
			r.FlushSlot(s)
		}(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < extAdds; i++ {
			r.Add(CPhaseExecuteNs, 1)
		}
	}()

	var stop atomic.Bool
	var regress atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		var rel, exec int64
		for !stop.Load() {
			nr, ne := r.Counter(CPhaseReleaseNs), r.Counter(CPhaseExecuteNs)
			if nr < rel || ne < exec {
				regress.Store(true)
			}
			rel, exec = nr, ne
			time.Sleep(20 * time.Microsecond)
		}
	}()

	wg.Wait()
	// Writers quiescent, reader still live: FlushAll's documented
	// contract.
	r.FlushAll()
	stop.Store(true)
	<-done
	if regress.Load() {
		t.Fatal("a merged phase counter went backwards under concurrent reads")
	}
	if got, want := r.Counter(CPhaseReleaseNs), int64(slots*perSlot); got != want {
		t.Fatalf("release-phase total = %d, want %d", got, want)
	}
	if got := r.Counter(CPhaseExecuteNs); got != extAdds {
		t.Fatalf("execute-phase total = %d, want %d", got, extAdds)
	}
}
