package obs

import (
	"sync"
	"testing"
	"time"
)

func TestSpanRecordAndDrain(t *testing.T) {
	r := New(2, time.Now(), Options{Spans: true})
	sp := r.BeginSpan(0, SpanTaskBody, 42, 0xdead, 3)
	if sp.r == nil {
		t.Fatal("span should be active with timing on")
	}
	sp.End()
	r.Instant(1, InstSkip, 7, 0, 1)
	evs := r.DrainSpans()
	if len(evs) != 2 {
		t.Fatalf("drained %d events, want 2", len(evs))
	}
	var body, inst *SpanEvent
	for i := range evs {
		switch evs[i].Name {
		case SpanTaskBody:
			body = &evs[i]
		case InstSkip:
			inst = &evs[i]
		}
	}
	if body == nil || inst == nil {
		t.Fatalf("missing events: %+v", evs)
	}
	if body.Kind != 'X' || body.TaskID != 42 || body.KeyHash != 0xdead || body.Iter != 3 || body.Slot != 0 {
		t.Errorf("bad body event: %+v", *body)
	}
	if body.EndNs < body.StartNs {
		t.Errorf("span ends before it starts: %+v", *body)
	}
	if inst.Kind != 'i' || inst.TaskID != 7 || inst.Slot != 1 || inst.StartNs != inst.EndNs {
		t.Errorf("bad instant event: %+v", *inst)
	}
	// Drain consumed everything; a snapshot-less second drain is empty.
	if again := r.DrainSpans(); len(again) != 0 {
		t.Fatalf("second drain returned %d events, want 0", len(again))
	}
	// End() also feeds the matching histogram.
	if r.Histogram(HTaskBodyNs).Count != 1 {
		t.Error("task-body span did not feed HTaskBodyNs")
	}
}

func TestSpanHistogramMapping(t *testing.T) {
	r := New(1, time.Now(), Options{Spans: true})
	for _, n := range []SpanName{SpanTaskBody, SpanDiscoveryBatch, SpanReplayCopy, SpanTaskwait, SpanClose} {
		sp := r.BeginSpan(0, n, 0, 0, 0)
		sp.End()
	}
	for h, want := range map[Histo]int64{
		HTaskBodyNs:       1,
		HDiscoveryBatchNs: 1,
		HReplayCopyNs:     1,
		HTaskwaitNs:       1,
	} {
		if got := r.Histogram(h).Count; got != want {
			t.Errorf("%s count = %d, want %d", h.Name(), got, want)
		}
	}
}

func TestSpanRingWraparound(t *testing.T) {
	const capN = spanBuf
	r := New(1, time.Now(), Options{Spans: true})
	const total = 3*capN + 5
	for i := 0; i < total; i++ {
		r.Instant(0, InstSkip, int64(i), 0, 0)
	}
	if r.SpanCount() != total {
		t.Fatalf("SpanCount = %d, want %d", r.SpanCount(), total)
	}
	evs := r.DrainSpans()
	if len(evs) != capN {
		t.Fatalf("drained %d events from a capacity-%d ring, want %d", len(evs), capN, capN)
	}
	// Wraparound keeps the newest events, in order.
	for i, ev := range evs {
		want := int64(total - capN + i)
		if ev.TaskID != want {
			t.Fatalf("event %d has task %d, want %d (oldest must be dropped)", i, ev.TaskID, want)
		}
	}
}

func TestSpanSampling(t *testing.T) {
	r := New(1, time.Now(), Options{Spans: true, SpanSample: 4})
	hits := 0
	for i := 0; i < 100; i++ {
		if r.Sampled(0) {
			hits++
		}
	}
	if hits != 25 {
		t.Fatalf("sampled %d of 100 with modulus 4, want 25", hits)
	}
	// Unowned slots cannot tick a shard clock: they sample every call.
	if !r.Sampled(-1) {
		t.Fatal("unowned slot should always sample")
	}
	off := New(1, time.Now(), Options{})
	if off.Sampled(0) {
		t.Fatal("Sampled must be false with timing off")
	}
}

// TestSpanConcurrentRecordAndDrain drains continuously while owner
// goroutines record into their rings and an unowned goroutine records
// instants — the -race proof of the ring's publish/revalidate protocol.
func TestSpanConcurrentRecordAndDrain(t *testing.T) {
	const slots = 3
	const perSlot = 5000
	r := New(slots, time.Now(), Options{Spans: true})
	var wg sync.WaitGroup
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSlot; i++ {
				sp := r.BeginSpan(s, SpanTaskBody, int64(i), 0, 0)
				sp.End()
			}
		}(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < perSlot; i++ {
			r.Instant(-1, InstAbort, int64(i), 0, 0)
		}
	}()
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ev := range r.DrainSpans() {
				if ev.Name != SpanTaskBody && ev.Name != InstAbort {
					t.Errorf("torn event decoded: %+v", ev)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()
	if got, want := r.SpanCount(), uint64((slots+1)*perSlot); got != want {
		t.Fatalf("SpanCount = %d, want %d", got, want)
	}
}
