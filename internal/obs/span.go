package obs

import (
	"sort"
	"sync/atomic"
)

// spanBuf is the per-slot ring capacity, a power of two: 4096 events ≈
// 160 KiB per slot, made only with spans on and bounded regardless of
// run length (wraparound keeps the newest events).
const spanBuf = 4096

// SpanName identifies what a span or instant covers.
type SpanName uint8

const (
	SpanTaskBody SpanName = iota
	SpanDiscoveryBatch
	SpanReplayCopy
	SpanTaskwait
	SpanClose
	InstSkip  // poison-cone drain: a task skipped without running
	InstAbort // a task failed (panic or Do error)
	numSpanNames
)

var spanNames = [numSpanNames]string{
	SpanTaskBody:       "task",
	SpanDiscoveryBatch: "discovery-batch",
	SpanReplayCopy:     "replay-copy",
	SpanTaskwait:       "taskwait",
	SpanClose:          "close",
	InstSkip:           "skip",
	InstAbort:          "abort",
}

// String returns the event name used in trace exports.
func (n SpanName) String() string {
	if n >= numSpanNames {
		return "unknown"
	}
	return spanNames[n]
}

const (
	kindComplete = 1 // span with a start and an end (exported as an X event)
	kindInstant  = 2
)

// evSlot is one ring entry. Fields are atomics so a concurrent drain
// reads torn-free words: the owner stores all fields, then publishes
// by storing the ring head (release on the head's total order); the
// reader discards any index that wraparound may have overwritten
// between its two head reads, so it never decodes a half-written slot.
type evSlot struct {
	start atomic.Int64
	end   atomic.Int64
	task  atomic.Int64
	key   atomic.Uint64
	meta  atomic.Uint64 // name<<40 | kind<<32 | uint32(iter)
}

// ring is one slot's span log. head counts events ever recorded; the
// event for sequence i lives at ev[i & (len(ev)-1)]. drained is the
// reader cursor. Owner-write, any-reader; the external ring (last) is
// multi-writer and serialized by Registry.extMu.
type ring struct {
	head    atomic.Uint64
	drained atomic.Uint64
	ev      []evSlot
	_       [64]byte
}

// SpanEvent is a decoded span or instant event.
type SpanEvent struct {
	Name    SpanName
	Kind    byte // 'X' complete span, 'i' instant
	Slot    int  // worker slot; Slots() means producer, Slots()+1 external
	TaskID  int64
	KeyHash uint64
	Iter    int
	StartNs int64
	EndNs   int64 // == StartNs for instants
}

// Span is an open span returned by BeginSpan. The zero value is inert:
// End on it is a no-op, so callers can declare one unconditionally and
// only arm it when tracing is on.
type Span struct {
	r     *Registry
	start int64
	task  int64
	key   uint64
	slot  int32
	iter  int32
	name  SpanName
}

// BeginSpan opens a span on slot (ownership contract as IncSlot; pass
// -1 from unowned contexts). Returns an inert span when the timing
// tier is off. Every BeginSpan must be paired with End on all return
// paths — taskdeplint enforces this (rule span-no-end).
func (r *Registry) BeginSpan(slot int, name SpanName, task int64, key uint64, iter int) Span {
	if r == nil || !r.timing {
		return Span{}
	}
	return r.beginSpan(slot, name, task, key, iter)
}

//go:noinline
func (r *Registry) beginSpan(slot int, name SpanName, task int64, key uint64, iter int) Span {
	return Span{
		r:     r,
		start: r.nowNs(),
		task:  task,
		key:   key,
		slot:  int32(slot),
		iter:  int32(iter),
		name:  name,
	}
}

// Sampled reports whether the next fine-grained span on slot should be
// recorded: false when timing is off, else true for 1 in SpanSample
// calls. Must be called by slot's owner (it advances the shard's plain
// sampling clock); unowned slots sample every call.
func (r *Registry) Sampled(slot int) bool {
	if r == nil || !r.timing {
		return false
	}
	// Open-coded for inlining: tick the owner's plain clock and mask
	// (the modulus is rounded to a power of two at New).
	if uint(slot) < uint(len(r.shards)-1) {
		s := &r.shards[slot]
		s.tick++
		return s.tick&r.sampleMask == 0
	}
	return true
}

// End closes the span: records the event into slot's ring and feeds
// the matching latency histogram.
func (sp Span) End() {
	r := sp.r
	if r == nil {
		return
	}
	end := r.nowNs()
	r.record(int(sp.slot), sp.name, kindComplete, sp.task, sp.key, sp.iter, sp.start, end)
	if h, ok := histoFor(sp.name); ok {
		r.ObserveSlot(int(sp.slot), h, end-sp.start)
	}
}

func histoFor(n SpanName) (Histo, bool) {
	switch n {
	case SpanTaskBody:
		return HTaskBodyNs, true
	case SpanDiscoveryBatch:
		return HDiscoveryBatchNs, true
	case SpanReplayCopy:
		return HReplayCopyNs, true
	case SpanTaskwait:
		return HTaskwaitNs, true
	}
	return 0, false
}

// Instant records a zero-duration marker event (skip, abort).
func (r *Registry) Instant(slot int, name SpanName, task int64, key uint64, iter int) {
	if r == nil || !r.timing {
		return
	}
	r.instantSlow(slot, name, task, key, iter)
}

//go:noinline
func (r *Registry) instantSlow(slot int, name SpanName, task int64, key uint64, iter int) {
	now := r.nowNs()
	r.record(slot, name, kindInstant, task, key, int32(iter), now, now)
}

func (r *Registry) ringIndex(slot int) int {
	if slot >= 0 && slot < len(r.rings)-1 {
		return slot
	}
	return len(r.rings) - 1
}

func (r *Registry) record(slot int, name SpanName, kind byte, task int64, key uint64, iter int32, start, end int64) {
	ri := r.ringIndex(slot)
	rg := &r.rings[ri]
	if ri == len(r.rings)-1 {
		// External ring: multiple unowned writers, serialize them.
		r.extMu.Lock()
		defer r.extMu.Unlock()
	}
	idx := rg.head.Load()
	e := &rg.ev[idx&uint64(len(rg.ev)-1)]
	e.start.Store(start)
	e.end.Store(end)
	e.task.Store(task)
	e.key.Store(key)
	e.meta.Store(uint64(name)<<40 | uint64(kind)<<32 | uint64(uint32(iter)))
	rg.head.Store(idx + 1)
}

// SpanCount returns the total number of events ever recorded (including
// ones wraparound has discarded).
func (r *Registry) SpanCount() uint64 {
	if r == nil {
		return 0
	}
	var n uint64
	for i := range r.rings {
		n += r.rings[i].head.Load()
	}
	return n
}

// DrainSpans removes and returns the buffered events from every ring,
// sorted by start time. Events overwritten by wraparound since the
// last drain are silently dropped (the rings keep the newest). Safe
// concurrently with recording; concurrent drains serialize.
func (r *Registry) DrainSpans() []SpanEvent {
	return r.collectSpans(true)
}

// SnapshotSpans returns the buffered events without consuming them.
func (r *Registry) SnapshotSpans() []SpanEvent {
	return r.collectSpans(false)
}

func (r *Registry) collectSpans(consume bool) []SpanEvent {
	if r == nil {
		return nil
	}
	r.drain.Lock()
	defer r.drain.Unlock()
	var out []SpanEvent
	for ri := range r.rings {
		rg := &r.rings[ri]
		capN := uint64(len(rg.ev))
		h1 := rg.head.Load()
		lo := rg.drained.Load()
		if h1-lo > capN {
			lo = h1 - capN
		}
		for idx := lo; idx < h1; idx++ {
			e := &rg.ev[idx&(capN-1)]
			ev := decodeSlot(e, ri)
			// Revalidate: if the writer lapped past idx while we read,
			// the slot may be torn — discard it.
			h2 := rg.head.Load()
			if h2 > idx+capN {
				continue
			}
			out = append(out, ev)
		}
		if consume {
			rg.drained.Store(h1)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNs != out[j].StartNs {
			return out[i].StartNs < out[j].StartNs
		}
		if out[i].Slot != out[j].Slot {
			return out[i].Slot < out[j].Slot
		}
		return out[i].TaskID < out[j].TaskID
	})
	return out
}

func decodeSlot(e *evSlot, slot int) SpanEvent {
	meta := e.meta.Load()
	name := SpanName(meta >> 40)
	kind := byte('X')
	if byte(meta>>32) == kindInstant {
		kind = 'i'
	}
	return SpanEvent{
		Name:    name,
		Kind:    kind,
		Slot:    slot,
		TaskID:  e.task.Load(),
		KeyHash: e.key.Load(),
		Iter:    int(int32(uint32(meta))),
		StartNs: e.start.Load(),
		EndNs:   e.end.Load(),
	}
}
