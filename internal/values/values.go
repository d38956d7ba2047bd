// Package values is the typed key/value dataflow layer over the
// dependence runtime: tasks Provide and Consume values bound to named
// slots of a Store, instead of declaring bare ordering keys. A
// provided slot lowers onto an Out dependence, a consumed slot onto an
// In dependence and an updated slot onto an InOut dependence, so the
// full machinery underneath — discovery optimizations, work stealing,
// poison cones, persistent recording and compiled frozen replay —
// applies unchanged: the binding is a naming convention plus a place
// to put the value, not a second scheduler.
//
// The model is the reconciliation-workflow dataflow of
// thought-machine/taskgraph (keys bind values, not just edges): a task
// may run exactly when every value it consumes has been provided, and
// the runtime's dependence ordering is what makes the unsynchronized
// slot reads and writes race-free — the provider's completion
// happens-before the consumer's body.
//
// Allocation discipline: slots live in fixed-size chunks that never
// move once allocated, and a Handle holds its slot's chunk, so Get/Set
// are a load and an index — no locks, no map lookups, no reallocation
// hazard against concurrent readers. Binding (name interning) takes the
// Store mutex and is a producer-side setup operation; the hot path
// never binds. Numbers are
// stored unboxed: Handle.SetFloat writes a float64 into the slot's
// number lane and Handle.Float reads it back, with no allocation and no
// pointer store (so no GC write barrier); Any boxes such a number only
// when something asks for it as a value.
package values

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"taskdep/internal/graph"
	"taskdep/internal/rt"
)

// DefaultBase is the graph-key namespace Stores carve slots from when
// created with NewStore: high enough that index-derived application
// keys (array/block indices) cannot collide with value slots.
const DefaultBase graph.Key = 1 << 48

// chunkBits sizes the slot chunks (64 slots each): chunks are allocated
// once and never move, and a Handle holds its chunk, so slot access
// needs no lock against growth.
const (
	chunkBits = 6
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// chunk is 64 slots of the store s. A slot holds a number, unboxed in
// nums, or any other value in vals; kinds says which. The kind is a byte
// per slot, not a shared bitmask, because concurrent tasks write
// different slots of one chunk.
type chunk struct {
	vals  [chunkSize]any
	nums  [chunkSize]float64
	kinds [chunkSize]kind
	s     *Store
}

// kind is what a slot holds: kindAny (vals, nil when unset) or
// kindFloat (nums).
type kind uint8

const (
	kindAny kind = iota
	kindFloat
)

// Store is a namespace of named, typed value slots. Bind interns a
// name to a slot; the slot's graph key is base+index, so dependences
// declared through Spec/Lower order slot writers before slot readers.
// A Store may be reused across submission windows (Reset) and is
// valid under persistent replay: slots are plain storage, re-written
// by each iteration's providers before consumers run.
type Store struct {
	base graph.Key

	mu     sync.Mutex
	names  map[string]uint32
	order  []string      // slot -> name, for introspection/results
	chunks []*chunk      // slot>>chunkBits -> chunk; read only under mu
	n      atomic.Uint32 // bound slot count
}

// NewStore creates a Store with the default key base. Use NewStoreAt
// when the application's own graph keys reach into the default
// namespace.
func NewStore() *Store { return NewStoreAt(DefaultBase) }

// NewStoreAt creates a Store whose slot i maps to graph key base+i.
// The caller owns the collision contract: application keys submitted
// to the same runtime must stay below base (or otherwise out of the
// slot range).
func NewStoreAt(base graph.Key) *Store {
	return &Store{base: base, names: make(map[string]uint32)}
}

// Base returns the store's graph-key base.
func (s *Store) Base() graph.Key { return s.base }

// Len returns the number of bound slots.
func (s *Store) Len() int { return int(s.n.Load()) }

// Bind interns name and returns its slot handle, allocating the slot
// on first use. Safe for concurrent use; intended as producer-side
// setup (binding inside task bodies works but contends on the mutex).
func (s *Store) Bind(name string) Handle {
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot, ok := s.names[name]; ok {
		return s.handle(slot)
	}
	slot := uint32(len(s.order))
	if slot&chunkMask == 0 {
		s.chunks = append(s.chunks, &chunk{s: s})
	}
	// The store keeps a name for its own lifetime: hold a copy, not a
	// view of whatever larger string the caller cut it from.
	name = strings.Clone(name)
	s.names[name] = slot
	s.order = append(s.order, name)
	s.n.Store(slot + 1)
	return s.handle(slot)
}

// handle returns the handle of a bound slot. Caller holds mu.
func (s *Store) handle(slot uint32) Handle {
	return Handle{c: s.chunks[slot>>chunkBits], slot: slot}
}

// Lookup returns the handle for an already-bound name.
func (s *Store) Lookup(name string) (Handle, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, ok := s.names[name]
	if !ok {
		return Handle{}, false
	}
	return s.handle(slot), true
}

// Reset clears every slot value but keeps the bindings, so a pooled
// Store can serve a fresh submission window without re-interning.
// Must be called at a quiescent point (no task touching the store in
// flight).
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.chunks {
		clear(c.vals[:])
		clear(c.kinds[:])
	}
}

// Names returns the bound names in slot order (introspection, result
// collection). The returned slice is fresh.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order...)
}

// Handle is one bound slot: the untyped view every dependence-lowering
// and introspection path uses. The typed view is Of[T]. It holds its
// slot's chunk, which never moves, so an access is one load and an index.
type Handle struct {
	c    *chunk
	slot uint32
}

// Valid reports whether the handle is bound to a store.
func (h Handle) Valid() bool { return h.c != nil }

// GraphKey returns the dependence key the slot lowers to.
func (h Handle) GraphKey() graph.Key { return h.c.s.base + graph.Key(h.slot) }

// Name returns the slot's bound name.
func (h Handle) Name() string {
	s := h.c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order[h.slot]
}

// at returns the slot's chunk and its index there.
func (h Handle) at() (*chunk, uint32) {
	return h.c, h.slot & chunkMask
}

// Any reads the slot's current value; a number written by SetFloat
// comes back boxed as a float64. Safe without locks when ordered by a
// dependence on the slot (the only supported access pattern from task
// bodies).
func (h Handle) Any() any {
	c, i := h.at()
	if c.kinds[i] == kindFloat {
		return c.nums[i]
	}
	return c.vals[i]
}

// SetAny writes the slot. Same ordering contract as Any.
func (h Handle) SetAny(v any) {
	c, i := h.at()
	c.vals[i] = v
	c.kinds[i] = kindAny
}

// Float reads the slot as a number: one written by SetFloat, or a
// float64 written by SetAny. ok is false for any other value and for an
// unset slot. It never allocates; same ordering contract as Any.
func (h Handle) Float() (x float64, ok bool) {
	c, i := h.at()
	if c.kinds[i] == kindFloat {
		return c.nums[i], true
	}
	x, ok = c.vals[i].(float64)
	return x, ok
}

// SetFloat writes the number x into the slot unboxed: no allocation, and
// no pointer store unless the slot still held a value of another kind,
// which it lets go of. Same ordering contract as Any.
func (h Handle) SetFloat(x float64) {
	c, i := h.at()
	c.nums[i] = x
	c.kinds[i] = kindFloat
	if c.vals[i] != nil {
		c.vals[i] = nil
	}
}

// Of is the typed view of a slot. It embeds the Handle, so an Of[T]
// can be used anywhere a Handle is expected (Spec bindings).
type Of[T any] struct{ Handle }

// Bind interns name in s and returns the typed slot view.
func Bind[T any](s *Store, name string) Of[T] {
	return Of[T]{s.Bind(name)}
}

// Get reads the slot as T (zero value if unset or a different type —
// a type mismatch between provider and consumer is a programming
// error surfaced by GetOK).
func (o Of[T]) Get() T {
	v, _ := o.Any().(T)
	return v
}

// GetOK reads the slot as T, reporting whether the stored value had
// that type (false also for an unset slot).
func (o Of[T]) GetOK() (T, bool) {
	v, ok := o.Any().(T)
	return v, ok
}

// Set writes the slot.
func (o Of[T]) Set(v T) { o.SetAny(v) }

// Ref returns the untyped handle (convenience for Spec literals).
func (o Of[T]) Ref() Handle { return o.Handle }

// Spec is one typed dataflow task: the body consumes the values bound
// to Consume, updates Update in place and provides Provide. Lower
// turns it into a runtime Spec whose dependences are exactly those
// bindings (Consume→In, Provide→Out, Update→InOut), so everything the
// runtime does with key-only graphs — throttling, stealing, poison
// cones, persistent recording, compiled frozen replay — applies to
// value graphs unchanged.
type Spec struct {
	Label string
	// Consume lists slots the body reads; each lowers to an In
	// dependence, ordering the task after the slots' providers.
	Consume []Handle
	// Provide lists slots the body writes; each lowers to an Out
	// dependence, ordering the task before the slots' consumers.
	Provide []Handle
	// Update lists slots the body reads and rewrites; each lowers to an
	// InOut dependence.
	Update []Handle
	// Do is the task body; a non-nil error aborts the task and poisons
	// its consumers' cone, exactly as for a key-only Spec.
	Do func() error
}

// keysInto appends the handles' graph keys to buf.
func keysInto(buf []graph.Key, hs []Handle) []graph.Key {
	for _, h := range hs {
		buf = append(buf, h.GraphKey())
	}
	return buf
}

// Lower builds the runtime Spec for sp, allocating fresh key slices.
// For steady-state submission loops prefer a Binder, which reuses its
// buffers across Lower calls.
func Lower(sp Spec) rt.Spec {
	out := rt.Spec{Label: sp.Label}
	if sp.Do != nil {
		do := sp.Do
		out.Do = func(any) error { return do() }
	}
	if len(sp.Consume) > 0 {
		out.In = keysInto(make([]graph.Key, 0, len(sp.Consume)), sp.Consume)
	}
	if len(sp.Provide) > 0 {
		out.Out = keysInto(make([]graph.Key, 0, len(sp.Provide)), sp.Provide)
	}
	if len(sp.Update) > 0 {
		out.InOut = keysInto(make([]graph.Key, 0, len(sp.Update)), sp.Update)
	}
	return out
}

// Binder lowers typed Specs into runtime Specs while reusing one
// grown key buffer, so a submission loop allocates only the body
// closures. The lowered Spec's key slices alias the Binder's buffer:
// they are valid until the next Lower call, which is exactly the
// lifetime Submit/SubmitBatch need (the graph copies dependences out
// during the call). Single-producer, like submission itself.
type Binder struct {
	keys []graph.Key
}

// Lower builds the runtime Spec for sp in the Binder's buffer. The
// result must be submitted (or discarded) before the next Lower call.
func (b *Binder) Lower(sp Spec) rt.Spec {
	out := rt.Spec{Label: sp.Label}
	if sp.Do != nil {
		do := sp.Do
		out.Do = func(any) error { return do() }
	}
	buf := b.keys[:0]
	start := len(buf)
	buf = keysInto(buf, sp.Consume)
	out.In = buf[start:len(buf):len(buf)]
	start = len(buf)
	buf = keysInto(buf, sp.Provide)
	out.Out = buf[start:len(buf):len(buf)]
	start = len(buf)
	buf = keysInto(buf, sp.Update)
	out.InOut = buf[start:len(buf):len(buf)]
	b.keys = buf
	return out
}

// Validate reports a structurally invalid spec: a nil body with
// bindings, or an unbound handle. The runtime tolerates both (a nil
// body is an empty task), but the service layer wants loud errors.
func (sp *Spec) Validate() error {
	for _, set := range [][]Handle{sp.Consume, sp.Provide, sp.Update} {
		for _, h := range set {
			if !h.Valid() {
				return fmt.Errorf("values: task %q binds an unbound handle", sp.Label)
			}
		}
	}
	return nil
}
