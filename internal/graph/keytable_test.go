package graph

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// keyTableOracle drives a keyTable and a Go map through the same
// operations, checking the two agree after every one.
type keyTableOracle struct {
	t    testing.TB
	kt   keyTable
	ref  map[Key]*keyState
	op   int
	desc string
}

func newKeyTableOracle(t testing.TB, desc string) *keyTableOracle {
	return &keyTableOracle{t: t, ref: map[Key]*keyState{}, desc: desc}
}

// lookup is frontierOf's use: get, and put a new state on a miss.
func (o *keyTableOracle) lookup(k Key) {
	o.op++
	got, want := o.kt.get(k), o.ref[k]
	if got != want {
		o.t.Fatalf("%s, op %d: get(%#x) = %p, map has %p", o.desc, o.op, uint64(k), got, want)
	}
	if got == nil {
		ks := &keyState{}
		o.kt.put(k, ks)
		o.ref[k] = ks
	}
	if o.op%61 == 0 || len(o.kt.slots) <= 4*minKeySlots {
		o.check()
	}
}

func (o *keyTableOracle) reset() {
	o.op++
	o.kt.reset()
	clear(o.ref)
	o.check()
}

// check compares the whole content, and the load the growth rule keeps.
// lookup runs it while the slot array is small (through the first
// doublings) and every 61st operation after that.
func (o *keyTableOracle) check() {
	if o.kt.n != len(o.ref) {
		o.t.Fatalf("%s, op %d: table holds %d keys, map %d", o.desc, o.op, o.kt.n, len(o.ref))
	}
	if 2*o.kt.n > len(o.kt.slots) {
		o.t.Fatalf("%s, op %d: %d keys in %d slots, over half load", o.desc, o.op, o.kt.n, len(o.kt.slots))
	}
	seen := 0
	o.kt.each(func(k Key, ks *keyState) {
		seen++
		if o.ref[k] != ks {
			o.t.Fatalf("%s, op %d: each visits %#x -> %p, map has %p", o.desc, o.op, uint64(k), ks, o.ref[k])
		}
	})
	if seen != len(o.ref) {
		o.t.Fatalf("%s, op %d: each visits %d keys, map holds %d", o.desc, o.op, seen, len(o.ref))
	}
}

// TestKeyTableMatchesMap: seeded random get/put/reset sequences over key
// shapes that stress the hash — LULESH's field<<32 | chunk, keys equal
// in their low 32 bits, dense small integers, arbitrary 64-bit values —
// long enough for several doublings, agree with a Go map after every
// operation.
func TestKeyTableMatchesMap(t *testing.T) {
	shapes := []struct {
		name string
		key  func(r *rand.Rand) Key
	}{
		{"lulesh", func(r *rand.Rand) Key { return Key(r.Intn(24))<<32 | Key(r.Intn(512)) }},
		{"equal-low-half", func(r *rand.Rand) Key { return Key(r.Intn(4096))<<32 | 7 }},
		{"dense", func(r *rand.Rand) Key { return Key(r.Intn(3000)) }},
		{"random", func(r *rand.Rand) Key { return Key(r.Uint64()) }},
	}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 3; seed++ {
			r := rand.New(rand.NewSource(seed))
			o := newKeyTableOracle(t, sh.name)
			for i := 0; i < 6000; i++ {
				if r.Intn(2500) == 0 {
					o.reset()
					continue
				}
				o.lookup(sh.key(r))
			}
			o.check()
			if len(o.kt.slots) < 8*minKeySlots {
				t.Fatalf("%s seed %d: %d slots, want several doublings past %d", sh.name, seed, len(o.kt.slots), minKeySlots)
			}
		}
	}
}

// TestKeyTableReuseAfterReset: ResetDiscoveryFrontier empties the table
// in place and recycles every keyState; discovery afterwards starts from
// an empty frontier on the same slots and reuses the recycled states.
func TestKeyTableReuseAfterReset(t *testing.T) {
	g := New(OptAll, func(*Task) {})
	const keys = 1000
	for k := 0; k < keys; k++ {
		g.Submit("w", []Dep{{Key(k) << 32, Out}}, nil, nil)
	}
	slots := len(g.keys.slots)
	g.ResetDiscoveryFrontier()
	if g.keys.n != 0 || len(g.keys.slots) != slots || len(g.free) != keys {
		t.Fatalf("after reset: %d keys in %d slots (had %d), %d states free, want 0, %d, %d",
			g.keys.n, len(g.keys.slots), slots, len(g.free), slots, keys)
	}
	g.keys.each(func(k Key, _ *keyState) { t.Fatalf("key %#x survived the reset", uint64(k)) })
	for k := 0; k < keys; k++ {
		w := g.Submit("w", []Dep{{Key(k) << 32, InOut}}, nil, nil)
		if w.live != 0 {
			t.Fatalf("key %#x: a writer after the reset waits on %d predecessors", uint64(k)<<32, w.live)
		}
	}
	if g.keys.n != keys || len(g.keys.slots) != slots || len(g.free) != 0 {
		t.Fatalf("after reuse: %d keys in %d slots, %d states free, want %d, %d, 0", g.keys.n, len(g.keys.slots), len(g.free), keys, slots)
	}
}

// FuzzKeyTable: each 9-byte record is one operation on the table and
// its reference map — a lookup of a key in one of four shapes, or a
// reset.
func FuzzKeyTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x01\x00\x00\x00\x02\x00\x00\x00\x01\x01\x00\x00\x00\x03\x00\x00\x00"))
	seed := make([]byte, 0, 9*300)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		var rec [9]byte
		rec[0] = byte(r.Intn(4))
		if i == 150 {
			rec[0] = 4
		}
		binary.LittleEndian.PutUint64(rec[1:], r.Uint64())
		seed = append(seed, rec[:]...)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		o := newKeyTableOracle(t, "fuzz")
		for ; len(data) >= 9; data = data[9:] {
			v := binary.LittleEndian.Uint64(data[1:9])
			switch data[0] % 5 {
			case 0:
				o.lookup(Key(v))
			case 1: // LULESH-shaped
				o.lookup(Key(v&0x1f)<<32 | Key(v>>32&0x3ff))
			case 2: // equal low halves
				o.lookup(Key(v & 0xffffffff00000000))
			case 3: // dense
				o.lookup(Key(v & 0x3ff))
			case 4:
				o.reset()
			}
		}
		o.check()
	})
}
