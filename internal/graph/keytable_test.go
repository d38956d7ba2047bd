package graph

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"unsafe"
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
	g := NewWithConfig(Config{Opts: OptAll, OnReady: func(*Task) {}})
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

// TestKeyTableGroupsLowBits: the four keys that differ only in their two
// low bits have their home slots in one aligned group of four, at the
// position those bits name — one 64-byte line of the slot array.
func TestKeyTableGroupsLowBits(t *testing.T) {
	var kt keyTable
	for kt.n < 3000 {
		kt.put(Key(kt.n), &keyState{})
	}
	if a := uintptr(unsafe.Pointer(&kt.slots[0])); a%64 != 0 {
		t.Fatalf("slot array at %#x, not on a 64-byte line", a)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		base := Key(r.Uint64()) &^ (keyGroup - 1)
		if i%2 == 0 {
			base = Key(r.Intn(32))<<32 | Key(r.Intn(1<<20))&^(keyGroup-1) // LULESH-shaped
		}
		h0 := kt.home(base)
		for j := Key(0); j < keyGroup; j++ {
			if h := kt.home(base + j); h != h0+int(j) || h0%keyGroup != 0 {
				t.Fatalf("key %#x: home %d, want %d in the group at %d", uint64(base+j), h, h0+int(j), h0)
			}
		}
	}
}

// TestKeyTableProbesStayShort: at half load — the most the growth rule
// allows — the mean probe length (slots looked at by a hit, and the
// 64-byte lines they lie on) stays short for key sets the grouping could
// crowd: strides 2, 4 and 8 (groups of two, one and one key), stride
// 1<<32 (one chunk of every field), consecutive keys (full groups),
// LULESH's field<<32 | chunk and random keys. The LULESH set has the
// loosest bound: at 256 slots its 128 keys are 24 fields of 6 chunks,
// groups of four and of two, so 48 of the 64 groups are homes and runs
// overflow into their neighbours (5.7 slots, 2.2 lines a hit, where
// hashing every key on its own read 1.9 slots); from 4096 slots on it
// reads 1.3 to 1.9 slots, 1.1 to 1.2 lines.
func TestKeyTableProbesStayShort(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	sets := []struct {
		name     string
		key      func(i int) Key
		maxSlots float64
	}{
		{"stride2", func(i int) Key { return Key(2 * i) }, 3},
		{"stride4", func(i int) Key { return Key(4 * i) }, 3},
		{"stride8", func(i int) Key { return Key(8 * i) }, 3},
		{"stride2^32", func(i int) Key { return Key(i) << 32 }, 3},
		{"consecutive", func(i int) Key { return Key(i) }, 3},
		{"lulesh", func(i int) Key { return Key(i%24)<<32 | Key(i/24) }, 6},
		{"random", func(int) Key { return Key(r.Uint64()) }, 3},
	}
	for _, set := range sets {
		for _, slots := range []int{1 << 8, 1 << 12, 1 << 16} {
			var kt keyTable
			keys := make([]Key, 0, slots/2)
			for i := 0; len(keys) < slots/2; i++ {
				if k := set.key(i); kt.get(k) == nil {
					kt.put(k, &keyState{})
					keys = append(keys, k)
				}
			}
			if len(kt.slots) != slots {
				t.Fatalf("%s: %d keys in %d slots, want %d", set.name, len(keys), len(kt.slots), slots)
			}
			mask := len(kt.slots) - 1
			probes, lines := 0, 0
			for _, k := range keys {
				i := kt.home(k)
				lines++
				for n := 1; ; n++ {
					if kt.slots[i].key == k && kt.slots[i].ks != nil {
						probes += n
						break
					}
					if i = (i + 1) & mask; i%keyGroup == 0 {
						lines++
					}
				}
			}
			mean, meanLines := float64(probes)/float64(len(keys)), float64(lines)/float64(len(keys))
			if mean > set.maxSlots || meanLines > set.maxSlots/2 {
				t.Errorf("%s, %d slots at half load: a hit probes %.2f slots on %.2f lines, want <= %.1f and %.1f",
					set.name, slots, mean, meanLines, set.maxSlots, set.maxSlots/2)
			}
		}
	}
}
