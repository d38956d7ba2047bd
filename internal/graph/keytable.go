package graph

// keyTable is the discovery key table: each data key's frontier state,
// found by open addressing with linear probing over a power-of-two slot
// array. It replaces a map[Key]*keyState, whose lookup was a sizeable
// share of discovery: here a hit is one multiply, one shift and, almost
// always, one slot — key and state pointer side by side in 16 bytes.
// The hash is Fibonacci's (the key times 2^64/φ, top bits kept), which
// spreads keys that differ only in their high half — LULESH's
// field<<32 | chunk — as well as dense low indices. It hashes the key
// without its two low bits and keeps those as the slot's position in an
// aligned group of four (home): the four keys that differ only there
// share one 64-byte line of slots, so a producer that walks consecutive
// keys — the chunks of one field — finds the next key's slot on the line
// it just read instead of missing on a random one. The table grows by
// doubling at half load, so probe runs stay short, and never shrinks:
// reset empties it in place for the next frontier.
//
// Owned by a Graph and guarded by its discovery lock, like the map was.
// Keys are never removed one by one: a frontier lives until
// ResetDiscoveryFrontier resets the whole table.
type keyTable struct {
	slots []keySlot // len is 0 or a power of two
	n     int       // occupied slots
	shift uint      // 64 - log2(len(slots))
}

// keySlot is one table entry; a nil ks marks it free (key 0 is a key).
type keySlot struct {
	key Key
	ks  *keyState
}

// minKeySlots is the slot count of the first allocation.
const minKeySlots = 64

// keyGroup is the number of slots whose keys differ only in their low
// bits and share a home group: 4 slots of 16 bytes, one cache line of
// the slot array (a power-of-two allocation of at least minKeySlots
// slots is line-aligned).
const keyGroup = 4

// home is k's first probe position: the group hashed from k's high bits,
// at the slot its low bits name.
func (kt *keyTable) home(k Key) int {
	g := int((uint64(k/keyGroup) * 0x9e3779b97f4a7c15) >> kt.shift)
	return g&^(keyGroup-1) | int(k%keyGroup)
}

// get returns k's state, nil when k has none.
func (kt *keyTable) get(k Key) *keyState {
	if kt.n == 0 {
		return nil
	}
	mask := len(kt.slots) - 1
	for i := kt.home(k); ; i = (i + 1) & mask {
		s := &kt.slots[i]
		if s.ks == nil {
			return nil
		}
		if s.key == k {
			return s.ks
		}
	}
}

// put stores ks as k's state; k must have none.
func (kt *keyTable) put(k Key, ks *keyState) {
	if 2*(kt.n+1) > len(kt.slots) {
		kt.grow()
	}
	kt.insert(k, ks)
	kt.n++
}

func (kt *keyTable) insert(k Key, ks *keyState) {
	mask := len(kt.slots) - 1
	i := kt.home(k)
	for kt.slots[i].ks != nil {
		i = (i + 1) & mask
	}
	kt.slots[i] = keySlot{k, ks}
}

// grow doubles the slot array and rehashes every entry into it.
func (kt *keyTable) grow() {
	old := kt.slots
	n := 2 * len(old)
	if n < minKeySlots {
		n = minKeySlots
	}
	kt.slots = make([]keySlot, n)
	kt.shift = 64
	for ; n > 1; n >>= 1 {
		kt.shift--
	}
	for _, s := range old {
		if s.ks != nil {
			kt.insert(s.key, s.ks)
		}
	}
}

// each calls f for every key and its state, in no particular order.
func (kt *keyTable) each(f func(Key, *keyState)) {
	for _, s := range kt.slots {
		if s.ks != nil {
			f(s.key, s.ks)
		}
	}
}

// reset empties the table, keeping its slot array.
func (kt *keyTable) reset() {
	clear(kt.slots)
	kt.n = 0
}
