package graph

import "slices"

// Transitive reduction of a compiled schedule. Discovery materializes
// every declared constraint between two tasks of a recording, and many
// of them order nothing: a LULESH force task is an anti-dependence
// predecessor of the q and eos tasks of its chunk, which the chain
// force -> vel -> pos -> kin -> q -> eos already puts after it. On the
// compiled path an edge costs one atomic decrement per iteration, for
// ever; dropping the implied ones is the paper's edge reduction
// (contribution 2) applied where a recording makes it affordable — once,
// against every later replay.
//
// The pass is exact: it drops edge u -> v only if v stays reachable from
// u through kept edges, so the reachability relation — and with it every
// ordering the recording declared — is unchanged, and no kept edge is
// implied by the others. It edits the CSR and the indegree template
// only; the tasks' own successor lists (Signature, the verifier's audit,
// DOT export, Stats) keep the declared graph. Which predecessor releases
// a task is unchanged too: an implied edge's source finishes before the
// last hop of the path that implies it, so it was never the last
// predecessor to finish. Roots keep indegree 0 and every other task
// keeps at least the edge from its topologically last predecessor.
//
// It costs memory in proportion to the graph, not to its square. The
// set of positions reachable from a task is kept as its sorted, maximal
// runs of consecutive positions in a topological order, cut at the last
// position anyone asks about (lim, below); a chunked recording reaches
// long runs of its Kahn order, so the sets are short. The 4 708 tasks of
// a LULESH iteration keep 19.6 k runs, 157 KB (0.3 MiB with the set
// headers and block tails), where one bit per pair of positions took
// 2.66 MiB. A schedule whose sets outgrow the budgets below, or whose
// CSR has a cycle, is left exactly as compiled.

const (
	// reduceMaxScratch bounds the pass's memory in bytes: the run arena's
	// blocks plus a 24-byte header per position. LULESH at 512, 1 024 and
	// 2 048 tasks per loop (4 708, 9 318 and 18 538 tasks) takes 0.3, 0.6
	// and 1.1 MiB.
	reduceMaxScratch = 8 << 20
	// reduceMaxWork bounds the pass in merge steps, the runs the unions
	// can read: 75 k for the LULESH iteration at 512 tasks per loop.
	reduceMaxWork = 1 << 26
)

// run is a maximal interval [lo, hi] of topological positions.
type run struct{ lo, hi int32 }

// search returns the index of the first run of set that ends at or
// after v: the run that holds v, if any holds it.
func search(set []run, v int32) int {
	lo, hi := 0, len(set)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if set[m].hi < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// within returns the runs of set that start at or before lim.
func within(set []run, lim int32) []run {
	k := search(set, lim)
	if k < len(set) && set[k].lo <= lim {
		k++
	}
	return set[:k]
}

// appendUnion merges the sorted run lists a and b into dst and cuts the
// result at lim: runs that overlap or touch become one, dst's last run
// included. dst must not be empty, its last run must not start after
// any run of a or b, and no run of a or b may start past lim.
func appendUnion(dst, a, b []run, lim int32) []run {
	cur := dst[len(dst)-1]
	dst = dst[:len(dst)-1]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		r := b[j]
		if a[i].lo <= r.lo {
			r = a[i]
			i++
		} else {
			j++
		}
		if r.lo <= cur.hi+1 {
			cur.hi = max(cur.hi, r.hi)
		} else {
			dst = append(dst, cur)
			cur = r
		}
	}
	// One list is left. Its runs are apart from each other, so once one
	// stays apart from cur, so do the rest.
	rest := a[i:]
	if j < len(b) {
		rest = b[j:]
	}
	for len(rest) > 0 && rest[0].lo <= cur.hi+1 {
		cur.hi = max(cur.hi, rest[0].hi)
		rest = rest[1:]
	}
	dst = append(append(dst, cur), rest...)
	// Every run starts by lim, so only the last can end past it.
	dst[len(dst)-1].hi = min(dst[len(dst)-1].hi, lim)
	return dst
}

// runArena holds the finished reach sets in blocks it never moves, so
// it grows without copying. A set is built in place at the free tail of
// the current block and stays there if it fits; one that outgrows the
// tail is copied into a new block of its own size or of block runs,
// whichever is larger. The arena allocates what it holds plus the tails
// it left.
type runArena struct {
	block []run
	bytes int64 // allocated so far
}

// tail returns an empty set at the arena's free tail.
func (a *runArena) tail() []run { return a.block[len(a.block):len(a.block)] }

// keep stores set, built from tail, and returns it as stored.
func (a *runArena) keep(set []run, block int) []run {
	if free := a.block[len(a.block):cap(a.block)]; len(free) < len(set) || &free[0] != &set[0] {
		size := max(len(set), block)
		a.block = make([]run, 0, size)
		a.bytes += int64(size) * 8
		set = append(a.block, set...)
	}
	a.block = a.block[:len(a.block)+len(set)]
	return set[:len(set):len(set)]
}

// reduce drops the transitively implied edges from c's CSR, compacting
// it in place, and lowers the indegree template to match. Compile-time
// only.
func (c *Compiled) reduce() {
	n, edges := len(c.tasks), len(c.succs)
	const header = 24 // bytes of a set's slice header
	if edges == 0 || int64(n)*header > reduceMaxScratch {
		return
	}
	// Kahn order. The recorded order will not do: a redirect node
	// precedes the later members of its group.
	order := make([]int32, 0, n)
	indeg := slices.Clone(c.template)
	for p, d := range indeg {
		if d == 0 {
			order = append(order, int32(p))
		}
	}
	for i := 0; i < len(order); i++ {
		u := order[i]
		for _, v := range c.succs[c.succOff[u]:c.succOff[u+1]] {
			if indeg[v]--; indeg[v] == 0 {
				order = append(order, v)
			}
		}
	}
	if len(order) != n {
		return // a cycle: nothing here can be replayed, let alone reduced
	}
	pos := indeg // all zero by now; reused as position-in-order
	for i, p := range order {
		pos[p] = int32(i)
	}
	// lim[u] bounds the positions anyone asks task u's set about: the
	// furthest successor of u or of any task before it on a path. A row
	// asks its successors' sets about its own successors only, and builds
	// its set from theirs, whose bounds are no lower — so a set's part
	// beyond its bound is never read and is not kept. In a chunked
	// recording that is most of it: a lattice's sets end a row below
	// their owner.
	lim := make([]int32, n)
	for i, u := range order {
		row := c.succs[c.succOff[u]:c.succOff[u+1]]
		l := max(lim[u], int32(i))
		for _, v := range row {
			l = max(l, pos[v])
		}
		lim[u] = l
		for _, v := range row {
			lim[v] = max(lim[v], l)
		}
	}

	// reach[i] is the set of positions reachable from the i-th task of
	// the order, itself included, up to its lim, as sorted runs — so it
	// starts at i. Complete once the owner's row is done: reverse
	// topological order.
	reach := make([][]run, n)
	var arena runArena
	var tmp []run
	// byPos holds the row's entries as position<<32 | index, sorted.
	var byPos []uint64
	dropped, work := 0, 0
	for i := n - 1; i >= 0; i-- {
		u := order[i]
		row := c.succs[c.succOff[u]:c.succOff[u+1]]
		byPos = byPos[:0]
		for j, v := range row {
			byPos = append(byPos, uint64(pos[v])<<32|uint64(j))
		}
		slices.Sort(byPos)
		// A successor reachable from another one is reachable from an
		// earlier one in topological order, and that one is either kept —
		// its set is in acc — or was itself found in acc, which then
		// holds everything it reaches.
		acc := append(arena.tail(), run{int32(i), int32(i)})
		for _, e := range byPos {
			v, j := int32(e>>32), uint32(e)
			k := len(acc)
			if v <= acc[k-1].hi {
				if k = search(acc, v); acc[k].lo <= v {
					row[j] = ^row[j] // implied (or a duplicate): marked for removal
					dropped++
					continue
				}
			}
			// acc[:k] ends before v, where v's set starts: only the rest is
			// merged. What lies past lim[u] is never asked about, so the
			// merge reads, and the budget charges, v's runs up to it only.
			from := within(reach[v], lim[u])
			if work += len(acc) - k + len(from); work > reduceMaxWork {
				c.unmark()
				return
			}
			switch {
			case k == len(acc) && len(from) == 1:
				// One run to add past the end, the common case.
				r := run{v, min(from[0].hi, lim[u])}
				if r.lo == acc[k-1].hi+1 {
					acc[k-1].hi = r.hi
				} else {
					acc = append(acc, r)
				}
			case k == len(acc):
				acc = appendUnion(acc, nil, from, lim[u])
			default:
				tmp = appendUnion(append(tmp[:0], acc[k-1]), acc[k:], from, lim[u])
				acc = append(acc[:k-1], tmp...)
			}
		}
		reach[i] = arena.keep(acc, n)
		if arena.bytes+int64(n)*header > reduceMaxScratch {
			c.unmark()
			return
		}
	}
	if dropped == 0 {
		return
	}
	// Compact in place: the write index never passes the read index.
	w := int32(0)
	for p, lo := 0, int32(0); p < n; p++ {
		hi := c.succOff[p+1]
		c.succOff[p] = w
		for _, v := range c.succs[lo:hi] {
			if v >= 0 {
				c.succs[w] = v
				w++
			} else {
				c.template[^v]--
			}
		}
		lo = hi
	}
	c.succOff[n] = w
	c.succs = c.succs[:w]
}

// unmark restores the entries an abandoned pass marked for removal.
func (c *Compiled) unmark() {
	for k, v := range c.succs {
		if v < 0 {
			c.succs[k] = ^v
		}
	}
}
