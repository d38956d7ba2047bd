package graph

import (
	"cmp"
	"slices"
)

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
// It is bounded: one n-bit reachability set per position and at most one
// set union per edge, refused beyond the fixed budgets below — a
// schedule that exceeds them, or whose CSR has a cycle, is left as
// compiled.

const (
	// reduceMaxScratch bounds the reachability bitsets in bytes: n*n/8,
	// so schedules up to 8 192 tasks (2 MiB at 4 096, 2.6 MiB for the
	// 4 610 tasks of a LULESH iteration).
	reduceMaxScratch = 8 << 20
	// reduceMaxWork bounds the pass in 64-bit word operations,
	// (edges + tasks) * n/64: 6 M for the LULESH iteration.
	reduceMaxWork = 1 << 26
)

// reduce drops the transitively implied edges from c's CSR and lowers
// the indegree template to match. Compile-time only.
func (c *Compiled) reduce() {
	n, edges := len(c.tasks), len(c.succs)
	words := (n + 63) / 64
	if edges == 0 ||
		int64(n)*int64(words)*8 > reduceMaxScratch ||
		(int64(edges)+int64(n))*int64(words) > reduceMaxWork {
		return
	}
	// Kahn order. The recorded order will not do: a redirect node
	// precedes the later members of its group.
	order := make([]int32, 0, n)
	indeg := append([]int32(nil), c.template...)
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

	// reach[i] is the set of tasks reachable from the i-th task of the
	// order, itself included, as a set of indices into the order — so a
	// set has no bit below its owner's index, and a union can start at
	// the word that holds it. Complete once the owner's row is done:
	// reverse topological order.
	reach := make([]uint64, n*words)
	var byPos []int32 // the row's entries, sorted by topological position
	dropped := 0
	for i := n - 1; i >= 0; i-- {
		u := order[i]
		row := c.succs[c.succOff[u]:c.succOff[u+1]]
		acc := reach[i*words : (i+1)*words]
		byPos = byPos[:0]
		for j := range row {
			byPos = append(byPos, int32(j))
		}
		slices.SortFunc(byPos, func(a, b int32) int { return cmp.Compare(pos[row[a]], pos[row[b]]) })
		// A successor reachable from another one is reachable from an
		// earlier one in topological order, and that one is either kept —
		// its set is in acc — or was itself found in acc, which then
		// holds everything it reaches.
		for _, j := range byPos {
			v := pos[row[j]]
			if acc[v>>6]&(1<<(v&63)) != 0 {
				row[j] = ^row[j] // implied (or a duplicate): marked for removal
				dropped++
				continue
			}
			from := reach[int(v)*words : (int(v)+1)*words]
			for k := int(v >> 6); k < words; k++ {
				acc[k] |= from[k]
			}
		}
		acc[i>>6] |= 1 << (i & 63)
	}
	if dropped == 0 {
		return
	}
	kept := make([]int32, 0, edges-dropped)
	for p := 0; p < n; p++ {
		row := c.succs[c.succOff[p]:c.succOff[p+1]]
		c.succOff[p] = int32(len(kept))
		for _, v := range row {
			if v >= 0 {
				kept = append(kept, v)
			} else {
				c.template[^v]--
			}
		}
	}
	c.succOff[n] = int32(len(kept))
	c.succs = kept
}
