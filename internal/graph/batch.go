package graph

// TaskDesc describes one task for SubmitBatch: the Submit parameters as
// data, so a producer can stage a slice of submissions and hand them to
// the graph in one call.
type TaskDesc struct {
	Label string
	// In, Out, InOut and InOutSet list the dependence keys by type.
	// Discovery walks them in that order, and reads them only during the
	// call: they are never written or retained, so descs may share a
	// slice. A read run admits a desc whose In is the run's own slice
	// (same first element, same length) without a key compare.
	In       []Key
	Out      []Key
	InOut    []Key
	InOutSet []Key
	Body     func(fp any)
	// Do is the error-returning body form; when set it takes precedence
	// over Body (see Task.Do).
	Do           func(fp any) error
	FirstPrivate any
	// Detached marks a task completed externally (Event/Fulfill) rather
	// than at body return.
	Detached bool
	// Attach is copied to Task.Attach before the task is published.
	Attach any
}

// SubmitBatch discovers all tasks described by descs, in order, and
// appends the created tasks to out (pass nil, or a buffer to reuse; the
// result is returned). It is the one way into discovery — Submit is a
// batch of one — and amortizes the fixed per-task costs across the batch:
//
//   - task IDs, the task/live counters and chunk-pool traffic are
//     reserved once per batch instead of once per task;
//   - the discovery lock is taken once, for the whole batch, instead of
//     once per task;
//   - consecutive descs that read the same keys share one redirect pair
//     for those reads instead of an edge per key each (read runs, below;
//     under OptInOutSetNode) — the same orderings from fewer edges;
//   - tasks that become ready during the batch are published once, at
//     the end and outside the discovery lock, through OnReadyBatch when
//     configured (one queue lock + one wake-up instead of len(batch));
//   - the key lists in descs are only read during the call, so
//     callers can build descs in reused buffers, or share one list
//     between descs.
//
// Ready publication happening at batch end means a worker sees the
// first task of a batch at worst one batch later than with a batch of
// one — the latency/throughput trade the paper's discovery argument is
// about. Producer-only.
func (g *Graph) SubmitBatch(descs []TaskDesc, out []*Task) []*Task {
	if len(descs) == 0 {
		return out
	}
	base := len(out)
	out = g.allocTasks(len(descs), out)
	g.discover(descs, out[base:])
	g.publishReady()
	return out
}

// discover turns descs into the freshly allocated tasks ts (same length),
// resolving every dependence under one hold of the discovery lock. Tasks
// that become ready go into readyBuf, for the caller to publish once the
// lock is dropped.
func (g *Graph) discover(descs []TaskDesc, ts []*Task) {
	n := int64(len(descs))
	firstID := g.nextID
	g.nextID += n
	g.tasks.Add(n)
	g.lrAdd(n, 0)
	clock := g.clock
	clock.resume()

	g.mu.Lock()
	grouping := g.opts&OptInOutSetNode != 0
	run := readRun{keys: g.runKeys}
	for i := range descs {
		var cpT0 int64
		if clock != nil {
			cpT0 = clock.Now()
		}
		d := &descs[i]
		t := ts[i]
		t.ID = firstID + int64(i)
		t.Label = d.Label
		t.Body = d.Body
		t.Do = d.Do
		t.FirstPrivate = d.FirstPrivate
		t.Detached = d.Detached
		if d.Detached {
			g.pin(t)
		}
		t.Attach = d.Attach
		t.captureDeps(d)
		t.Persistent = g.recording
		if g.recording {
			g.recorded = append(g.recorded, t)
		}
		if grouping {
			if run.first != nil && !g.admits(&run, d) {
				g.closeRun(&run)
			}
			if run.first == nil && i+1 < len(descs) {
				g.openRun(&run, t, d, descs[i+1:])
			}
		}
		// For a member the run's redirect pair stands for its reads.
		member := run.first != nil
		if member {
			if run.entry != nil {
				g.addEdge(run.entry, t)
			}
		} else {
			for _, k := range d.In {
				g.read(t, k)
			}
		}
		for _, k := range d.Out {
			g.write(t, k)
		}
		for _, k := range d.InOut {
			g.write(t, k)
		}
		for _, k := range d.InOutSet {
			g.joinSet(t, k)
		}
		if member {
			g.addEdge(t, run.exit)
		}
		if clock != nil {
			// Discovery ends when the dependences are resolved; the
			// stamp must land before the sentinel release readies the
			// task.
			t.cp.discNs = clock.Now() - cpT0
		}
		g.releaseSentinel(t)
	}
	if run.first != nil {
		g.closeRun(&run)
	}
	g.runKeys = run.keys[:0]
	g.mu.Unlock()
}

// Read runs: optimization (c) for read sets. Consecutive tasks of a batch
// that read the same keys — LULESH's force tasks declare the 40 to 150
// keys of whole z-layers, some sixteen tasks in a row — are the paper's
// m x n pattern with the sides swapped: the m writers of the keys against
// n readers, then the n readers against the next m writers. Discovered
// task by task that is 2mn constraints and mn key lookups. A run takes
// the shared reads once, on an entry redirect node that succeeds every
// key's out-set, and leaves one reader on every key, an exit redirect
// node that succeeds every member: 2(m+n) constraints and m lookups —
// and two nodes, which is what decides whether a run pays (minRunSaving).
//
// Nothing else changes, because the members' read sets are the same set.
// Every member waits for the writers of all the shared keys either way,
// and the next writer of any of them waits for all the members either
// way; a failed writer skips every member and a failed member skips the
// next writer of every shared key, through the redirect pair as through
// direct edges. The nodes are ordinary redirect nodes to everything
// downstream: recording, Compile and its reduction, replay, the
// critical-path fold, DOT, the verifier's log.

// minRunSaving is what a run must save to be opened, in constraints per
// side: task by task a side is mn of them, through a redirect node m+n,
// so (m-1)(n-1) - 1 fewer. Against that stands the node. A constraint is
// a key lookup and, mostly, one load of a finished predecessor's state;
// a redirect node is a task — allocated, counted four times, published,
// popped, finished, and in a recording all of that again every replay,
// where the reduction would have dropped the implied ones among the mn
// edges and cannot drop a node — some sixteen constraints' worth, and a
// run is asked to save twice that. HPCG's SpMV sub-tasks are the measured
// break-even: four tasks reading seven keys, (m-1)(n-1) = 18, the same
// speed either way on one rank and 4 % slower grouped on two ranks that
// share a P. LULESH's force tasks, forty keys or more, pay at n = 2.
const minRunSaving = 32

// runPays reports whether the descs after the one reading in carry on
// with its m reads for long enough that a run saves minRunSaving. rest[0]
// is known to: each further desc looked at is one more member, and the
// fewer the keys the more it takes.
func runPays(m int, in []Key, rest []TaskDesc) bool {
	for n := 2; (m-1)*(n-1) < minRunSaving; n++ {
		if n > len(rest) || sharedReads(in, rest[n-1].In) == 0 {
			return false
		}
	}
	return true
}

// readRun is the open read run of one discover call. A run never outlives
// the call: it closes before the discovery lock is dropped, so the marks
// it leaves on keyStates are never seen by a later submission, and a batch
// of one (Submit) — no next desc to look at — never opens one.
type readRun struct {
	// first is the run's first member, and the mark on the keyStates of
	// the shared keys; nil when no run is open.
	first *Task
	// reads is the first member's In list, the key sequence every member
	// declares. It is the caller's slice, held only within the call.
	reads []Key
	// keys are the shared keys' frontier states, looked up once, in the
	// buffer the graph keeps for them between calls (Graph.runKeys).
	keys []*keyState
	// entry succeeds the out-sets of the shared keys and precedes every
	// member; nil when no shared key has an out-set to wait for. exit
	// succeeds every member and becomes each shared key's one reader when
	// the run closes, its producer sentinel held until then.
	entry, exit *Task
}

// sharedReads returns the length of the In key sequence a and b both
// are, 0 when they differ. Two lists over one backing array from the same
// element are the same sequence without a look at the keys — how a
// producer that shares one read set between its tasks has them admitted
// in O(1). Anything else is compared key by key: a cheaper summary, a
// hash, would still have to be checked that way, since a collision would
// merge two read sets into one run.
func sharedReads(a, b []Key) int {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	if &a[0] != &b[0] {
		for i, k := range a {
			if b[i] != k {
				return 0
			}
		}
	}
	return len(a)
}

// writesShared reports whether a write declaration of d names a key
// marked by the run whose first member is mark. Such a task must be
// ordered against the members before it one by one, which a run does not
// record.
func (g *Graph) writesShared(d *TaskDesc, mark *Task) bool {
	return g.marked(d.Out, mark) || g.marked(d.InOut, mark) || g.marked(d.InOutSet, mark)
}

// marked reports whether one of keys carries mark.
func (g *Graph) marked(keys []Key, mark *Task) bool {
	for _, k := range keys {
		if ks := g.keys.get(k); ks != nil && ks.run == mark {
			return true
		}
	}
	return false
}

// admits reports whether the task d describes is the open run's next
// member.
func (g *Graph) admits(run *readRun, d *TaskDesc) bool {
	return sharedReads(run.reads, d.In) != 0 && !g.writesShared(d, run.first)
}

// openRun opens a run at t, the task under discovery, described by d, if
// the descs after it (rest, not empty) continue it: the next one declares
// the same reads and neither writes one, and enough of them follow for
// the run to pay. The entry node takes the reads here; newRedirect records
// both nodes after t, as an inoutset group's node follows the group's
// first member (Compiled.Replay relies on a recording not starting with
// one).
func (g *Graph) openRun(run *readRun, t *Task, d *TaskDesc, rest []TaskDesc) {
	next := &rest[0]
	if m := sharedReads(d.In, next.In); m < 2 || !runPays(m, d.In, rest) {
		return
	}
	keys := run.keys[:0]
	ordered := false
	for _, k := range d.In {
		ks := g.frontierOf(k)
		if ks.run == t {
			continue // declared twice
		}
		ks.run = t
		keys = append(keys, ks)
		ordered = ordered || len(ks.outSet) > 0
	}
	run.keys = keys
	if g.writesShared(d, t) || g.writesShared(next, t) {
		for _, ks := range keys {
			ks.run = nil
		}
		return
	}
	run.first, run.reads, run.entry = t, d.In, nil
	if ordered {
		run.entry = g.newRedirect()
		for _, ks := range keys {
			g.dependOnOutSet(run.entry, ks)
		}
		g.releaseSentinel(run.entry)
	}
	run.exit = g.newRedirect()
}

// closeRun ends the open run: the exit node is registered as the reader
// of every shared key, where each member would have been, and its
// sentinel is dropped. The run lets go of the member's In list.
func (g *Graph) closeRun(run *readRun) {
	for _, ks := range run.keys {
		ks.readers = append(ks.readers, run.exit)
		ks.run = nil
	}
	g.releaseSentinel(run.exit)
	run.first, run.reads = nil, nil
}
