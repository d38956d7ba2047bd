package graph

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestStressSealRace races the producer's successor append against the
// finish that seals the list. A worker finishes every writer the moment
// it is ready, while the producer adds an edge from each writer of a
// round to every reader of that round: most of those edges meet a writer
// in the middle of its finish. Each edge must be counted and walked (the
// reader's counter receives its decrement), or pruned (or, under
// OptKeepPrunedEdges, kept uncounted) — never counted and missed, which
// leaves a reader that never readies, nor walked uncounted, which readies
// one early. A failed count must also find the writer's terminal state:
// a finish that sealed before it stored Completed would make the pruned
// edge poison the reader. CI runs it under -race with -count=20.
func TestStressSealRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const rounds, width, readers = 600, 16, 24
	const perRound = width + readers
	for _, opts := range []Opt{OptDedup, OptDedup | OptKeepPrunedEdges} {
		total := rounds * perRound
		readied := make([]atomic.Int32, total)
		// Twice the tasks: a task readied twice must not block the queue.
		queue := make(chan *Task, 2*total)
		g := NewWithConfig(Config{Opts: opts, OnReady: func(tk *Task) {
			readied[tk.ID].Add(1)
			queue <- tk
		}})
		done := make(chan string, 1)
		go func() {
			var buf []*Task
			for n := 0; n < total; n++ {
				tk := <-queue
				if ws, ok := tk.Attach.([]*Task); ok {
					for _, w := range ws {
						if !w.State().Done() {
							done <- "a reader ran before one of its writers finished"
							return
						}
					}
				}
				if !g.Start(tk) {
					done <- "a ready task could not start"
					return
				}
				buf = g.CompleteInto(tk, buf)
				for _, s := range buf {
					readied[s.ID].Add(1)
					queue <- s
				}
			}
			done <- ""
		}()
		var tasks []*Task
		deps := make([]Dep, width)
		for r := 0; r < rounds; r++ {
			ws := make([]*Task, width)
			for i := range ws {
				k := Key(r*width + i)
				ws[i] = g.Submit("w", []Dep{{k, Out}}, nil, nil)
				deps[i] = Dep{k, In}
			}
			tasks = append(tasks, ws...)
			for j := 0; j < readers; j++ {
				d := DescOf("r", deps)
				d.Attach = ws
				tasks = g.SubmitBatch([]TaskDesc{d}, tasks)
			}
		}
		select {
		case msg := <-done:
			if msg != "" {
				t.Fatalf("opts %d: %s", opts, msg)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("opts %d: %d tasks still live after 30 s: a counted edge was never walked", opts, g.Live())
		}

		var live, listed int
		for _, tk := range tasks {
			if n := readied[tk.ID].Load(); n != 1 {
				t.Fatalf("opts %d: task %d readied %d times", opts, tk.ID, n)
			}
			if tk.State() != Completed || tk.Poisoned() || tk.preds.Load() != 0 {
				t.Fatalf("opts %d: task %d ends %v, poisoned %v, counter %d", opts, tk.ID, tk.State(), tk.Poisoned(), tk.preds.Load())
			}
			if tk.succWord.Load()&sealBit == 0 {
				t.Fatalf("opts %d: finished task %d has an unsealed successor list", opts, tk.ID)
			}
			live += int(tk.live)
			listed += tk.NumSuccessors()
		}
		st := g.Stats()
		if st.EdgesAttempted != st.EdgesCreated+st.EdgesPruned+st.EdgesDuplicate || int64(listed) != st.EdgesCreated {
			t.Fatalf("opts %d: %+v, %d entries listed", opts, st, listed)
		}
		// Without kept edges every listed entry was counted: the pruned
		// ones were taken back.
		if opts&OptKeepPrunedEdges == 0 && live != listed || live > listed {
			t.Fatalf("opts %d: %d edges counted, %d listed", opts, live, listed)
		}
		if g.Live() != 0 || g.ReadyCount() != 0 {
			t.Fatalf("opts %d: gauges live %d ready %d after the drain", opts, g.Live(), g.ReadyCount())
		}
		t.Logf("opts %d: %d edges counted, %d listed, %d pruned", opts, live, listed, st.EdgesPruned)
	}
}

// TestUnputSuccRestoresTheList: an entry taken back after a failed count
// leaves the list as it was, a block it opened unlinked, so the next
// entry lands in its place.
func TestUnputSuccRestoresTheList(t *testing.T) {
	for _, n := range []int{0, inlineSuccs - 1, inlineSuccs, inlineSuccs + 1, inlineSuccs + blockSuccs, inlineSuccs + 2*blockSuccs} {
		var p Task
		succs := make([]*Task, n+1)
		for i := range succs {
			succs[i] = new(Task)
		}
		for _, s := range succs[:n] {
			ForceEdge(&p, s)
		}
		tail := p.succTail
		p.putSucc(n, new(Task))
		p.unputSucc(n)
		if p.succTail != tail {
			t.Fatalf("n=%d: the taken-back entry's block is still linked", n)
		}
		ForceEdge(&p, succs[n])
		got := p.Successors()
		if len(got) != n+1 {
			t.Fatalf("n=%d: %d successors, want %d", n, len(got), n+1)
		}
		for i, s := range got {
			if s != succs[i] {
				t.Fatalf("n=%d: successor %d out of place", n, i)
			}
		}
	}
}

// TestReleaseReadiesAfterEarlyFinishes: a task whose live predecessors
// all finished before its release readies at the release — a redirect
// node whose members finished before its group closed, and a replayed
// task whose predecessor finished before it was replayed — and the
// finishes that came first release nothing.
func TestReleaseReadiesAfterEarlyFinishes(t *testing.T) {
	g, c := newTestGraph(OptAll)
	m1 := g.Submit("m1", []Dep{{1, InOutSet}}, nil, nil)
	g.Submit("m2", []Dep{{1, InOutSet}}, nil, nil)
	var r *Task
	for _, tk := range m1.Successors() {
		if tk.Redirect {
			r = tk
		}
	}
	if r == nil || r.live != 2 {
		t.Fatalf("group node %v, want one with two live member edges", r)
	}
	for _, m := range []*Task{c.pop(), c.pop()} {
		g.Start(m)
		if rel := g.Complete(m); len(rel) != 0 {
			t.Fatalf("a member's finish released %d tasks before the group closed", len(rel))
		}
	}
	if r.State() != Created || r.preds.Load() != -2 {
		t.Fatalf("open group's node %v with counter %d, want created at -2", r.State(), r.preds.Load())
	}
	g.Flush()
	if got := c.pop(); got != r || r.State() != Ready || g.ReadyCount() != 1 {
		t.Fatalf("Flush delivered %v, node %v, ready gauge %d", got, r.State(), g.ReadyCount())
	}
	g.Start(r)
	g.Complete(r)

	// A replayed task whose predecessor finished first.
	h, hc := newTestGraph(OptAll)
	h.BeginRecording()
	a := h.Submit("a", []Dep{{1, Out}}, nil, nil)
	b := h.Submit("b", []Dep{{1, In}}, nil, nil)
	h.EndRecording()
	hc.drain(h)
	if err := h.BeginReplay(); err != nil {
		t.Fatal(err)
	}
	if a.succWord.Load()&sealBit != 0 || a.NumSuccessors() != 1 {
		t.Fatalf("replay left a's successor word %#x, want one unsealed entry", a.succWord.Load())
	}
	h.Replay(nil, nil, nil, nil)
	h.Start(hc.pop())
	if rel := h.Complete(a); len(rel) != 0 {
		t.Fatalf("a's finish released %d tasks before b was replayed", len(rel))
	}
	h.Replay(nil, nil, nil, nil)
	if got := hc.pop(); got != b || b.State() != Ready {
		t.Fatalf("b's replay delivered %v, b %v, want b ready at its release", got, b.State())
	}
	if err := h.FinishReplay(); err != nil {
		t.Fatal(err)
	}
	h.Start(b)
	h.Complete(b)
	if h.Live() != 0 || h.ReadyCount() != 0 {
		t.Fatalf("gauges live %d ready %d after the replay", h.Live(), h.ReadyCount())
	}
}

// TestOnlyLastFinisherReadies: a task released with predecessors
// outstanding is readied by the finish of the last one only, returned to
// that finisher and never delivered to OnReady — a plain task, a
// redirect node closed before its members finished, and a replayed task.
func TestOnlyLastFinisherReadies(t *testing.T) {
	g, c := newTestGraph(OptAll)
	a := g.Submit("a", []Dep{{1, Out}}, nil, nil)
	b := g.Submit("b", []Dep{{2, Out}}, nil, nil)
	s := g.Submit("s", []Dep{{1, In}, {2, In}}, nil, nil)
	c.pop()
	c.pop()
	g.Start(a)
	if rel := g.Complete(a); len(rel) != 0 || s.State() != Created {
		t.Fatalf("the first finisher released %d tasks, s %v", len(rel), s.State())
	}
	g.Start(b)
	if rel := g.Complete(b); len(rel) != 1 || rel[0] != s || s.State() != Ready {
		t.Fatalf("the last finisher released %v, s %v", rel, s.State())
	}
	if c.pop() != nil || g.ReadyCount() != 1 {
		t.Fatalf("s delivered to OnReady too, or ready gauge %d", g.ReadyCount())
	}
	g.Start(s)
	g.Complete(s)

	m1 := g.Submit("m1", []Dep{{3, InOutSet}}, nil, nil)
	m2 := g.Submit("m2", []Dep{{3, InOutSet}}, nil, nil)
	g.Flush()
	if n := len(c.ready); n != 2 {
		t.Fatalf("%d tasks ready after Flush, want the two members", n)
	}
	c.pop()
	c.pop()
	g.Start(m1)
	if rel := g.Complete(m1); len(rel) != 0 {
		t.Fatalf("the first member released %v", rel)
	}
	g.Start(m2)
	rel := g.Complete(m2)
	if len(rel) != 1 || !rel[0].Redirect || rel[0].State() != Ready {
		t.Fatalf("the last member released %v", rel)
	}
	g.Start(rel[0])
	g.Complete(rel[0])

	// Replayed: a's finish after b's release readies b.
	h, hc := newTestGraph(OptAll)
	h.BeginRecording()
	ra := h.Submit("a", []Dep{{1, Out}}, nil, nil)
	rb := h.Submit("b", []Dep{{1, In}}, nil, nil)
	h.EndRecording()
	hc.drain(h)
	for iter := 1; iter <= 2; iter++ {
		if err := h.BeginReplay(); err != nil {
			t.Fatal(err)
		}
		h.Replay(nil, nil, nil, nil)
		h.Replay(nil, nil, nil, nil)
		if err := h.FinishReplay(); err != nil {
			t.Fatal(err)
		}
		if got := hc.pop(); got != ra || rb.State() != Created {
			t.Fatalf("iter %d: replay delivered %v, b %v", iter, got, rb.State())
		}
		h.Start(ra)
		if rel := h.Complete(ra); len(rel) != 1 || rel[0] != rb {
			t.Fatalf("iter %d: a's finish released %v, want b", iter, rel)
		}
		h.Start(rb)
		h.Complete(rb)
	}
	if h.Live() != 0 || h.ReadyCount() != 0 || hc.pop() != nil {
		t.Fatalf("gauges live %d ready %d after the replays", h.Live(), h.ReadyCount())
	}
}

// TestFulfilledBeforeReadyStaysDone: a detached task that an external
// Fulfill finished while it still waited on a predecessor stays finished
// when that predecessor finishes — not released, not counted in the ready
// gauge, not moved back to Ready — so a later constraint on it is pruned
// without poison, as on any finished task.
func TestFulfilledBeforeReadyStaysDone(t *testing.T) {
	g, c := newTestGraph(OptAll)
	a := g.Submit("a", []Dep{{1, Out}}, nil, nil)
	d := g.SubmitDetached("d", []Dep{{1, InOut}}, nil, nil)
	g.Complete(d) // the Fulfill, before a has finished
	c.pop()
	g.Start(a)
	if rel := g.Complete(a); len(rel) != 0 || d.State() != Completed {
		t.Fatalf("a's finish released %v, d %v, want nothing and d completed", rel, d.State())
	}
	if g.Live() != 0 || g.ReadyCount() != 0 {
		t.Fatalf("gauges live %d ready %d, want 0 and 0", g.Live(), g.ReadyCount())
	}
	before := g.Stats()
	if r := g.Submit("r", []Dep{{1, In}}, nil, nil); r.State() != Ready || r.Poisoned() {
		t.Fatalf("a reader of d's key is %v, poisoned %v, want ready and clean", r.State(), r.Poisoned())
	}
	if st := g.Stats(); st.EdgesPruned != before.EdgesPruned+1 {
		t.Fatalf("the constraint on d was not pruned: %+v", st)
	}
	c.drain(g)
}
