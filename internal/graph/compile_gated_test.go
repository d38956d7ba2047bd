package graph

import (
	"errors"
	"testing"
)

// TestGatedIterationHoldsTasksUntilReplayed walks the diamond through a
// gated iteration by hand: a position whose predecessors have all
// finished still waits for the Replay call that re-instantiates it, one
// whose Replay came first waits for its predecessors, and each is handed
// to OnReady exactly once.
func TestGatedIterationHoldsTasksUntilReplayed(t *testing.T) {
	g, col, tasks := recordDiamond(t)
	cs, err := g.CompileGated()
	if err != nil {
		t.Fatalf("CompileGated: %v", err)
	}
	a, b, c, d := tasks[0], tasks[1], tasks[2], tasks[3]
	for iter := 1; iter <= 3; iter++ {
		if err := cs.BeginReplay(); err != nil {
			t.Fatalf("iteration %d: BeginReplay: %v", iter, err)
		}
		if got := col.pop(); got != nil {
			t.Fatalf("iteration %d: %s ready before anything was replayed", iter, got.Label)
		}
		if got := cs.Replay(iter, nil, nil, nil); got != a || a.FirstPrivate != iter {
			t.Fatalf("iteration %d: first Replay returned %v with firstprivate %v", iter, got.Label, a.FirstPrivate)
		}
		if got := col.pop(); got != a {
			t.Fatalf("iteration %d: the root was not handed over by its Replay", iter)
		}
		// a finishes before b and c are resubmitted: it releases nothing.
		if rel := cs.FinishInto(a, nil, Completed); len(rel) != 0 {
			t.Fatalf("iteration %d: a released %d tasks the producer still holds", iter, len(rel))
		}
		cs.Replay(iter, nil, nil, nil)
		if got := col.pop(); got != b {
			t.Fatalf("iteration %d: b, its predecessor done, was not readied by its Replay", iter)
		}
		// d is resubmitted before c: b's finish must not release it.
		cs.Replay(iter, nil, nil, nil)
		if got := col.pop(); got != c {
			t.Fatalf("iteration %d: c not readied by its Replay", iter)
		}
		if err := cs.FinishReplay(); err == nil {
			t.Fatalf("iteration %d: FinishReplay accepted 3 of 4 tasks", iter)
		}
		if got := cs.Released(); got != 3 {
			t.Fatalf("iteration %d: Released = %d, want 3", iter, got)
		}
		if rel := cs.FinishInto(b, nil, Completed); len(rel) != 0 {
			t.Fatalf("iteration %d: b released d before c finished", iter)
		}
		cs.Replay(iter, nil, nil, nil)
		if got := col.pop(); got != nil {
			t.Fatalf("iteration %d: d ready with c unfinished", iter)
		}
		if err := cs.FinishReplay(); err != nil {
			t.Fatalf("iteration %d: FinishReplay: %v", iter, err)
		}
		if rel := cs.FinishInto(c, nil, Completed); len(rel) != 1 || rel[0] != d {
			t.Fatalf("iteration %d: c released %v, want d", iter, rel)
		}
		cs.FinishInto(d, nil, Completed)
		if live := g.Live(); live != 0 {
			t.Fatalf("iteration %d: live = %d after the drain", iter, live)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("a fifth Replay of a four-task recording did not panic")
			}
		}()
		if err := cs.BeginReplay(); err != nil {
			t.Fatalf("BeginReplay: %v", err)
		}
		for i := 0; i < 5; i++ {
			cs.Replay(nil, nil, nil, nil)
		}
	}()
}

// TestGatedCompileTakesDetached: a recording with a detached task
// compiles for gated replay only.
func TestGatedCompileTakesDetached(t *testing.T) {
	g, col := newTestGraph(OptAll)
	g.BeginRecording()
	g.Submit("a", []Dep{{1, Out}}, nil, nil)
	dt := g.SubmitDetached("d", []Dep{{1, In}}, nil, nil)
	g.EndRecording()
	col.drain(g)
	if dt.State() != Completed {
		g.Complete(dt)
	}
	cs, err := g.CompileGated()
	if err != nil {
		t.Fatalf("CompileGated: %v", err)
	}
	if err := cs.BeginIteration(); !errors.Is(err, ErrCompileDetached) {
		t.Fatalf("BeginIteration on a schedule with a detached task = %v, want ErrCompileDetached", err)
	}
	if err := cs.BeginReplay(); err != nil {
		t.Fatalf("BeginReplay: %v", err)
	}
	attach := new(int)
	cs.Replay(nil, nil, nil, nil)
	if got := cs.Replay(nil, nil, nil, attach); got != dt || dt.Attach != attach {
		t.Fatalf("the detached task was not re-instantiated with its new attachment")
	}
}
