package graph

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestStringers(t *testing.T) {
	for d, want := range map[DepType]string{In: "in", Out: "out", InOut: "inout", InOutSet: "inoutset"} {
		if d.String() != want {
			t.Fatalf("%v", d)
		}
	}
	if DepType(99).String() == "" {
		t.Fatalf("unknown dep type unprintable")
	}
	for s, want := range map[State]string{Created: "created", Ready: "ready", Running: "running", Completed: "completed"} {
		if s.String() != want {
			t.Fatalf("%v", s)
		}
	}
	if State(99).String() == "" {
		t.Fatalf("unknown state unprintable")
	}
}

func TestAccessors(t *testing.T) {
	g, _ := newTestGraph(0)
	a := g.Submit("a", []Dep{{1, Out}}, nil, nil)
	b := g.Submit("b", []Dep{{1, In}}, nil, nil)
	if a.NumSuccessors() != 1 {
		t.Fatalf("succs = %d", a.NumSuccessors())
	}
	if got := a.Successors(); len(got) != 1 || got[0] != b {
		t.Fatalf("successors = %v", got)
	}
	if g.Opts() != 0 {
		t.Fatalf("opts = %v", g.Opts())
	}
}

func TestResetDiscoveryFrontier(t *testing.T) {
	g, c := newTestGraph(0)
	g.Submit("w", []Dep{{1, Out}}, nil, nil)
	g.ResetDiscoveryFrontier()
	// After a reset, a reader of key 1 sees no prior writer.
	r := g.Submit("r", []Dep{{1, In}}, nil, nil)
	if r.State() != Ready {
		t.Fatalf("frontier not cleared")
	}
	c.drain(g)
}

// TestRecordingIgnoresCrossBoundaryEdges: edges from tasks outside the
// recording must order iteration 0 but not count toward replay
// indegrees — otherwise replays deadlock waiting for predecessors that
// never run again.
func TestRecordingIgnoresCrossBoundaryEdges(t *testing.T) {
	g, c := newTestGraph(OptAll)
	// Pre-region writer, still live while the recording starts.
	pre := g.Submit("pre", []Dep{{1, Out}}, nil, nil)

	g.BeginRecording()
	rec := g.Submit("rec", []Dep{{1, In}, {2, Out}}, nil, nil)
	g.Flush()
	g.EndRecording()

	if rec.State() == Ready {
		t.Fatalf("recorded task ready before live cross-boundary pred completed")
	}
	if rec.Indegree() != 0 {
		t.Fatalf("cross-boundary edge counted in recorded indegree: %d", rec.Indegree())
	}
	c.complete(g, pre)
	c.drain(g)

	// Replays must not wait for `pre` again.
	for it := 0; it < 3; it++ {
		if err := g.BeginReplay(); err != nil {
			t.Fatal(err)
		}
		g.Replay(nil, nil, nil, nil)
		if err := g.FinishReplay(); err != nil {
			t.Fatal(err)
		}
		if got := len(c.drain(g)); got != 1 {
			t.Fatalf("iter %d drained %d", it, got)
		}
	}
}

// TestSequentialRecordingsIndependent: a second persistent region must
// not inherit replay edges from the first (epoch isolation).
func TestSequentialRecordingsIndependent(t *testing.T) {
	g, c := newTestGraph(OptAll)

	g.BeginRecording()
	g.Submit("first", []Dep{{1, InOut}}, nil, nil)
	g.Flush()
	g.EndRecording()
	c.drain(g)
	g.EndPersistent()

	g.BeginRecording()
	second := g.Submit("second", []Dep{{1, InOut}}, nil, nil)
	g.Flush()
	g.EndRecording()
	// The edge from the completed first-epoch task is a one-time
	// constraint: pruned, not recorded.
	if second.Indegree() != 0 {
		t.Fatalf("second recording inherited indegree %d", second.Indegree())
	}
	c.drain(g)
	if err := g.BeginReplay(); err != nil {
		t.Fatal(err)
	}
	g.Replay(nil, nil, nil, nil)
	if err := g.FinishReplay(); err != nil {
		t.Fatal(err)
	}
	if got := len(c.drain(g)); got != 1 {
		t.Fatalf("replay drained %d", got)
	}
}

func TestWriteDOT(t *testing.T) {
	g, c := newTestGraph(OptAll)
	g.BeginRecording()
	g.Submit("produce", []Dep{{1, Out}}, nil, nil)
	g.Submit("x0", []Dep{{2, InOutSet}}, nil, nil)
	g.Submit("x1", []Dep{{2, InOutSet}}, nil, nil)
	g.Submit("consume", []Dep{{1, In}, {2, In}}, nil, nil)
	g.Flush()
	g.EndRecording()

	var sb strings.Builder
	if err := WriteDOT(&sb, g.Recorded(), "test"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, frag := range []string{"digraph", "produce", "consume", "->", "shape=point"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("missing %q in dot output:\n%s", frag, out)
		}
	}
	// Edge count in DOT matches created edges within the set.
	if got, want := strings.Count(out, "->"), 4; got != want {
		// produce->consume, x0->redirect, x1->redirect, redirect->consume
		t.Fatalf("dot edges = %d, want %d:\n%s", got, want, out)
	}
	c.drain(g)
}

// TestDroppedGraphFreesItsTasksInOneCycle: once a graph is unreachable,
// one collection frees its tasks and what their bodies hold. A partly
// used task chunk kept in a sync.Pool outlived the graph by a cycle (the
// pool stays on the runtime's global list), which kept a finished
// region live and doubled the heap goal for as long as regions ran one
// collection apart.
func TestDroppedGraphFreesItsTasksInOneCycle(t *testing.T) {
	freed := make(chan struct{})
	func() {
		g := NewWithConfig(Config{Opts: OptAll, OnReady: func(*Task) {}})
		payload := new([64]byte)
		runtime.SetFinalizer(payload, func(*[64]byte) { close(freed) })
		g.Submit("t", []Dep{{Key: 1, Type: Out}}, func(any) {}, payload)
	}()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("a dropped graph's task outlived one collection")
	}
}
