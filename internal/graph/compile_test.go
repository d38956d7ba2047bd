package graph

import (
	"errors"
	"testing"
)

// recordDiamond records a diamond (a -> b, a -> c, b -> d, c -> d)
// inside a persistent region and drains the recording iteration.
func recordDiamond(t *testing.T) (*Graph, *collector, []*Task) {
	t.Helper()
	g, c := newTestGraph(OptAll)
	g.BeginRecording()
	a := g.Submit("a", []Dep{{1, Out}}, nil, nil)
	b := g.Submit("b", []Dep{{1, In}, {2, Out}}, nil, nil)
	d := g.Submit("c", []Dep{{1, In}, {3, Out}}, nil, nil)
	e := g.Submit("d", []Dep{{2, In}, {3, In}}, nil, nil)
	g.EndRecording()
	c.drain(g)
	return g, c, []*Task{a, b, d, e}
}

// drainSchedule runs one compiled iteration to completion on a single
// goroutine, completing tasks in frontier order. Poisoned tasks finish
// as Skipped, mirroring the executor's skip path. Returns the
// completion order as positions.
func drainSchedule(cs *Compiled) []int32 {
	frontier := append([]*Task(nil), cs.Roots()...)
	var order []int32
	var buf []*Task
	for i := 0; i < len(frontier); i++ {
		t := frontier[i]
		cs.g.Start(t)
		final := Completed
		if t.Poisoned() {
			final = Skipped
		}
		buf = cs.FinishInto(t, buf, final)
		frontier = append(frontier, buf...)
		order = append(order, t.slot)
	}
	return order
}

func TestCompileCSRStructure(t *testing.T) {
	g, _, tasks := recordDiamond(t)
	cs, err := g.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if cs.Len() != 4 {
		t.Fatalf("Len = %d, want 4", cs.Len())
	}
	if len(cs.Roots()) != 1 || cs.Roots()[0] != tasks[0] {
		t.Fatalf("roots = %v, want [a]", cs.Roots())
	}
	wantTemplate := []int32{0, 1, 1, 2}
	for i, want := range wantTemplate {
		if cs.template[i] != want {
			t.Fatalf("template[%d] = %d, want %d", i, cs.template[i], want)
		}
		if int(cs.template[i]) != tasks[i].Indegree() {
			t.Fatalf("template[%d] disagrees with recordedIndegree %d", i, tasks[i].Indegree())
		}
	}
	// CSR rows: a -> {b, c}; b -> {d}; c -> {d}; d -> {}.
	wantRows := [][]int32{{1, 2}, {3}, {3}, {}}
	for p := range wantRows {
		row := cs.succs[cs.succOff[p]:cs.succOff[p+1]]
		if len(row) != len(wantRows[p]) {
			t.Fatalf("row %d = %v, want %v", p, row, wantRows[p])
		}
		for j, want := range wantRows[p] {
			if row[j] != want {
				t.Fatalf("row %d = %v, want %v", p, row, wantRows[p])
			}
		}
	}
}

func TestCompiledReplayDrainsRepeatedly(t *testing.T) {
	g, _, tasks := recordDiamond(t)
	cs, err := g.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	for iter := 0; iter < 5; iter++ {
		if err := cs.BeginIteration(); err != nil {
			t.Fatalf("iter %d: BeginIteration: %v", iter, err)
		}
		if got := g.Live(); got != 4 {
			t.Fatalf("iter %d: live = %d mid-iteration, want 4", iter, got)
		}
		order := drainSchedule(cs)
		if len(order) != 4 {
			t.Fatalf("iter %d: drained %d tasks, want 4", iter, len(order))
		}
		if order[0] != 0 || order[3] != 3 {
			t.Fatalf("iter %d: completion order %v violates the diamond", iter, order)
		}
		if got := g.Live(); got != 0 {
			t.Fatalf("iter %d: live = %d after drain", iter, got)
		}
		for _, tk := range tasks {
			if tk.State() != Completed {
				t.Fatalf("iter %d: task %s state %v", iter, tk.Label, tk.State())
			}
		}
	}
}

func TestCompiledReplayPoisonConeAndScrub(t *testing.T) {
	g, _, tasks := recordDiamond(t)
	cs, err := g.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// Iteration 0: fail b. Its cone {d} must drain as Skipped while the
	// disjoint branch c completes.
	if err := cs.BeginIteration(); err != nil {
		t.Fatalf("BeginIteration: %v", err)
	}
	var buf []*Task
	buf = cs.FinishInto(tasks[0], buf, Completed)
	frontier := append([]*Task(nil), buf...)
	for i := 0; i < len(frontier); i++ {
		tk := frontier[i]
		final := Completed
		switch {
		case tk == tasks[1]:
			final = Aborted
		case tk.Poisoned():
			final = Skipped
		}
		buf = cs.FinishInto(tk, buf, final)
		frontier = append(frontier, buf...)
	}
	if got := g.Live(); got != 0 {
		t.Fatalf("live = %d after the failed iteration drained", got)
	}
	if tasks[2].State() != Completed {
		t.Fatalf("disjoint branch c = %v, want Completed", tasks[2].State())
	}
	if tasks[3].State() != Skipped || !tasks[3].Poisoned() {
		t.Fatalf("cone task d = %v (poisoned=%v), want Skipped+poisoned", tasks[3].State(), tasks[3].Poisoned())
	}
	// Next iteration: poison scrubbed, everything completes again.
	if err := cs.BeginIteration(); err != nil {
		t.Fatalf("BeginIteration after failure: %v", err)
	}
	if tasks[3].Poisoned() {
		t.Fatalf("poison not scrubbed by BeginIteration")
	}
	drainSchedule(cs)
	if tasks[3].State() != Completed {
		t.Fatalf("d = %v after clean iteration, want Completed", tasks[3].State())
	}
}

func TestCompiledReplayAllocFree(t *testing.T) {
	g, c := newTestGraph(OptAll)
	g.BeginRecording()
	// A wider structure than the diamond: 4 chains of 8 joined at a sink.
	for chain := 0; chain < 4; chain++ {
		k := Key(10 + chain)
		for i := 0; i < 8; i++ {
			g.Submit("link", []Dep{{k, InOut}}, nil, nil)
		}
	}
	g.Submit("sink", []Dep{{10, In}, {11, In}, {12, In}, {13, In}}, nil, nil)
	g.EndRecording()
	c.drain(g)
	cs, err := g.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	frontier := make([]*Task, 0, cs.Len())
	buf := make([]*Task, 0, cs.Len())
	allocs := testing.AllocsPerRun(20, func() {
		if err := cs.BeginIteration(); err != nil {
			t.Fatalf("BeginIteration: %v", err)
		}
		frontier = append(frontier[:0], cs.Roots()...)
		for i := 0; i < len(frontier); i++ {
			buf = cs.FinishInto(frontier[i], buf, Completed)
			frontier = append(frontier, buf...)
		}
	})
	if allocs != 0 {
		t.Fatalf("compiled replay iteration allocated %v times, want 0", allocs)
	}
}

func TestCompileRejectsDetached(t *testing.T) {
	g, c := newTestGraph(OptAll)
	g.BeginRecording()
	g.Submit("a", []Dep{{1, Out}}, nil, nil)
	dt := g.SubmitDetached("d", []Dep{{1, In}}, nil, nil)
	g.EndRecording()
	c.drain(g)
	// The detached task completes via its external path in real use; for
	// the compile check only the flag matters.
	if dt.State() != Completed {
		g.Complete(dt)
	}
	if _, err := g.Compile(); !errors.Is(err, ErrCompileDetached) {
		t.Fatalf("Compile = %v, want ErrCompileDetached", err)
	}
}

func TestCompileOutsidePersistentRegionFails(t *testing.T) {
	g, c := newTestGraph(OptAll)
	g.Submit("a", []Dep{{1, Out}}, nil, nil)
	c.drain(g)
	if _, err := g.Compile(); err == nil {
		t.Fatalf("Compile outside a region must fail")
	}
	g.BeginRecording()
	if _, err := g.Compile(); err == nil {
		t.Fatalf("Compile with recording open must fail")
	}
	g.EndRecording()
	g.EndPersistent()
}

func TestCompiledBeginIterationRejectsInFlight(t *testing.T) {
	g, _, _ := recordDiamond(t)
	cs, err := g.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if err := cs.BeginIteration(); err != nil {
		t.Fatalf("BeginIteration: %v", err)
	}
	if err := cs.BeginIteration(); err == nil {
		t.Fatalf("BeginIteration with tasks outstanding must fail")
	}
	drainSchedule(cs)
}
