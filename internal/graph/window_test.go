package graph

import "testing"

// TestEndWindowOnlyWhenForgettingChangesNothing: a window ends only on a
// drained graph, outside a persistent region, without poison a later
// task could still inherit, and never under OptKeepPrunedEdges.
func TestEndWindowOnlyWhenForgettingChangesNothing(t *testing.T) {
	g, c := newTestGraph(OptAll)
	g.Submit("w", []Dep{{1, Out}}, nil, nil)
	if g.EndWindow() {
		t.Fatal("a window with a live task ended")
	}
	c.drain(g)
	if !g.EndWindow() {
		t.Fatal("a drained window did not end")
	}
	// The frontier is forgotten: a reader of key 1 attempts no constraint.
	before := g.Stats()
	if r := g.Submit("r", []Dep{{1, In}}, nil, nil); r.State() != Ready {
		t.Fatalf("reader after the window is %v, want ready", r.State())
	}
	if after := g.Stats(); after.EdgesAttempted != before.EdgesAttempted {
		t.Fatalf("%d constraints attempted against an ended window", after.EdgesAttempted-before.EdgesAttempted)
	}
	c.drain(g)

	// A failed writer's poison outlives the drain until ConsumeFailures.
	f := g.Submit("f", []Dep{{2, Out}}, nil, nil)
	g.Start(c.pop())
	g.AbortInto(f, nil)
	if g.Live() != 0 || g.EndWindow() {
		t.Fatalf("a window with unconsumed poison ended (live %d)", g.Live())
	}
	if r := g.Submit("r2", []Dep{{2, In}}, nil, nil); !r.Poisoned() {
		t.Fatal("reader of a failed writer's key not poisoned")
	}
	c.drain(g)
	g.ConsumeFailures()
	if !g.EndWindow() {
		t.Fatal("window did not end once its failure was consumed")
	}

	g.BeginRecording()
	if g.EndWindow() {
		t.Fatal("a window ended inside a persistent region")
	}
	g.EndPersistent()

	v, vc := newTestGraph(OptAll | OptKeepPrunedEdges)
	v.Submit("w", []Dep{{1, Out}}, nil, nil)
	vc.drain(v)
	if v.EndWindow() {
		t.Fatal("a window ended under OptKeepPrunedEdges")
	}
	if st := g.Stats(); st.WindowsEnded != 2 {
		t.Fatalf("WindowsEnded %d, want 2", st.WindowsEnded)
	}
}

// TestEndWindowReusesTaskMemory: the next window's tasks come out of the
// ended window's chunks, zeroed.
func TestEndWindowReusesTaskMemory(t *testing.T) {
	g, c := newTestGraph(OptAll)
	descs := make([]TaskDesc, 2*chunkTasks)
	for i := range descs {
		descs[i] = TaskDesc{Label: "a", InOut: []Key{Key(i % 7)}}
	}
	first := map[*Task]bool{}
	for _, tk := range g.SubmitBatch(descs, nil) {
		first[tk] = true
	}
	c.drain(g)
	if !g.EndWindow() {
		t.Fatal("window did not end")
	}
	for _, ck := range g.spare {
		for i := range ck.buf {
			if tk := &ck.buf[i]; tk.ID != 0 || tk.Label != "" || tk.succWord.Load() != 0 || tk.preds.Load() != 0 || tk.lastSucc != nil || tk.State() != Created {
				t.Fatalf("recycled task %d of its chunk not zeroed", i)
			}
		}
	}
	for _, tk := range g.SubmitBatch(descs[:chunkTasks], nil) {
		if !first[tk] {
			t.Fatal("a task of the next window came from a fresh chunk")
		}
	}
	if st := g.Stats(); st.TasksReused != chunkTasks {
		t.Fatalf("TasksReused %d, want %d", st.TasksReused, chunkTasks)
	}
	c.drain(g)
}

// TestRecordedChunksNeverHandedOut: after a recording, a thousand plain
// windows over the same keys end and reuse their memory, and never a
// chunk that holds a recorded task; the schedule still replays.
func TestRecordedChunksNeverHandedOut(t *testing.T) {
	g, c := newTestGraph(OptAll)
	g.Submit("before", []Dep{{9, Out}}, nil, nil) // shares the recording's first chunk
	g.BeginRecording()
	for i := 0; i < 3*chunkTasks/2; i++ {
		g.Submit("rec", []Dep{{Key(i % 5), InOut}}, nil, nil)
	}
	g.EndRecording()
	g.Flush()
	c.drain(g)
	cs, err := g.Compile()
	if err != nil {
		t.Fatal(err)
	}
	g.EndPersistent()
	pinned := map[*taskChunk]bool{}
	for _, ck := range g.windowChunks {
		pinned[ck] = true
	}
	recorded := map[*Task]bool{}
	for _, tk := range cs.Tasks() {
		recorded[tk] = true
	}
	descs := make([]TaskDesc, 40)
	for i := range descs {
		descs[i] = TaskDesc{Label: "plain", InOut: []Key{Key(i % 5)}}
	}
	for w := 0; w < 1000; w++ {
		for _, tk := range g.SubmitBatch(descs, nil) {
			if recorded[tk] {
				t.Fatalf("window %d handed out recorded task %d", w, tk.ID)
			}
		}
		c.drain(g)
		if !g.EndWindow() {
			t.Fatalf("window %d did not end", w)
		}
		for _, ck := range g.spare {
			if pinned[ck] {
				t.Fatalf("window %d put a recording's chunk on the free list", w)
			}
		}
	}
	if st := g.Stats(); st.TasksReused == 0 {
		t.Fatal("no task memory reused")
	}
	for it := 0; it < 3; it++ {
		if err := cs.BeginIteration(); err != nil {
			t.Fatal(err)
		}
		n := 0
		ready := append([]*Task(nil), cs.Roots()...)
		for len(ready) > 0 {
			tk := ready[len(ready)-1]
			ready = append(ready[:len(ready)-1], cs.FinishInto(tk, nil, Completed)...)
			n++
		}
		if n != cs.Len() || g.Live() != 0 {
			t.Fatalf("iteration %d ran %d of %d positions, live %d", it, n, cs.Len(), g.Live())
		}
	}
}

// TestDetachedTaskPinsItsChunk: a detached task's chunk never goes back
// to the free list — a queue may hold the task after an early Fulfill.
func TestDetachedTaskPinsItsChunk(t *testing.T) {
	g, c := newTestGraph(OptAll)
	descs := make([]TaskDesc, 3*chunkTasks)
	for i := range descs {
		descs[i] = TaskDesc{Label: "a", Out: []Key{Key(i)}}
	}
	descs[chunkTasks+5].Detached = true
	ts := g.SubmitBatch(descs, nil)
	chunks := append([]*taskChunk(nil), g.windowChunks...)
	c.drain(g)
	if !g.EndWindow() {
		t.Fatal("window did not end")
	}
	if len(chunks) != 3 || len(g.spare) != 2 {
		t.Fatalf("%d chunks, %d recycled, want 3 and 2", len(chunks), len(g.spare))
	}
	for _, ck := range g.spare {
		if ck == chunks[1] {
			t.Fatal("the detached task's chunk was recycled")
		}
	}
	if ts[chunkTasks+5].Label != "a" {
		t.Fatal("the detached task was cleared")
	}
}

// TestOpenGroupsStayBounded: a stream of 10 000 inoutset groups with no
// Flush keeps only the groups that are open on the open list.
func TestOpenGroupsStayBounded(t *testing.T) {
	g, c := newTestGraph(OptAll)
	const keys = 7
	for i := 0; i < 10_000; i++ {
		k := Key(i % keys)
		g.Submit("m", []Dep{{k, InOutSet}}, nil, nil)
		g.Submit("m", []Dep{{k, InOutSet}}, nil, nil)
		if i%3 == 0 {
			g.Submit("r", []Dep{{k, In}}, nil, nil) // closes the group
		}
		if n := len(g.open); n > keys {
			t.Fatalf("after %d groups the open list holds %d, want at most %d", i+1, n, keys)
		}
		if i%100 == 0 {
			c.drain(g)
		}
	}
	g.Flush()
	c.drain(g)
	if len(g.open) != 0 || g.Live() != 0 {
		t.Fatalf("open %d live %d after Flush", len(g.open), g.Live())
	}
	if !g.EndWindow() {
		t.Fatal("window did not end")
	}
}

// TestEndWindowRefusesOpenGroup: an open group's redirect node holds the
// producer's sentinel, and the window with it.
func TestEndWindowRefusesOpenGroup(t *testing.T) {
	g, c := newTestGraph(OptAll)
	g.Submit("m", []Dep{{1, InOutSet}}, nil, nil)
	c.drain(g)
	if g.Live() == 0 || g.EndWindow() {
		t.Fatalf("a window with an open group ended (live %d)", g.Live())
	}
	g.Flush()
	c.drain(g)
	if !g.EndWindow() {
		t.Fatal("window did not end after Flush")
	}
}
