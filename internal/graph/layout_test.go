package graph

import (
	"testing"
	"unsafe"
)

// TestTaskLayout pins the Task layout the discovery and release paths
// were measured with. Line 0 (the first 64 bytes) holds everything
// addEdge reads of a predecessor, finishInto of the finishing task and
// its successors, and releaseSentinel adds to, so pruning a finished
// predecessor is one line and a created edge or a short successor walk
// stays on it; the 352-byte Task it replaced spread the same fields over
// three. Together with the open-addressing key table the 232-byte layout
// took lulesh_discover's solve_s median from 0.167 to 0.147 s (−12 %) on
// one P, winning 19 of 20 alternating 15-s pairs (commit f473092). A
// field that pushes a line-0 field out, or the chunk over the
// small-object limit, undoes that without failing anything else.
func TestTaskLayout(t *testing.T) {
	var task Task
	if sz := unsafe.Sizeof(task); sz > 240 {
		t.Errorf("Sizeof(Task) = %d, want <= 240", sz)
	}
	line0 := []struct {
		name      string
		off, size uintptr
	}{
		{"state", unsafe.Offsetof(task.state), unsafe.Sizeof(task.state)},
		{"preds", unsafe.Offsetof(task.preds), unsafe.Sizeof(task.preds)},
		{"succWord", unsafe.Offsetof(task.succWord), unsafe.Sizeof(task.succWord)},
		{"poisoned", unsafe.Offsetof(task.poisoned), unsafe.Sizeof(task.poisoned)},
		{"lastSucc", unsafe.Offsetof(task.lastSucc), unsafe.Sizeof(task.lastSucc)},
		{"succs0", unsafe.Offsetof(task.succs0), unsafe.Sizeof(task.succs0)},
	}
	for _, f := range line0 {
		if f.off+f.size > 64 {
			t.Errorf("Task.%s occupies bytes [%d, %d), want it inside the first 64", f.name, f.off, f.off+f.size)
		}
	}
	// Objects of 32 KiB or less come from the per-P cache; a pointerful
	// one above 512 bytes carries an 8-byte header inside its size class.
	const mallocHeader, maxSmall = 8, 32 << 10
	if chunk := chunkTasks*unsafe.Sizeof(task) + mallocHeader; chunk > maxSmall {
		t.Errorf("a chunk of %d tasks is %d bytes with its header, over the %d-byte small-object limit", chunkTasks, chunk, maxSmall)
	}
}

// TestGraphLayout keeps the fields every finish or stamp reads off the
// cache line of lr, which every finish writes: with clock 40 bytes before
// lr, the grain-0 drain (tdgbench -exp cpath, profiler off) ran about
// 70 % slower per task on a 2-vCPU VM.
func TestGraphLayout(t *testing.T) {
	var g Graph
	lr := unsafe.Offsetof(g.lr)
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"opts", unsafe.Offsetof(g.opts), unsafe.Sizeof(g.opts)},
		{"onReady", unsafe.Offsetof(g.onReady), unsafe.Sizeof(g.onReady)},
		{"onReadyBatch", unsafe.Offsetof(g.onReadyBatch), unsafe.Sizeof(g.onReadyBatch)},
		{"clock", unsafe.Offsetof(g.clock), unsafe.Sizeof(g.clock)},
	} {
		if end := f.off + f.size; end > lr || lr-end < 64 {
			t.Errorf("Graph.%s ends at byte %d and lr starts at %d: they can share a cache line", f.name, end, lr)
		}
	}
}

// TestCPStateLayout pins the critical-path side record at 48 bytes: four
// stamps, the path total and the best predecessor. The path's phase split
// is not stored: CP sums it along the best chain, once per window.
func TestCPStateLayout(t *testing.T) {
	if sz := unsafe.Sizeof(cpState{}); sz != 48 {
		t.Errorf("Sizeof(cpState) = %d, want 48", sz)
	}
}

// TestCPathSideTable: a graph without the critical-path profiler gives
// no task a record — redirect nodes included — and its accessors read
// zero; with the profiler every task has its own.
func TestCPathSideTable(t *testing.T) {
	build := func(cfg Config) []*Task {
		g := NewWithConfig(cfg)
		var ts []*Task
		ts = append(ts, g.Submit("w", []Dep{{1, Out}}, nil, nil))
		for i := 0; i < 3; i++ {
			ts = append(ts, g.Submit("s", []Dep{{1, InOutSet}}, nil, nil))
		}
		ts = append(ts, g.Submit("r", []Dep{{1, In}}, nil, nil))
		// A read run: its entry and exit nodes come from allocTasks too.
		descs := readers(0, 8, 8, 100)
		ts = g.SubmitBatch(descs, ts)
		g.Flush()
		if got := g.Stats().RedirectNodes; got < 3 {
			t.Fatalf("%d redirect nodes, want the group's and a read run's", got)
		}
		return ts
	}
	ready := func(*Task) {}
	for _, tk := range build(Config{Opts: OptAll, OnReady: ready}) {
		if tk.cp != nil {
			t.Fatalf("task %d (%s) has a critical-path record without a clock", tk.ID, tk.Label)
		}
		if total, _, _, _ := tk.CP(); total != 0 || tk.CPBest() != nil || tk.ReadyAtNs() != 0 ||
			tk.StartAtNs() != 0 || tk.FinishAtNs() != 0 {
			t.Fatalf("task %d reads non-zero critical-path state without a clock", tk.ID)
		}
	}
	seen := map[*cpState]bool{}
	for _, tk := range build(Config{Opts: OptAll, OnReady: ready, Clock: StepClock(1)}) {
		if tk.cp == nil || seen[tk.cp] {
			t.Fatalf("task %d (%s): record %p, want one of its own", tk.ID, tk.Label, tk.cp)
		}
		seen[tk.cp] = true
	}
}

// TestDeclaredDepsRoundTrip: up to inlineDeps declarations come back as
// declared, in the order discovery walks them; beyond that the first
// inlineDeps do, flagged truncated.
func TestDeclaredDepsRoundTrip(t *testing.T) {
	types := []DepType{In, In, Out, InOut, InOutSet}
	for n := 0; n <= inlineDeps+1; n++ {
		deps := make([]Dep, n)
		for i := range deps {
			deps[i] = Dep{Key: Key(i)<<32 | Key(1000+i), Type: types[i]}
		}
		var tk Task
		d, _ := groupDeps(nil, deps)
		tk.captureDeps(&d)
		got, trunc := tk.DeclaredDeps(nil)
		want := deps
		if n > inlineDeps {
			want = deps[:inlineDeps]
		}
		if trunc != (n > inlineDeps) {
			t.Fatalf("%d declarations: truncated = %v", n, trunc)
		}
		if len(got) != len(want) {
			t.Fatalf("%d declarations: got %v, want %v", n, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d declarations: got %v, want %v", n, got, want)
			}
		}
		// Appending keeps what dst held.
		pre := []Dep{{7, Out}}
		if got, _ := tk.DeclaredDeps(pre); len(got) != 1+len(want) || got[0] != pre[0] {
			t.Fatalf("%d declarations appended to one: %v", n, got)
		}
	}
}
