package cpath

import (
	"strings"
	"testing"
	"time"

	"taskdep/internal/graph"
)

func TestBrent(t *testing.T) {
	cases := []struct {
		t1, tinf int64
		p        int
		want     int64
	}{
		{1000, 30, 4, 250}, // work-bound
		{100, 80, 4, 80},   // span-bound
		{100, 80, 0, 100},  // p clamped to 1
		{0, 0, 8, 0},
	}
	for _, c := range cases {
		if got := brent(c.t1, c.tinf, c.p); got != c.want {
			t.Errorf("brent(%d,%d,%d) = %d, want %d", c.t1, c.tinf, c.p, got, c.want)
		}
	}
}

func TestProject(t *testing.T) {
	// Work-bound window: removing discovery from the span changes
	// nothing because T1/P dominates.
	w := project(1000, 100, 40, 2)
	if w.BrentNs != 500 || w.ZeroDiscTInfNs != 60 || w.ZeroDiscBrentNs != 500 {
		t.Fatalf("work-bound projection: %+v", w)
	}
	if w.Speedup != 1 {
		t.Fatalf("work-bound speedup = %v, want 1", w.Speedup)
	}
	if len(w.Projections) != 3 { // P = 1, 2, 4
		t.Fatalf("projection sweep: %+v", w.Projections)
	}
	if r := w.Projections[0]; r.Workers != 1 || r.MakespanNs != 1000 || r.ParallelismCap {
		t.Fatalf("P=1 row: %+v", r)
	}

	// Span-dominated window where the span IS discovery: the zero-disc
	// projection falls back to the work bound.
	w = project(100, 90, 90, 4)
	if w.BrentNs != 90 || w.ZeroDiscTInfNs != 0 || w.ZeroDiscBrentNs != 25 {
		t.Fatalf("span-bound projection: %+v", w)
	}
	if w.Speedup != float64(90)/25 {
		t.Fatalf("span-bound speedup = %v", w.Speedup)
	}

	// Degenerate: no work at all. Speedup must fall back to 1, not NaN.
	w = project(0, 10, 20, 1)
	if w.ZeroDiscTInfNs != 0 || w.ZeroDiscBrentNs != 0 || w.Speedup != 1 {
		t.Fatalf("degenerate projection: %+v", w)
	}
}

// driveSerial executes every ready task in FIFO order on the calling
// goroutine, following rt's finish discipline (StampFinish, Observe,
// then the terminal transition), with an optional per-task delay keyed
// by label. Returns the number of tasks executed.
func driveSerial(g *graph.Graph, p *Profiler, ready *[]*graph.Task, slot int, delay map[string]time.Duration) int {
	n := 0
	for len(*ready) > 0 {
		tk := (*ready)[0]
		*ready = (*ready)[1:]
		g.Start(tk)
		if d := delay[tk.Label]; d > 0 {
			time.Sleep(d)
		}
		g.StampFinish(tk)
		p.Observe(slot, tk)
		*ready = append(*ready, g.CompleteInto(tk, nil)...)
		n++
	}
	return n
}

// TestDiamondWindowMatchesExact drives an A -> {B, C} -> D diamond
// serially under the precise clock and checks the online release-time
// fold against the offline exact longest-path computation, plus the
// report's structural invariants.
func TestDiamondWindowMatchesExact(t *testing.T) {
	clock := graph.NewClock(time.Now(), true)
	p := New(2, nil, clock, Options{Retain: true})
	defer p.Close()
	var ready []*graph.Task
	g := graph.NewWithConfig(graph.Config{
		Opts:    graph.OptAll,
		OnReady: func(tk *graph.Task) { ready = append(ready, tk) },
		Clock:   clock,
	})
	const k1, k2, k3 = graph.Key(1), graph.Key(2), graph.Key(3)
	g.Submit("A", []graph.Dep{{Key: k1, Type: graph.InOut}}, nil, nil)
	g.Submit("B", []graph.Dep{{Key: k1, Type: graph.In}, {Key: k2, Type: graph.InOut}}, nil, nil)
	g.Submit("C", []graph.Dep{{Key: k1, Type: graph.In}, {Key: k3, Type: graph.InOut}}, nil, nil)
	g.Submit("D", []graph.Dep{{Key: k2, Type: graph.In}, {Key: k3, Type: graph.In}}, nil, nil)
	delays := map[string]time.Duration{
		"A": time.Millisecond, "B": 3 * time.Millisecond,
		"C": time.Millisecond, "D": time.Millisecond,
	}
	if n := driveSerial(g, p, &ready, 0, delays); n != 4 {
		t.Fatalf("executed %d tasks, want 4", n)
	}
	rep := p.EndWindow(1)
	if rep == nil || rep.Tasks != 4 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.CPLen != 3 {
		t.Fatalf("diamond cp-len = %d, want 3", rep.CPLen)
	}
	if len(rep.Path) != 3 || rep.Path[0].Label != "A" || rep.Path[2].Label != "D" {
		t.Fatalf("path endpoints: %+v", rep.Path)
	}
	if rep.DiscShare < 0 || rep.DiscShare > 1 {
		t.Fatalf("disc share %v out of range", rep.DiscShare)
	}
	if rep.TInfNs < (1+3+1)*int64(time.Millisecond) {
		t.Fatalf("Tinf %d ns below the serial floor", rep.TInfNs)
	}
	if rep.TInfNs != rep.CPDiscNs+rep.CPWaitNs+rep.CPExecNs {
		t.Fatalf("Tinf %d != phase split %d+%d+%d",
			rep.TInfNs, rep.CPDiscNs, rep.CPWaitNs, rep.CPExecNs)
	}
	retained := p.TakeRetained()
	if len(retained) != 4 {
		t.Fatalf("retained %d tasks, want 4", len(retained))
	}
	exact, err := ExactCP(retained)
	if err != nil {
		t.Fatalf("ExactCP: %v", err)
	}
	if exact.TInfNs != rep.TInfNs || exact.CPLen != rep.CPLen {
		t.Fatalf("online (Tinf %d, len %d) != exact (Tinf %d, len %d)",
			rep.TInfNs, rep.CPLen, exact.TInfNs, exact.CPLen)
	}
	if exact.CPDiscNs != rep.CPDiscNs || exact.CPWaitNs != rep.CPWaitNs || exact.CPExecNs != rep.CPExecNs {
		t.Fatalf("phase split disagrees: online %d/%d/%d exact %d/%d/%d",
			rep.CPDiscNs, rep.CPWaitNs, rep.CPExecNs,
			exact.CPDiscNs, exact.CPWaitNs, exact.CPExecNs)
	}

	var sb strings.Builder
	rep.WriteText(&sb)
	for _, want := range []string{"window 1:", "Tinf", "zero-cost discovery", "critical path"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("WriteText missing %q:\n%s", want, sb.String())
		}
	}

	// A drained window with nothing new observed publishes no report.
	if rep2 := p.EndWindow(1); rep2 != nil {
		t.Fatalf("empty window published a report: %+v", rep2)
	}
	if p.Last() != rep {
		t.Fatalf("Last() lost the previous window's report")
	}
}

// TestChainPathTruncation drives a strict N-task chain with a small
// PathMax: the report must keep the full path length while rendering
// only the entries nearest the sink, and out-of-range slots must route
// through the external slot without losing tasks.
func TestChainPathTruncation(t *testing.T) {
	const n, pathMax = 10, 4
	clock := graph.NewClock(time.Now(), true)
	p := New(2, nil, clock, Options{PathMax: pathMax})
	defer p.Close()
	var ready []*graph.Task
	g := graph.NewWithConfig(graph.Config{
		OnReady: func(tk *graph.Task) { ready = append(ready, tk) },
		Clock:   clock,
	})
	const k = graph.Key(7)
	labels := make([]string, n)
	for i := 0; i < n; i++ {
		labels[i] = string(rune('a' + i))
		g.Submit(labels[i], []graph.Dep{{Key: k, Type: graph.InOut}}, nil, nil)
	}
	delays := map[string]time.Duration{}
	for _, l := range labels {
		delays[l] = 200 * time.Microsecond
	}
	if got := driveSerial(g, p, &ready, 99 /* out of range: external slot */, delays); got != n {
		t.Fatalf("executed %d tasks, want %d", got, n)
	}
	rep := p.EndWindow(1)
	if rep == nil || rep.Tasks != n {
		t.Fatalf("report: %+v", rep)
	}
	if rep.CPLen != n {
		t.Fatalf("chain cp-len = %d, want %d", rep.CPLen, n)
	}
	if len(rep.Path) != pathMax {
		t.Fatalf("rendered %d path entries, want %d", len(rep.Path), pathMax)
	}
	if rep.Path[pathMax-1].Label != labels[n-1] {
		t.Fatalf("truncated path must end at the sink, got %+v", rep.Path)
	}
	if rep.Path[0].Label != labels[n-pathMax] {
		t.Fatalf("truncated path must keep the entries nearest the sink, got %+v", rep.Path)
	}
}

// TestExactCPEmpty documents the trivial-input behavior.
func TestExactCPEmpty(t *testing.T) {
	res, err := ExactCP(nil)
	if err != nil || res.TInfNs != 0 || res.CPLen != 0 {
		t.Fatalf("ExactCP(nil) = %+v, %v", res, err)
	}
}
