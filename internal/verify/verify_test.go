package verify

import (
	"strings"
	"testing"

	"taskdep/internal/graph"
)

// mk builds a bare task node for seeded-structure tests; correct
// discovery can never produce the broken shapes these construct.
func mk(id int64, label string) *graph.Task {
	return &graph.Task{ID: id, Label: label}
}

// TestSeededRace: two writers on the same key with no happens-before
// path must be reported with both task labels and the offending key.
func TestSeededRace(t *testing.T) {
	w1 := mk(0, "writer-one")
	w2 := mk(1, "writer-two")
	infos := []TaskInfo{
		{Task: w1, Deps: []graph.Dep{{Key: 42, Type: graph.Out}}},
		{Task: w2, Deps: []graph.Dep{{Key: 42, Type: graph.Out}}},
	}
	rep := Audit(infos, graph.OptAll, nil)
	if rep.OK() {
		t.Fatalf("expected a race finding, got OK: %s", rep)
	}
	if len(rep.Races) != 1 {
		t.Fatalf("want 1 race, got %d: %s", len(rep.Races), rep)
	}
	r := rep.Races[0]
	if r.Key != 42 {
		t.Errorf("race key = %d, want 42", r.Key)
	}
	s := r.String()
	if !strings.Contains(s, "writer-one") || !strings.Contains(s, "writer-two") {
		t.Errorf("race witness must name both tasks: %q", s)
	}
	if !strings.Contains(s, "42") {
		t.Errorf("race witness must name the key: %q", s)
	}
}

// TestOrderedWritersClean: the same two writers connected by an edge
// are not a race.
func TestOrderedWritersClean(t *testing.T) {
	w1 := mk(0, "w1")
	w2 := mk(1, "w2")
	graph.ForceEdge(w1, w2)
	infos := []TaskInfo{
		{Task: w1, Deps: []graph.Dep{{Key: 42, Type: graph.Out}}},
		{Task: w2, Deps: []graph.Dep{{Key: 42, Type: graph.Out}}},
	}
	if rep := Audit(infos, graph.OptAll, nil); !rep.OK() {
		t.Fatalf("ordered writers flagged: %s", rep)
	}
}

// TestTransitiveOrdering: ordering through an intermediate task (not a
// direct edge) satisfies the happens-before check.
func TestTransitiveOrdering(t *testing.T) {
	a, b, c := mk(0, "a"), mk(1, "b"), mk(2, "c")
	graph.ForceEdge(a, b)
	graph.ForceEdge(b, c)
	infos := []TaskInfo{
		{Task: a, Deps: []graph.Dep{{Key: 1, Type: graph.Out}}},
		{Task: c, Deps: []graph.Dep{{Key: 1, Type: graph.Out}}},
	}
	if rep := Audit(infos, graph.OptAll, nil); !rep.OK() {
		t.Fatalf("transitively ordered writers flagged: %s", rep)
	}
}

// TestSeededCycle: a dependency loop is reported by the audit — before
// any executor hangs on it.
func TestSeededCycle(t *testing.T) {
	a, b, c := mk(0, "a"), mk(1, "b"), mk(2, "c")
	graph.ForceEdge(a, b)
	graph.ForceEdge(b, c)
	graph.ForceEdge(c, a)
	rep := Audit([]TaskInfo{{Task: a}, {Task: b}, {Task: c}}, graph.OptAll, nil)
	if len(rep.Cycles) == 0 {
		t.Fatalf("cycle not detected: %s", rep)
	}
	if !rep.RacesSkipped {
		t.Errorf("race pass should be skipped on a cyclic graph")
	}
	path := rep.Cycles[0].String()
	for _, name := range []string{"a", "b", "c"} {
		if !strings.Contains(path, `"`+name+`"`) {
			t.Errorf("cycle path %q missing task %q", path, name)
		}
	}
}

// TestInOutSetRedirectReachability: m inoutset writers and n readers
// where every ordering flows only through the optimization-(c) redirect
// node. The audit must follow paths through the redirect (clean), and
// the discovery must have created m+n edges, not m*n.
func TestInOutSetRedirectReachability(t *testing.T) {
	const key graph.Key = 7
	const m, n = 3, 2
	g := graph.NewWithConfig(graph.Config{Opts: graph.OptInOutSetNode | graph.OptDedup | graph.OptKeepPrunedEdges, OnReady: func(*graph.Task) {}})
	var infos []TaskInfo
	for i := 0; i < m; i++ {
		deps := []graph.Dep{{Key: key, Type: graph.InOutSet}}
		infos = append(infos, TaskInfo{Task: g.Submit("set-writer", deps, nil, nil), Deps: deps})
	}
	for i := 0; i < n; i++ {
		deps := []graph.Dep{{Key: key, Type: graph.In}}
		infos = append(infos, TaskInfo{Task: g.Submit("reader", deps, nil, nil), Deps: deps})
	}
	g.Flush()
	if got := g.Stats().EdgesCreated; got != m+n {
		t.Fatalf("optimization (c) should give m+n=%d edges, got %d", m+n, got)
	}
	rep := Audit(infos, g.Opts(), g.RedirectNodes())
	if !rep.OK() {
		t.Fatalf("m x n ordering through redirect node flagged: %s", rep)
	}
	// Redirect node must be part of the audited set (reached via edges).
	if rep.Tasks != m+n+1 {
		t.Errorf("audited %d nodes, want %d (m+n+redirect)", rep.Tasks, m+n+1)
	}
}

// TestSeveredRedirect: the same m x n shape with the redirect's outgoing
// side severed is m*n missing orderings.
func TestSeveredRedirect(t *testing.T) {
	const m, n = 3, 2
	red := &graph.Task{ID: 100, Label: "redirect", Redirect: true}
	var infos []TaskInfo
	for i := 0; i < m; i++ {
		w := mk(int64(i), "set-writer")
		graph.ForceEdge(w, red)
		infos = append(infos, TaskInfo{Task: w, Deps: []graph.Dep{{Key: 7, Type: graph.InOutSet}}})
	}
	for i := 0; i < n; i++ {
		r := mk(int64(10+i), "reader")
		// No edge redirect -> reader: ordering severed.
		infos = append(infos, TaskInfo{Task: r, Deps: []graph.Dep{{Key: 7, Type: graph.In}}})
	}
	rep := Audit(infos, graph.OptAll, nil)
	if len(rep.Races) != m*n {
		t.Fatalf("want %d races (every writer x reader pair), got %d: %s", m*n, len(rep.Races), rep)
	}
}

// TestInOutSetGroupsAcrossWriter: two inoutset groups on the same key
// separated by a plain writer are distinct groups — members of
// different groups DO conflict.
func TestInOutSetGroupsAcrossWriter(t *testing.T) {
	a := mk(0, "groupA")
	b := mk(1, "groupB")
	infos := []TaskInfo{
		{Task: a, Deps: []graph.Dep{{Key: 5, Type: graph.InOutSet}}},
		{Task: mk(2, "w"), Deps: []graph.Dep{{Key: 5, Type: graph.Out}}},
		{Task: b, Deps: []graph.Dep{{Key: 5, Type: graph.InOutSet}}},
	}
	rep := Audit(infos, graph.OptAll, nil)
	// No edges at all: (a,w), (w,b), (a,b) all unordered conflicts.
	if len(rep.Races) != 3 {
		t.Fatalf("want 3 races across split inoutset groups, got %d: %s", len(rep.Races), rep)
	}
}

// TestPrunedEdgeNeedsKeepFlag documents why the runtime discovers with
// OptKeepPrunedEdges under verify mode: without it, an ordering that
// was enforced temporally (predecessor completed before the successor
// was submitted) is pruned and looks like a race.
func TestPrunedEdgeNeedsKeepFlag(t *testing.T) {
	run := func(opts graph.Opt) *Report {
		var ready []*graph.Task
		g := graph.NewWithConfig(graph.Config{Opts: opts, OnReady: func(t *graph.Task) { ready = append(ready, t) }})
		deps := []graph.Dep{{Key: 3, Type: graph.Out}}
		a := g.Submit("a", deps, nil, nil)
		// Drain: a completes before b is discovered.
		for len(ready) > 0 {
			t := ready[len(ready)-1]
			ready = ready[:len(ready)-1]
			g.Start(t)
			ready = append(ready, g.Complete(t)...)
		}
		b := g.Submit("b", deps, nil, nil)
		return Audit([]TaskInfo{{Task: a, Deps: deps}, {Task: b, Deps: deps}}, opts, nil)
	}
	if rep := run(graph.OptDedup); len(rep.Races) != 1 {
		t.Fatalf("without OptKeepPrunedEdges the pruned edge should look like a race (got %d findings: %s)", rep.NumFindings(), rep)
	}
	if rep := run(graph.OptDedup | graph.OptKeepPrunedEdges); !rep.OK() {
		t.Fatalf("with OptKeepPrunedEdges the temporal ordering must be visible: %s", rep)
	}
}

// TestDanglingRedirect: a redirect node with no member edge feeding it.
func TestDanglingRedirect(t *testing.T) {
	red := &graph.Task{ID: 9, Label: "redirect", Redirect: true}
	rep := Audit(nil, graph.OptAll, []*graph.Task{red})
	if len(rep.DanglingRedirects) != 1 {
		t.Fatalf("dangling redirect not flagged: %s", rep)
	}
}

// TestDuplicateEdges: a repeated (pred, succ) pair is a violation under
// OptDedup and informational otherwise.
func TestDuplicateEdges(t *testing.T) {
	a, b := mk(0, "a"), mk(1, "b")
	graph.ForceEdge(a, b)
	graph.ForceEdge(a, b)
	infos := []TaskInfo{{Task: a}, {Task: b}}
	rep := Audit(infos, graph.OptDedup, nil)
	if len(rep.DuplicateEdges) != 1 || rep.DuplicateEdges[0].Count != 2 {
		t.Fatalf("duplicate under OptDedup not flagged: %s", rep)
	}
	rep = Audit(infos, 0, nil)
	if len(rep.DuplicateEdges) != 0 {
		t.Fatalf("duplicates without OptDedup are not violations: %s", rep)
	}
	if rep.DuplicateEdgeCount != 1 {
		t.Fatalf("DuplicateEdgeCount = %d, want 1", rep.DuplicateEdgeCount)
	}
}

// TestDedupInvariantOnRealGraph: discovery with OptDedup must never
// leave a duplicate for the audit to find, even when a task declares
// the same key several times.
func TestDedupInvariantOnRealGraph(t *testing.T) {
	g := graph.NewWithConfig(graph.Config{Opts: graph.OptDedup | graph.OptKeepPrunedEdges, OnReady: func(*graph.Task) {}})
	var infos []TaskInfo
	d1 := []graph.Dep{{Key: 1, Type: graph.Out}}
	infos = append(infos, TaskInfo{Task: g.Submit("w", d1, nil, nil), Deps: d1})
	d2 := []graph.Dep{{Key: 1, Type: graph.In}, {Key: 1, Type: graph.In}}
	infos = append(infos, TaskInfo{Task: g.Submit("rr", d2, nil, nil), Deps: d2})
	rep := Audit(infos, g.Opts(), nil)
	if len(rep.DuplicateEdges) != 0 {
		t.Fatalf("OptDedup let a duplicate through: %s", rep)
	}
	if !rep.OK() {
		t.Fatalf("clean discovery flagged: %s", rep)
	}
}

// TestSignature: identical recordings hash identically; a structural
// mutation changes the hash.
func TestSignature(t *testing.T) {
	build := func() *graph.Graph {
		g := graph.NewWithConfig(graph.Config{Opts: graph.OptAll, OnReady: func(*graph.Task) {}})
		g.BeginRecording()
		d := []graph.Dep{{Key: 1, Type: graph.InOut}}
		g.Submit("s0", d, nil, nil)
		g.Submit("s1", d, nil, nil)
		g.Flush()
		g.EndRecording()
		return g
	}
	g1, g2 := build(), build()
	s1, s2 := Signature(g1.Recorded()), Signature(g2.Recorded())
	if s1 != s2 {
		t.Fatalf("identical recordings hash differently: %#x vs %#x", s1, s2)
	}
	rec := g2.Recorded()
	graph.ForceEdge(rec[0], rec[1]) // duplicate edge: structure mutated
	if mutated := Signature(rec); mutated == s1 {
		t.Fatalf("mutated recording kept signature %#x", s1)
	}
}

// TestRecorderReplayDivergence: unit-level Recorder flow — a replay
// whose dependence declarations differ from the recording is flagged;
// an identical replay is clean.
func TestRecorderReplayDivergence(t *testing.T) {
	g := graph.NewWithConfig(graph.Config{Opts: graph.OptAll | graph.OptKeepPrunedEdges, OnReady: func(*graph.Task) {}})
	r := NewRecorder(graph.OptAll)
	g.BeginRecording()
	r.BeginRecording()
	deps := []graph.Dep{{Key: 1, Type: graph.InOut}}
	tk := g.Submit("step", deps, nil, nil)
	r.Record(tk, deps)
	g.Flush()
	g.EndRecording()
	sig := r.EndRecording(g.Recorded())

	// Clean replay.
	r.BeginReplay(1, true)
	r.ReplayNext("step", deps)
	if divs := r.EndReplay(g.Recorded(), sig); len(divs) != 0 {
		t.Fatalf("identical replay flagged: %v", divs)
	}
	// Diverging replay: same count, different key.
	r.BeginReplay(2, true)
	r.ReplayNext("step", []graph.Dep{{Key: 99, Type: graph.InOut}})
	divs := r.EndReplay(g.Recorded(), sig)
	if len(divs) != 1 {
		t.Fatalf("diverging replay not flagged: %v", divs)
	}
	if divs[0].Iter != 2 || !strings.Contains(divs[0].Detail, "99") {
		t.Errorf("divergence should carry the iteration and the declared deps: %+v", divs[0])
	}
}

// TestReportWriteDOT: race witnesses render as highlighted dashed edges.
func TestReportWriteDOT(t *testing.T) {
	w1 := mk(0, "writer-one")
	w2 := mk(1, "writer-two")
	infos := []TaskInfo{
		{Task: w1, Deps: []graph.Dep{{Key: 42, Type: graph.Out}}},
		{Task: w2, Deps: []graph.Dep{{Key: 42, Type: graph.Out}}},
	}
	rep := Audit(infos, graph.OptAll, nil)
	var b strings.Builder
	if err := rep.WriteDOT(&b, "witness"); err != nil {
		t.Fatal(err)
	}
	dot := b.String()
	for _, want := range []string{"color=red", "style=dashed", "race key 42", "writer-one", "writer-two"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT export missing %q:\n%s", want, dot)
		}
	}
}

// TestAuditEmpty: an empty graph is trivially OK.
func TestAuditEmpty(t *testing.T) {
	if rep := Audit(nil, graph.OptAll, nil); !rep.OK() {
		t.Fatalf("empty audit not OK: %s", rep)
	}
}
