package taskdep_test

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"taskdep"
)

// newRuntime is NewRuntime for a test: a configuration it rejects fails
// the test.
func newRuntime(tb testing.TB, cfg taskdep.Config) *taskdep.Runtime {
	tb.Helper()
	r, err := taskdep.NewRuntime(cfg)
	if err != nil {
		tb.Fatalf("NewRuntime: %v", err)
	}
	return r
}

// TestPublicAPIQuickstart exercises the documented quick-start flow.
func TestPublicAPIQuickstart(t *testing.T) {
	rt := newRuntime(t, taskdep.Config{Workers: 4, Opts: taskdep.OptAll})
	defer rt.Close()
	var order []string
	rt.Submit(taskdep.Spec{Label: "produce", Out: []taskdep.Key{1},
		Body: func(any) { order = append(order, "produce") }})
	rt.Submit(taskdep.Spec{Label: "consume", In: []taskdep.Key{1},
		Body: func(any) { order = append(order, "consume") }})
	rt.Taskwait()
	if len(order) != 2 || order[0] != "produce" || order[1] != "consume" {
		t.Fatalf("order = %v", order)
	}
}

func TestPublicAPIPersistent(t *testing.T) {
	rt := newRuntime(t, taskdep.Config{Workers: 2, Opts: taskdep.OptAll})
	defer rt.Close()
	var runs atomic.Int32
	err := rt.Persistent(3, func(iter int) {
		rt.Submit(taskdep.Spec{InOut: []taskdep.Key{7}, Body: func(any) { runs.Add(1) }})
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Taskwait()
	if runs.Load() != 3 {
		t.Fatalf("runs = %d", runs.Load())
	}
}

func TestPublicAPIProfileAndGantt(t *testing.T) {
	p := taskdep.NewProfile(3, true)
	rt := newRuntime(t, taskdep.Config{Workers: 2, Profile: p})
	rt.Submit(taskdep.Spec{Label: "t", Body: func(any) {}})
	rt.Close()
	b := p.Breakdown()
	if b.Tasks != 1 {
		t.Fatalf("tasks = %d", b.Tasks)
	}
	g := &taskdep.Gantt{Tasks: p.Tasks()}
	var sb strings.Builder
	if err := g.WriteASCII(&sb, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "worker") {
		t.Fatalf("gantt output: %q", sb.String())
	}
}

func TestPublicAPIWorld(t *testing.T) {
	w := taskdep.NewWorld(4)
	var sum atomic.Int64
	w.Run(func(c *taskdep.Comm) {
		var in, out [1]float64
		in[0] = float64(c.Rank())
		c.Allreduce(taskdep.Sum, in[:], out[:])
		sum.Add(int64(out[0]))
	})
	if sum.Load() != 4*6 {
		t.Fatalf("sum = %d", sum.Load())
	}
}

func TestPublicAPIDetached(t *testing.T) {
	rt := newRuntime(t, taskdep.Config{Workers: 2})
	defer rt.Close()
	w := taskdep.NewWorld(2)
	var got atomic.Int64
	buf := make([]float64, 1)
	rt.Submit(taskdep.Spec{
		Label: "irecv", Out: []taskdep.Key{1}, Detached: true,
		DetachedBody: func(_ any, ev *taskdep.Event) {
			w.Comm(1).Irecv(buf, 0, 9).OnComplete(ev.Fulfill)
		},
	})
	rt.Submit(taskdep.Spec{Label: "use", In: []taskdep.Key{1},
		Body: func(any) { got.Store(int64(buf[0])) }})
	w.Comm(0).Send([]float64{42}, 1, 9)
	rt.Taskwait()
	if got.Load() != 42 {
		t.Fatalf("got = %d", got.Load())
	}
}

func TestPublicAPIWriteDOT(t *testing.T) {
	rt := newRuntime(t, taskdep.Config{Workers: 2, Opts: taskdep.OptAll})
	defer rt.Close()
	err := rt.Persistent(2, func(iter int) {
		rt.Submit(taskdep.Spec{Label: "a", Out: []taskdep.Key{1}, Body: func(any) {}})
		rt.Submit(taskdep.Spec{Label: "b", In: []taskdep.Key{1}, Body: func(any) {}})
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := taskdep.WriteDOT(&sb, rt.Graph().Recorded(), "api"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "digraph") || !strings.Contains(sb.String(), "->") {
		t.Fatalf("dot output: %s", sb.String())
	}
}

// TestPublicAPIVerify exercises the documented verification flow:
// Config.Verify, Runtime.Verify, and the report's DOT export of race
// witnesses, all through the public aliases.
func TestPublicAPIVerify(t *testing.T) {
	rt := newRuntime(t, taskdep.Config{Workers: 2, Opts: taskdep.OptAll, Verify: taskdep.VerifyObserve})
	defer rt.Close()
	rt.Submit(taskdep.Spec{Label: "w", Out: []taskdep.Key{1}, Body: func(any) {}})
	rt.Submit(taskdep.Spec{Label: "r", In: []taskdep.Key{1}, Body: func(any) {}})
	rt.Taskwait()
	rep := rt.Verify()
	if rep == nil || !rep.OK() {
		t.Fatalf("clean graph flagged: %s", rep)
	}
	var sb strings.Builder
	if err := rep.WriteDOT(&sb, "verified"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "digraph") {
		t.Fatalf("dot export: %s", sb.String())
	}
}

// TestPublicAPIVerifyCatchesDivergence pins the exported error value.
func TestPublicAPIVerifyCatchesDivergence(t *testing.T) {
	rt := newRuntime(t, taskdep.Config{Workers: 2, Opts: taskdep.OptAll, Verify: taskdep.VerifyObserve})
	defer rt.Close()
	err := rt.Persistent(2, func(iter int) {
		rt.Submit(taskdep.Spec{Label: "t", InOut: []taskdep.Key{taskdep.Key(1 + iter)}, Body: func(any) {}})
	})
	if !errors.Is(err, taskdep.ErrReplayDivergence) {
		t.Fatalf("want ErrReplayDivergence, got %v", err)
	}
}
