package rt

import (
	"testing"

	"taskdep/internal/graph"
)

// TestReuseDetachedGateDrains: repeated gate-graph drains on ONE
// runtime, with the gate fulfilled externally right after submission.
// Fulfill may complete the gate while its queue publication is still in
// flight; the worker that later pops the stale task must NOT re-run it
// (that would store Running over the terminal state, and the next
// drain's gate would register a never-released edge against the ghost).
// The packed live/ready gauge must come back to exactly zero after
// every drain — an unbalanced ready decrement borrows into the live
// half and wedges Taskwait forever.
func TestReuseDetachedGateDrains(t *testing.T) {
	rt := newRuntime(t, Config{Workers: 4, Opts: graph.OptAll})
	defer rt.Close()
	const gateKey graph.Key = 1 << 20
	const chainKey graph.Key = 2 << 20
	nop := func(any) {}
	for drain := 0; drain < 4; drain++ {
		gate := rt.Submit(Spec{
			Label:        "gate",
			Out:          []graph.Key{gateKey},
			Detached:     true,
			DetachedBody: func(any, *Event) {},
		})
		for c := 0; c < 16; c++ {
			specs := make([]Spec, 0, 400)
			for i := 0; i < 400; i++ {
				s := Spec{Label: "link", InOut: []graph.Key{chainKey + graph.Key(c)}, Body: nop}
				if i == 0 {
					s.In = []graph.Key{gateKey}
				}
				specs = append(specs, s)
			}
			rt.SubmitBatch(specs)
		}
		gate.Fulfill()
		if err := rt.Taskwait(); err != nil {
			t.Fatalf("drain %d: %v", drain, err)
		}
		if live, ready := rt.Graph().Live(), rt.Graph().ReadyCount(); live != 0 || ready != 0 {
			t.Fatalf("drain %d left unbalanced gauges: live=%d ready=%d", drain, live, ready)
		}
	}
}
