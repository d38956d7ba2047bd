package experiments

import (
	"bytes"
	"strings"
	"testing"

	"taskdep/internal/graph"
	"taskdep/internal/rt"
	"taskdep/internal/verify"
)

func tinyExecutorParams() ExecutorParams {
	return ExecutorParams{GateShape: GateShape{Roots: 4, Lanes: 2, Depth: 5}, Workers: []int{1, 2}, Grains: []int{0, 32}, Repeats: 1}
}

func TestRunExecutorShape(t *testing.T) {
	p := tinyExecutorParams()
	res, err := RunExecutor(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	// 2 worker counts x 2 grains.
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(res.Rows))
	}
	var out bytes.Buffer
	res.Print(&out)
	if !strings.Contains(out.String(), "tasks/s") || !strings.Contains(out.String(), "METG@50%") {
		t.Fatalf("print output missing the table or the METG line:\n%s", out.String())
	}
}

func TestExecutorJSONRoundTrip(t *testing.T) {
	res, err := RunExecutor(tinyExecutorParams())
	if err != nil {
		t.Fatal(err)
	}
	back := new(ExecutorResult)
	roundTrip(t, res, back)
	if len(back.Rows) != len(res.Rows) || back.METGNs != res.METGNs || back.Params.Tasks() != res.Params.Tasks() {
		t.Fatalf("round trip changed the result")
	}
}

func TestExecutorValidateCatchesBadRows(t *testing.T) {
	res, err := RunExecutor(tinyExecutorParams())
	if err != nil {
		t.Fatal(err)
	}
	res.Rows[0].Workers = 0
	if err := res.Validate(); err == nil {
		t.Fatalf("a row with no workers validated")
	}
}

// TestExecutorGateGraphVerifies drains the benchmarks' gate graph under
// the TDG verifier: the batched-release drain must preserve every
// declared happens-before edge.
func TestExecutorGateGraphVerifies(t *testing.T) {
	t.Run("lock-free", func(t *testing.T) {
		r, err := rt.NewRuntime(rt.Config{Workers: 2, Opts: graph.OptAll, Verify: verify.Observe})
		if err != nil {
			t.Fatal(err)
		}
		drainGateGraph(r, tinyExecutorParams().GateShape, func(any) {})
		r.Close()
		if rep := r.Verify(); !rep.OK() {
			t.Fatalf("verifier flagged the gate graph: %v", rep)
		}
	})
}
