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
	return ExecutorParams{Roots: 4, Lanes: 2, Depth: 5, Workers: []int{1, 2}, Grains: []int{0, 32}, Repeats: 1}
}

func TestRunExecutorShape(t *testing.T) {
	p := tinyExecutorParams()
	res := RunExecutor(p)
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	// 2 worker counts x 2 grains.
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(res.Rows))
	}
	var out bytes.Buffer
	PrintExecutor(&out, &res)
	if !strings.Contains(out.String(), "tasks/s") || !strings.Contains(out.String(), "METG@50%") {
		t.Fatalf("print output missing the table or the METG line:\n%s", out.String())
	}
}

func TestExecutorJSONRoundTrip(t *testing.T) {
	res := RunExecutor(tinyExecutorParams())
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadExecutorJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != len(res.Rows) || back.METGNs != res.METGNs {
		t.Fatalf("round trip changed the result")
	}
}

func TestCheckExecutor(t *testing.T) {
	res := RunExecutor(tinyExecutorParams())
	if err := CheckExecutor(&res, &res, 2.0); err != nil {
		t.Fatalf("self-check failed: %v", err)
	}
	inflated := res
	inflated.Rows = append([]ExecutorRow(nil), res.Rows...)
	for i := range inflated.Rows {
		r := inflated.Rows[i]
		r.TasksPerSec *= 100
		inflated.Rows[i] = r
	}
	if err := CheckExecutor(&res, &inflated, 2.0); err == nil {
		t.Fatalf("100x regression passed the check")
	}
	bad := res
	bad.Schema = ExecutorSchemaVersion + 1
	if err := CheckExecutor(&bad, &res, 2.0); err == nil {
		t.Fatalf("schema mismatch passed the check")
	}
}

func TestExecutorValidateCatchesBadRows(t *testing.T) {
	res := RunExecutor(tinyExecutorParams())
	res.Rows[0].Workers = 0
	if err := res.Validate(); err == nil {
		t.Fatalf("a row with no workers validated")
	}
}

// TestExecutorGateGraphVerifies re-runs the benchmark's gate graph under
// the TDG verifier: the batched-release drain must
// preserve every declared happens-before edge (satellite check for the
// executor rewiring).
func TestExecutorGateGraphVerifies(t *testing.T) {
	t.Run("lock-free", func(t *testing.T) {
		r := rt.New(rt.Config{Workers: 2, Opts: graph.OptAll, Verify: verify.Observe})
		gate := r.Submit(rt.Spec{
			Label:        "gate",
			Out:          []graph.Key{execGateKey},
			Detached:     true,
			DetachedBody: func(any, *rt.Event) {},
		})
		p := tinyExecutorParams()
		specs := make([]rt.Spec, 0, 1+p.Lanes*p.Depth)
		for g := 0; g < p.Roots; g++ {
			specs = specs[:0]
			specs = append(specs, rt.Spec{
				Label: "root",
				In:    []graph.Key{execGateKey},
				Out:   []graph.Key{execRootKey + graph.Key(g)},
				Body:  func(any) {},
			})
			for f := 0; f < p.Lanes; f++ {
				lane := execLaneKey + graph.Key(g*p.Lanes+f)
				for i := 0; i < p.Depth; i++ {
					s := rt.Spec{Label: "lane", InOut: []graph.Key{lane}, Body: func(any) {}}
					if i == 0 {
						s.In = []graph.Key{execRootKey + graph.Key(g)}
					}
					specs = append(specs, s)
				}
			}
			r.SubmitBatch(specs)
		}
		gate.Fulfill()
		r.Taskwait()
		r.Close()
		rep := r.Verify()
		if !rep.OK() {
			t.Fatalf("verifier flagged the gate graph: %v", rep)
		}
	})
}
