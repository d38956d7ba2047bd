package experiments

import (
	"os"
	"strings"
	"testing"
)

// TestRunObsSmoke runs the observability benchmark at a tiny size and
// holds its deterministic arms: the result validates (every mode ran
// the whole graph, /metrics served every pre-registered series, spans
// flowed) and passes its own gate beside the committed baseline.
func TestRunObsSmoke(t *testing.T) {
	res, err := RunObs(ObsParams{Roots: 4, Lanes: 2, Depth: 10, Repeats: 1, SpanSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("../BENCH_obs.json")
	if err != nil {
		t.Fatal(err)
	}
	committed, err := ReadObsJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	// The fresh hook share is wall clock, so only the committed figures
	// are held to the CI budgets here; fresh gets all the room there is.
	if err := CheckObs(&res, committed, 100, 10); err != nil {
		t.Fatal(err)
	}
	if err := CheckObs(committed, committed, 10, 10); err != nil {
		t.Fatalf("committed baseline misses the CI budgets: %v", err)
	}
}

// TestCheckObsGates: the disabled-hook gate is a ratio inside one run —
// the same hook cost passes beside a slow off-mode task and fails beside
// a fast one — and the enabled-overhead gate reads the committed result.
func TestCheckObsGates(t *testing.T) {
	result := func(offNs, hookNs, spansPct float64) *ObsResult {
		p := SmokeObsParams()
		r := &ObsResult{Schema: ObsSchemaVersion, Params: p, DisabledHookNs: hookNs, MetricsComplete: true, SpanEvents: 1}
		for _, mode := range obsModes {
			r.Rows = append(r.Rows, ObsRow{Mode: mode.name, WallSeconds: 1e-3, NsPerTask: offNs, Tasks: int64(p.Tasks())})
		}
		r.Overheads = []ObsOverhead{{Mode: "metrics", Pct: 1}, {Mode: "spans", Pct: spansPct}}
		return r
	}
	good := result(100, 2, 5)
	for _, tc := range []struct {
		name             string
		fresh, committed *ObsResult
		want             string // substring of the error, "" for a pass
	}{
		{"both inside budget", good, good, ""},
		{"slow box, same ratio", result(400, 8, 5), good, ""},
		{"hook a fifth of a task", result(100, 20, 5), good, "fresh disabled hook"},
		{"committed hook over budget", good, result(100, 20, 5), "committed disabled hook"},
		{"committed spans overhead over budget", good, result(100, 2, 12), "committed spans overhead"},
		{"fresh lost a mode", &ObsResult{Schema: ObsSchemaVersion}, good, "fresh result"},
	} {
		err := CheckObs(tc.fresh, tc.committed, 10, 10)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}
