package experiments

import (
	"strings"
	"testing"
)

// TestRunObsSmoke runs the observability benchmark at a tiny size and
// holds its deterministic arms: every mode ran the whole graph, /metrics
// served every pre-registered series, spans flowed, and the disabled
// hook stayed under a tenth of this run's own off-mode task.
func TestRunObsSmoke(t *testing.T) {
	res, err := RunObs(ObsParams{GateShape: GateShape{Roots: 4, Lanes: 2, Depth: 10}, Repeats: 1, SpanSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, res, new(ObsResult))
}

// TestObsBudgets: the disabled-hook budget is a ratio inside one run —
// the same hook cost passes beside a slow off-mode task and fails beside
// a fast one — and holds at any size; the enabled-overhead budget is
// owed by full-size runs only.
func TestObsBudgets(t *testing.T) {
	result := func(offNs, hookNs, spansPct float64) *ObsResult {
		p := SmokeObsParams()
		r := &ObsResult{Meta: Meta{Schema: ObsSchemaVersion}, Params: p, DisabledHookNs: hookNs, MetricsComplete: true, SpanEvents: 1}
		for _, mode := range obsModes {
			r.Rows = append(r.Rows, DrainRow{Mode: mode, WallSeconds: 1e-3, NsPerTask: offNs, Tasks: int64(p.Tasks())})
		}
		r.Overheads = []Overhead{{Mode: "metrics", Pct: 1}, {Mode: "spans", Pct: spansPct}}
		return r
	}
	for _, tc := range []struct {
		name       string
		res        *ObsResult
		want, full string // substring of Validate's and ValidateFull's error, "" for a pass
	}{
		{"inside both budgets", result(100, 2, 5), "", ""},
		{"slow box, same ratio", result(400, 8, 5), "", ""},
		{"hook a fifth of a task", result(100, 20, 5), "disabled hook", ""},
		{"spans overhead over budget", result(100, 2, 12), "", "spans overhead"},
		{"lost a mode", &ObsResult{Meta: Meta{Schema: ObsSchemaVersion}}, "rows", ""},
	} {
		for _, got := range []struct {
			method string
			err    error
			want   string
		}{{"Validate", tc.res.Validate(), tc.want}, {"ValidateFull", tc.res.ValidateFull(), tc.full}} {
			switch {
			case got.want == "" && got.err != nil:
				t.Errorf("%s: %s: %v", tc.name, got.method, got.err)
			case got.want != "" && (got.err == nil || !strings.Contains(got.err.Error(), got.want)):
				t.Errorf("%s: %s returned %v, want an error naming %q", tc.name, got.method, got.err, got.want)
			}
		}
	}
}
