package experiments

import (
	"bytes"
	"os"
	"testing"
)

// TestReplaySmoke runs the persistent-replay benchmark at CI size and
// checks the result validates — schema, rows, task counts —, round-trips
// through JSON, and keeps every row allocation-free: the whole of the
// gate. No timing is asserted, not even its sign: a row's cost is the
// difference of two sub-millisecond wall clocks, which a loaded test
// machine makes negative (ValidateTimings is for full-size runs).
func TestReplaySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("replay benchmark in -short mode")
	}
	p := SmokeReplayParams()
	p.Repeats = 2
	res, err := RunReplay(p)
	if err != nil {
		t.Fatalf("RunReplay: %v", err)
	}
	if err := res.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for _, row := range res.Rows {
		if row.AllocsPerTask > 0.01 {
			t.Errorf("%s %s replay allocates %.4f/task (%.1f/iter), want 0",
				row.Workload, row.Mode, row.AllocsPerTask, row.AllocsPerIter)
		}
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	back, err := ReadReplayJSON(buf.Bytes())
	if err != nil {
		t.Fatalf("ReadReplayJSON: %v", err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped result invalid: %v", err)
	}
	// The CI gate: this run against the committed full-size baseline.
	data, err := os.ReadFile("../BENCH_replay.json")
	if err != nil {
		t.Fatal(err)
	}
	committed, err := ReadReplayJSON(data)
	if err != nil {
		t.Fatalf("BENCH_replay.json: %v", err)
	}
	if err := CheckReplay(&res, committed, 0.01); err != nil {
		t.Fatalf("CheckReplay against BENCH_replay.json: %v", err)
	}
	PrintReplay(&buf, &res)
	t.Logf("\n%s", buf.String())
}

// TestReplayValidateLeavesTimingsAlone: a differenced wall clock that came
// out zero (RunReplay clamps a negative one) is a valid result with
// invalid timings, and the baseline's timings are part of the gate.
func TestReplayValidateLeavesTimingsAlone(t *testing.T) {
	data, err := os.ReadFile("../BENCH_replay.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReadReplayJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := res.ValidateTimings(); err != nil {
		t.Fatalf("ValidateTimings: %v", err)
	}
	res.Rows[len(res.Rows)-1].ReplayNsPerTask = 0
	if err := res.Validate(); err != nil {
		t.Fatalf("Validate looked at a timing: %v", err)
	}
	if res.ValidateTimings() == nil || CheckReplay(res, res, 0.01) == nil {
		t.Fatalf("a zero replay timing passed ValidateTimings, or CheckReplay as the baseline")
	}
}
