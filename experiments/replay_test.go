package experiments

import (
	"bytes"
	"os"
	"testing"
)

// TestReplaySmoke runs the persistent-replay benchmark at CI size and
// checks the result validates — schema, rows, task counts, every row
// allocation-free — and round-trips through JSON. No timing is asserted,
// not even its sign: a row's cost is the difference of two
// sub-millisecond wall clocks, which a loaded test machine makes
// negative (ValidateFull is for full-size runs).
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
	roundTrip(t, res, new(ReplayResult))
	var buf bytes.Buffer
	res.Print(&buf)
	t.Logf("\n%s", buf.String())
}

// TestReplayValidateLeavesTimingsAlone: a differenced wall clock that came
// out zero (RunReplay clamps a negative one) is a valid result that
// misses the full-size budget; an allocating row is not valid at all.
func TestReplayValidateLeavesTimingsAlone(t *testing.T) {
	data, err := os.ReadFile("../BENCH_replay.json")
	if err != nil {
		t.Fatal(err)
	}
	res := new(ReplayResult)
	if err := ReadJSON(data, res); err != nil {
		t.Fatal(err)
	}
	last := &res.Rows[len(res.Rows)-1]
	last.ReplayNsPerTask = 0
	if err := res.Validate(); err != nil {
		t.Fatalf("Validate looked at a timing: %v", err)
	}
	if res.ValidateFull() == nil {
		t.Fatalf("a zero replay timing passed ValidateFull")
	}
	last.AllocsPerTask = 0.5
	if res.Validate() == nil {
		t.Fatalf("a row allocating every other task validated")
	}
}
