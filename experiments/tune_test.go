package experiments

import (
	"bytes"
	"testing"
)

// TestTuneSmoke runs the self-tuning benchmark at a tiny size and
// checks the result validates — every cell ran its graph, the chain
// drain allocation-free — and round-trips through JSON. Recovery
// ratios are printed, not asserted: tiny runs on a loaded test machine
// are too short for the control loop to converge reliably (that is
// ValidateFull, held by default-size runs and BENCH_tune.json).
func TestTuneSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("tune benchmark in -short mode")
	}
	p := SmokeTuneParams()
	p.Chains, p.ChainLen = 16, 400
	p.WideTasks, p.WideGrain = 2000, 500
	p.Rounds, p.Burst = 30, 16
	p.SerialGrain, p.BurstGrain = 4000, 400
	p.Repeats = 1
	res, err := RunTune(p)
	if err != nil {
		t.Fatalf("RunTune: %v", err)
	}
	if err := res.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	roundTrip(t, res, new(TuneResult))
	var buf bytes.Buffer
	res.Print(&buf)
	t.Logf("\n%s", buf.String())
}
