package experiments

import "testing"

// TestServeSmoke runs the graph-as-a-service load test at a small
// size and asserts the deterministic properties Validate holds on every
// run: all graphs complete with correct results and no rejections, the
// poison tenant's failures stay on the poison tenant, and the undersized
// admission probe turns load into 429s. Throughput figures are printed,
// not asserted (the floor is ValidateFull's, for default-size runs).
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("serve benchmark in -short mode")
	}
	p := SmokeServeParams()
	p.Clients, p.GraphsPerClient = 24, 1
	p.PoisonGraphs = 4
	res, err := RunServe(p)
	if err != nil {
		t.Fatalf("RunServe: %v", err)
	}
	if err := res.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	roundTrip(t, res, new(ServeResult))
	leaked := *res
	leaked.GoodFailures = 1
	if leaked.Validate() == nil {
		t.Error("a failure on a good tenant validated")
	}
	t.Logf("%.1f graphs/s, p99 %.1f ms, probe 429s %d", res.GraphsPerSec, res.P99Ms, res.Probe429)
}
