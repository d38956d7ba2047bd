package experiments

import (
	"strings"
	"testing"
)

// TestDiscoveryRoundTrip runs a tiny workload and checks the result
// validates — one row per producer count, every task discovered, the
// edge counters balanced — and survives the harness's JSON form, and
// that a stale schema or an unbalanced row does not.
func TestDiscoveryRoundTrip(t *testing.T) {
	p := DiscoveryParams{Tasks: 2000, Keys: 32, Producers: 2, BatchLen: 64, SetEvery: 8, Repeats: 1}
	res := RunDiscovery(p)
	if err := res.Validate(); err != nil {
		t.Fatalf("fresh result invalid: %v", err)
	}
	if len(res.Rows) != 2 || res.Rows[0].Producers != 1 || res.Rows[1].Producers != 2 {
		t.Fatalf("want a 1-producer and a 2-producer row, got %+v", res.Rows)
	}
	if res.Rows[0].EdgesDuplicate == 0 || res.Rows[0].RedirectNodes == 0 {
		t.Fatalf("the workload must exercise optimizations (b) and (c): %+v", res.Rows[0])
	}
	back := new(DiscoveryResult)
	if text := roundTrip(t, res, back); strings.Contains(text, "baseline") {
		t.Fatalf("the baseline arm is gone from the engine and must be gone from the file:\n%s", text)
	}

	back.Schema = DiscoverySchemaVersion + 1
	if back.Validate() == nil {
		t.Fatal("stale schema accepted")
	}
	back.Schema = DiscoverySchemaVersion
	back.Rows[1].EdgesPruned++
	if back.Validate() == nil {
		t.Fatal("unbalanced edge counters accepted")
	}
}
