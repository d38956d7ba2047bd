package experiments

import (
	"strings"
	"testing"
)

// TestDiscoveryRoundTrip runs a tiny workload and checks the result
// validates — every task discovered, the edge counters balanced — and
// survives the harness's JSON form, and that a stale schema or an
// unbalanced row does not.
func TestDiscoveryRoundTrip(t *testing.T) {
	p := DiscoveryParams{Tasks: 2000, Keys: 32, BatchLen: 64, SetEvery: 8, Repeats: 1}
	res := RunDiscovery(p)
	if err := res.Validate(); err != nil {
		t.Fatalf("fresh result invalid: %v", err)
	}
	if res.Row.EdgesDuplicate == 0 || res.Row.RedirectNodes == 0 {
		t.Fatalf("the workload must exercise optimizations (b) and (c): %+v", res.Row)
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
	back.Row.EdgesPruned++
	if back.Validate() == nil {
		t.Fatal("unbalanced edge counters accepted")
	}
}
