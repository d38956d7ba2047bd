package experiments

import "testing"

// TestRunFaultsSmoke runs the CI-sized fault-injection experiment —
// LULESH/HPCG/Cholesky plus the synthetic poison cone —
// and validates every failure-domain invariant. Run under -race this
// doubles as the subsystem's concurrency check.
func TestRunFaultsSmoke(t *testing.T) {
	res, err := RunFaults(SmokeFaultParams())
	if err != nil {
		t.Fatalf("RunFaults: %v", err)
	}
	if err := res.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if res.RecoverNsPerCall < res.BaselineNsPerCall {
		t.Errorf("recover fence measured cheaper than a bare call: %.2f < %.2f ns",
			res.RecoverNsPerCall, res.BaselineNsPerCall)
	}
}
