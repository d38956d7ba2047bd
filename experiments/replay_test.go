package experiments

import (
	"bytes"
	"testing"
)

// TestReplaySmoke runs the persistent-replay benchmark at CI size and
// checks the result validates, round-trips through JSON, and keeps every
// row allocation-free — the whole of the gate. Speedup ratios are printed, not asserted: smoke sizes on a
// loaded test machine are too noisy for a timing gate.
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
	if err := CheckReplay(&res, back, 0.01); err != nil {
		t.Fatalf("CheckReplay against itself: %v", err)
	}
	PrintReplay(&buf, &res)
	t.Logf("\n%s", buf.String())
}
