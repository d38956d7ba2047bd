package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestCommittedBaselines holds every committed BENCH_*.json to what a
// full-size run of its experiment owes: it parses through the harness's
// one reader, validates, and meets the full-size budgets. A missing file
// is a failure, not a skip: a skip is how a wrong path goes unnoticed.
func TestCommittedBaselines(t *testing.T) {
	for _, tc := range []struct {
		name string
		res  Result
	}{
		{"discovery", new(DiscoveryResult)},
		{"executor", new(ExecutorResult)},
		{"faults", new(FaultResult)},
		{"obs", new(ObsResult)},
		{"replay", new(ReplayResult)},
		{"cpath", new(CPathResult)},
		{"serve", new(ServeResult)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data, err := os.ReadFile("../BENCH_" + tc.name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			if err := ReadJSON(data, tc.res); err != nil {
				t.Fatalf("unparsable: %v", err)
			}
			if err := tc.res.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if full, ok := tc.res.(FullResult); ok {
				if err := full.ValidateFull(); err != nil {
					t.Fatalf("ValidateFull: %v", err)
				}
			}
			var out bytes.Buffer
			tc.res.Print(&out)
			if out.Len() == 0 {
				t.Fatal("Print wrote nothing")
			}
		})
	}
}

// TestExperimentsTable: twelve modes, each named once, and every one
// with a committed baseline among them.
func TestExperimentsTable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.Name] || e.Run == nil {
			t.Fatalf("experiment %q: named twice, or no run function", e.Name)
		}
		seen[e.Name] = true
	}
	if len(seen) != 12 {
		t.Fatalf("%d experiments, want 12", len(seen))
	}
	files, err := os.ReadDir("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if name, ok := strings.CutPrefix(f.Name(), "BENCH_"); ok {
			if name = strings.TrimSuffix(name, ".json"); !seen[name] {
				t.Errorf("%s has no experiment named %q", f.Name(), name)
			}
		}
	}
}

// roundTrip writes res through the harness's writer, reads it back into
// blank and returns what was written.
func roundTrip(t *testing.T, res, blank Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	text := buf.String()
	if !strings.Contains(text, `"env"`) || !strings.Contains(text, `"gomaxprocs"`) {
		t.Fatalf("written result carries no environment:\n%s", text)
	}
	if err := ReadJSON(buf.Bytes(), blank); err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if err := blank.Validate(); err != nil {
		t.Fatalf("round-tripped result invalid: %v", err)
	}
	return text
}

// TestCPathSmoke runs the critical-path benchmark at CI size: the online
// fold must equal the exact longest path on all three graphs (and 2N-1
// tasks on the wavefront), the frozen-replay window must be one
// iteration with no discovery on its path, and /criticalpath must serve
// — all of it Validate. The overhead is printed, not held to anything.
func TestCPathSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cpath benchmark in -short mode")
	}
	p := SmokeCPathParams()
	p.Repeats = 1
	res, err := RunCPath(p)
	if err != nil {
		t.Fatalf("RunCPath: %v", err)
	}
	if err := res.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	roundTrip(t, res, new(CPathResult))
	res.Agreements[2].OnlineCPLen++
	if res.Validate() == nil {
		t.Fatal("a wavefront path of 2N tasks validated")
	}
}
