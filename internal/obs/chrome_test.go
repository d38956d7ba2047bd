package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"taskdep/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

func goldenEvents() []SpanEvent {
	return []SpanEvent{
		{Name: SpanDiscoveryBatch, Kind: 'X', Slot: 2, TaskID: 256, Iter: 0, StartNs: 1000, EndNs: 41000},
		{Name: SpanTaskBody, Kind: 'X', Slot: 0, TaskID: 1, KeyHash: 0xabcdef, Iter: 0, StartNs: 45000, EndNs: 52000},
		{Name: SpanTaskBody, Kind: 'X', Slot: 1, TaskID: 2, KeyHash: 0x123456, Iter: 0, StartNs: 46000, EndNs: 50000},
		{Name: InstSkip, Kind: 'i', Slot: 1, TaskID: 3, Iter: 0, StartNs: 51000, EndNs: 51000},
		{Name: SpanTaskwait, Kind: 'X', Slot: 2, TaskID: 0, Iter: 1, StartNs: 44000, EndNs: 60000},
	}
}

func goldenTasks() []trace.TaskRecord {
	return []trace.TaskRecord{
		{TaskID: 1, Label: "potrf", Worker: 0, Iter: 0, Start: 0.5, End: 0.75},
		{TaskID: 2, Label: "", Worker: 1, Iter: 2, Start: 0.625, End: 0.6875, Critical: true},
	}
}

// TestChromeGolden locks the Chrome trace-event export format: the
// output must match the committed golden file byte-for-byte and pass
// the loadability checks.
func TestChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, goldenTasks(), goldenEvents()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run `go test ./internal/obs -update-golden` to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome export diverged from golden file\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
	validateChromeTrace(t, want)
}

type chromeDoc struct {
	TraceEvents []struct {
		Name  string         `json:"name"`
		Cat   string         `json:"cat"`
		Ph    string         `json:"ph"`
		Ts    float64        `json:"ts"`
		Dur   *float64       `json:"dur"`
		Pid   int            `json:"pid"`
		Tid   int            `json:"tid"`
		S     string         `json:"s"`
		Cname string         `json:"cname"`
		Args  map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// validateChromeTrace checks that data is a valid Chrome trace-event
// JSON document of complete events with a non-negative duration and
// thread-scoped instants — the loadability contract Perfetto relies on.
func validateChromeTrace(t *testing.T, data []byte) chromeDoc {
	t.Helper()
	var doc chromeDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
	for i, ev := range doc.TraceEvents {
		if ev.Pid != 1 || ev.Ts < 0 {
			t.Fatalf("event %d: pid %d, ts %g", i, ev.Pid, ev.Ts)
		}
		switch ev.Ph {
		case "X":
			if ev.Dur == nil || *ev.Dur < 0 {
				t.Fatalf("event %d: complete event %q without a non-negative dur", i, ev.Name)
			}
		case "i":
			if ev.S != "t" {
				t.Fatalf("event %d: instant %q has scope %q, want t", i, ev.Name, ev.S)
			}
		default:
			t.Fatalf("event %d: unexpected phase %q", i, ev.Ph)
		}
	}
	return doc
}

// TestChromeTaskRecords checks the task-record half of the export: a
// record's label names its event, its worker is the tid, its ID and
// iteration are args, and a critical record carries the critical
// category and the red cname; an unlabeled record is named "task".
func TestChromeTaskRecords(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, goldenTasks(), nil); err != nil {
		t.Fatal(err)
	}
	doc := validateChromeTrace(t, buf.Bytes())
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events for 2 records", len(doc.TraceEvents))
	}
	plain, crit := doc.TraceEvents[0], doc.TraceEvents[1]
	if plain.Name != "potrf" || plain.Cat != "task" || plain.Ph != "X" || plain.Tid != 0 || plain.Cname != "" {
		t.Errorf("plain record exported as %+v", plain)
	}
	if plain.Ts != 500000 || *plain.Dur != 250000 {
		t.Errorf("plain record at ts %g dur %g µs, want 500000 and 250000", plain.Ts, *plain.Dur)
	}
	if plain.Args["task_id"] != 1.0 || plain.Args["iter"] != 0.0 || plain.Args["critical_path"] != nil {
		t.Errorf("plain record args %v", plain.Args)
	}
	if crit.Name != "task" || crit.Tid != 1 || crit.Cat != "task,critical" || crit.Cname != "terrible" {
		t.Errorf("critical record exported as %+v", crit)
	}
	if crit.Args["task_id"] != 2.0 || crit.Args["iter"] != 2.0 || crit.Args["critical_path"] != true {
		t.Errorf("critical record args %v", crit.Args)
	}
}

// TestChromeFromRegistry round-trips live registry events through the
// exporter and the validator: what the runtime records is loadable.
func TestChromeFromRegistry(t *testing.T) {
	r := New(2, time.Now(), Options{Spans: true})
	for i := 0; i < 5; i++ {
		sp := r.BeginSpan(i%2, SpanTaskBody, int64(i), uint64(i), 0)
		sp.End()
	}
	r.Instant(0, InstSkip, 9, 0, 0)
	sp := r.BeginSpan(2, SpanTaskwait, 0, 0, 0)
	sp.End()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, nil, r.DrainSpans()); err != nil {
		t.Fatal(err)
	}
	validateChromeTrace(t, buf.Bytes())
}
