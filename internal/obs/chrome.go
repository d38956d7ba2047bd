package obs

import (
	"encoding/json"
	"io"

	"taskdep/internal/trace"
)

// chromeEvent is one entry in the Chrome trace-event JSON format
// (the "JSON Array Format" with a traceEvents wrapper), which Perfetto
// and chrome://tracing both load. Timestamps and durations are
// microseconds.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	S    string  `json:"s,omitempty"` // instant scope
	// Cname is the catapult reserved color name; "terrible" renders
	// red, making the critical-path chain pop out of the timeline.
	Cname string         `json:"cname,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	Meta            map[string]string `json:"otherData"`
}

func spanCat(n SpanName) string {
	switch n {
	case SpanDiscoveryBatch, SpanReplayCopy:
		return "discovery"
	case SpanTaskwait, SpanClose:
		return "sync"
	case InstSkip, InstAbort:
		return "fault"
	}
	return "exec"
}

// WriteChrome writes profile task records and span events as one
// Chrome trace-event document on pid 1, tid = worker slot. A record
// (Profile.Tasks, the Gantt input) becomes a complete "X" event named
// by its label, with task_id and iter args; a critical-path record
// (see trace.MarkCritical) is colored red and tagged "critical" so
// Perfetto can both show and filter the span-defining chain. A span
// becomes an "X" event too, an instant a thread-scoped "i" event. A
// runtime stamps both from its one time origin, so a task's body span
// nests inside its record on the same lane.
func WriteChrome(w io.Writer, tasks []trace.TaskRecord, spans []SpanEvent) error {
	out := chromeTrace{
		TraceEvents:     make([]chromeEvent, 0, len(tasks)+len(spans)),
		DisplayTimeUnit: "ns",
		Meta:            map[string]string{"source": "taskdep"},
	}
	for _, t := range tasks {
		ev := chromeEvent{
			Name: t.Label, Cat: "task", Ph: "X",
			Ts: t.Start * 1e6, Dur: (t.End - t.Start) * 1e6,
			Pid: 1, Tid: t.Worker,
			Args: map[string]any{"task_id": t.TaskID, "iter": t.Iter},
		}
		if ev.Name == "" {
			ev.Name = "task"
		}
		if t.Critical {
			ev.Cat = "task,critical"
			ev.Cname = "terrible"
			ev.Args["critical_path"] = true
		}
		out.TraceEvents = append(out.TraceEvents, ev)
	}
	for _, sp := range spans {
		ev := chromeEvent{
			Name: sp.Name.String(), Cat: spanCat(sp.Name), Ph: "X",
			Ts: float64(sp.StartNs) / 1e3, Dur: float64(sp.EndNs-sp.StartNs) / 1e3,
			Pid: 1, Tid: sp.Slot,
			Args: map[string]any{},
		}
		if sp.Kind == 'i' {
			ev.Ph, ev.S = "i", "t"
		}
		if sp.TaskID != 0 {
			ev.Args["task_id"] = sp.TaskID
		}
		if sp.KeyHash != 0 {
			ev.Args["keys"] = sp.KeyHash
		}
		if sp.Iter != 0 {
			ev.Args["iter"] = sp.Iter
		}
		out.TraceEvents = append(out.TraceEvents, ev)
	}
	return json.NewEncoder(w).Encode(out)
}
