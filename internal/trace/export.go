package trace

import (
	"encoding/json"
	"io"
)

// Export is the JSON-serializable snapshot of a profile, for external
// plotting or archival (the counterpart of MPC-OMP's trace flush to
// disk, §2.3.1).
type Export struct {
	Breakdown Breakdown    `json:"breakdown"`
	Comm      CommSummary  `json:"comm"`
	Tasks     []TaskRecord `json:"tasks,omitempty"`
	Comms     []CommRecord `json:"requests,omitempty"`
}

// Snapshot builds an Export. withRecords includes the per-task and
// per-request records (can be large).
func (p *Profile) Snapshot(withRecords bool) Export {
	e := Export{
		Breakdown: p.Breakdown(),
		Comm:      p.CommSummary(),
	}
	if withRecords {
		e.Tasks = p.Tasks()
		e.Comms = p.Comms()
	}
	return e
}

// WriteJSON writes the profile snapshot as indented JSON.
func (p *Profile) WriteJSON(w io.Writer, withRecords bool) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p.Snapshot(withRecords))
}

// ReadExport parses a previously written snapshot.
func ReadExport(r io.Reader) (Export, error) {
	var e Export
	err := json.NewDecoder(r).Decode(&e)
	return e, err
}

// chromeTaskEvent is one complete ("X") Chrome trace event; the
// task-record export writes these directly (not through obs.SpanEvent) so
// labels survive and critical-path tasks can
// carry Perfetto's color hint.
type chromeTaskEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	// Cname is the catapult reserved color name; "terrible" renders
	// red, making the critical-path chain pop out of the timeline.
	Cname string         `json:"cname,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTaskTrace struct {
	TraceEvents     []chromeTaskEvent `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	Meta            map[string]string `json:"otherData,omitempty"`
}

// WriteChromeTasks converts profile task boxes (Profile.Tasks, the
// Gantt input) to Chrome trace-event JSON: each box becomes one
// complete event on its worker's tid, keeping the task label, and
// critical-path records (see MarkCritical) are colored red and tagged
// with a "critical" arg/category so Perfetto can both show and filter
// the span-defining chain. The same records drive the ASCII/SVG charts
// and this Perfetto timeline.
func WriteChromeTasks(w io.Writer, tasks []TaskRecord) error {
	out := chromeTaskTrace{
		TraceEvents:     make([]chromeTaskEvent, 0, len(tasks)),
		DisplayTimeUnit: "ns",
		Meta:            map[string]string{"source": "taskdep/internal/trace"},
	}
	for _, t := range tasks {
		ev := chromeTaskEvent{
			Name: t.Label,
			Cat:  "task",
			Ph:   "X",
			Ts:   t.Start * 1e6,
			Dur:  (t.End - t.Start) * 1e6,
			Pid:  1,
			Tid:  t.Worker,
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
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
