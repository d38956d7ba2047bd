package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// spans.go is the benchmark-side tracer of the -trace run: one span
// around every call into a layer, kept in memory and written as a
// Chrome trace-event file when the run ends. Spans inside the program
// are a later change; these are recorded from outside.

type span struct {
	name       string
	id         int // the solve or request the span belongs to
	parent     string
	lane       int // client connection or rank, the trace's "thread"
	start, end time.Duration
}

// tracer collects spans; nil means tracing is off and every method is
// a no-op, so the untraced path pays one nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns the function that closes it.
func (tr *tracer) begin(name, parent string, id, lane int) func() {
	if tr == nil {
		return func() {}
	}
	start := time.Since(tr.t0)
	return func() {
		end := time.Since(tr.t0)
		tr.mu.Lock()
		tr.spans = append(tr.spans, span{name, id, parent, lane, start, end})
		tr.mu.Unlock()
	}
}

// add records a span whose bounds were measured by the caller.
func (tr *tracer) add(name, parent string, id, lane int, start, end time.Time) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{name, id, parent, lane, start.Sub(tr.t0), end.Sub(tr.t0)})
	tr.mu.Unlock()
}

// selfTimes returns, per span name, total duration minus the part
// covered by spans that name it as parent within the same id and lane.
func (tr *tracer) selfTimes() map[string]float64 {
	out := map[string]float64{}
	if tr == nil {
		return out
	}
	type key struct {
		id, lane int
		name     string
	}
	children := map[key]time.Duration{}
	for _, s := range tr.spans {
		if s.parent != "" {
			children[key{s.id, s.lane, s.parent}] += s.end - s.start
		}
	}
	for _, s := range tr.spans {
		out[s.name] += (s.end - s.start).Seconds()
	}
	for k, d := range children {
		out[k.name] -= d.Seconds()
	}
	return out
}

// writeChrome writes the spans in Chrome trace-event format ("X"
// complete events, microseconds), loadable in Perfetto.
func (tr *tracer) writeChrome(path, workload string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(tr.spans))
	for _, s := range tr.spans {
		events = append(events, event{
			Name: s.name, Cat: workload, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.lane,
			Args: map[string]any{"id": s.id, "parent": s.parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
