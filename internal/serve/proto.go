// Package serve is the graph-as-a-service front end: a multi-tenant
// HTTP/JSON facade over the taskdep runtime. Clients POST task graphs
// written against the typed key/value dataflow model (internal/values)
// — each task names an operator from a fixed registry, the value slots
// it consumes and the slots it provides — and stream back per-task
// state transitions and final slot values as NDJSON while the graph
// executes.
//
// Tenancy model: every tenant owns a private Runtime (its own workers,
// graph, metrics registry and failure domain) drawn from a bounded
// pool, so a tenant whose tasks fail or spin never perturbs another
// tenant's results — poison cones stop at the runtime boundary.
// Within a tenant, requests serialize on the runtime's single-producer
// contract; across tenants they run concurrently. Admission control is
// two-level: a per-tenant queue quota and a global in-flight cap, both
// rejecting with 429 rather than queueing unboundedly. That is the
// whole of backpressure: each tenant runtime's throttle windows are
// fixed when the tenant is created (Options.ThrottleReady/Total).
package serve

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// Wire limits, enforced before any task is submitted. They bound the
// work a single request can pin regardless of tenant quotas.
const (
	// MaxTasks bounds the tasks in one submitted graph.
	MaxTasks = 4096
	// MaxRepeat bounds persistent re-execution of one graph.
	MaxRepeat = 1024
	// MaxNameLen bounds value-slot and label names.
	MaxNameLen = 128
	// MaxArgBytes bounds one task's JSON argument.
	MaxArgBytes = 1 << 16
	// MaxBodyBytes bounds the whole request body.
	MaxBodyBytes = 1 << 22
)

// TaskWire is one task in a submitted graph: an operator applied to
// consumed slots, its result stored into provided slots. The slot
// lists lower exactly onto the runtime's dependence types
// (consume→in, provide→out, update→inout) via internal/values.
type TaskWire struct {
	// Label names the task in stream events and error reports;
	// defaults to "task-<index>".
	Label string `json:"label,omitempty"`
	// Op selects the operator from the registry (see Ops).
	Op string `json:"op"`
	// Arg is the operator's JSON argument (e.g. the literal for
	// "const", the iteration count for "spin"). null is the same as no
	// argument — the operator's default: 0 for "sum", 1 for "mul", 1 000
	// iterations for "spin" — except for "const", whose literal it is.
	Arg json.RawMessage `json:"arg,omitempty"`
	// Consume lists slots read by the task (in dependences).
	Consume []string `json:"consume,omitempty"`
	// Provide lists slots written by the task (out dependences).
	Provide []string `json:"provide,omitempty"`
	// Update lists slots read and rewritten in place (inout
	// dependences). Their prior values are appended to the operator's
	// inputs after Consume.
	Update []string `json:"update,omitempty"`
}

// GraphRequest is the POST /v1/graphs payload.
type GraphRequest struct {
	// Tasks in submission order. Sequential semantics apply, exactly
	// as for OpenMP depend clauses: a consumed slot must have been
	// provided (or updated) by an earlier task in the list.
	Tasks []TaskWire `json:"tasks"`
	// Repeat > 1 re-executes the graph that many times through the
	// runtime's persistent frozen-replay path (the paper's
	// optimization (p)): the graph is discovered once and replayed as
	// a compiled schedule. Default 1.
	Repeat int `json:"repeat,omitempty"`
	// Results names the slots to report when the graph drains; empty
	// means every provided slot.
	Results []string `json:"results,omitempty"`
}

// Event is one stream event, in the shape of an NDJSON record. Seq is
// a per-request monotone record number so clients can detect truncated
// streams.
type Event struct {
	// Type is "accepted", "task", "result", "error" or "done".
	Type string `json:"type"`
	Seq  int    `json:"seq"`
	// Tasks and State describe task transitions: a task is "done" at its
	// first completed execution. Tenant.Run gives its caller one event
	// per task. The HTTP stream builds no event per task: it takes the
	// finished tasks' labels, and writes those that pile up during one
	// write as one record listing them in completion order, ahead of the
	// write's other events. An "error" event names its failed task here
	// too, when it has one.
	Tasks []string `json:"tasks,omitempty"`
	State string   `json:"state,omitempty"`
	// Key and Value report one result slot.
	Key   string `json:"key,omitempty"`
	Value any    `json:"value,omitempty"`
	// Err carries the failure for "error" events.
	Err string `json:"error,omitempty"`
	// Iters reports the executed iteration count on "done".
	Iters int `json:"iters,omitempty"`
	// Elapsed reports wall seconds on "done".
	Elapsed float64 `json:"elapsed,omitempty"`
}

// Validate checks the request against the wire limits and sequential
// dataflow semantics without touching any runtime. It returns a
// descriptive error naming the first offending task.
func (g *GraphRequest) Validate() error {
	return g.validate(make(map[string]bool))
}

// validate is Validate with the set of provided slots kept in provided,
// which must be empty: the handler passes its scratch's, so a request
// does not pay for a map of its own.
func (g *GraphRequest) validate(provided map[string]bool) error {
	if len(g.Tasks) == 0 {
		return fmt.Errorf("serve: empty graph")
	}
	if len(g.Tasks) > MaxTasks {
		return fmt.Errorf("serve: %d tasks exceeds limit %d", len(g.Tasks), MaxTasks)
	}
	if g.Repeat < 0 || g.Repeat > MaxRepeat {
		return fmt.Errorf("serve: repeat %d out of range [0,%d]", g.Repeat, MaxRepeat)
	}
	for i := range g.Tasks {
		t := &g.Tasks[i]
		if len(t.Arg) > MaxArgBytes {
			return fmt.Errorf("serve: task %s: arg exceeds %d bytes", t.Name(i), MaxArgBytes)
		}
		if _, ok := Ops[t.Op]; !ok {
			return fmt.Errorf("serve: task %s: unknown op %q", t.Name(i), t.Op)
		}
		for _, set := range [][]string{t.Consume, t.Provide, t.Update} {
			for _, n := range set {
				if n == "" || len(n) > MaxNameLen {
					return fmt.Errorf("serve: task %s: bad slot name %q", t.Name(i), n)
				}
			}
		}
		if len(t.Label) > MaxNameLen {
			return fmt.Errorf("serve: task %d: label too long", i)
		}
		// Sequential semantics: reads must follow a write in
		// submission order. The taskdeplint unprovided-consume rule
		// catches the same mistake statically in Go clients.
		for _, n := range t.Consume {
			if !provided[n] {
				return fmt.Errorf("serve: task %s: consumes %q which no earlier task provides", t.Name(i), n)
			}
		}
		for _, n := range t.Update {
			if !provided[n] {
				return fmt.Errorf("serve: task %s: updates %q which no earlier task provides", t.Name(i), n)
			}
		}
		for _, n := range t.Provide {
			provided[n] = true
		}
	}
	for _, n := range g.Results {
		if !provided[n] {
			return fmt.Errorf("serve: result slot %q is never provided", n)
		}
	}
	return nil
}

// Name returns the task's label, defaulting to its index.
func (t *TaskWire) Name(i int) string {
	if t.Label != "" {
		return t.Label
	}
	return "task-" + strconv.Itoa(i)
}
