package experiments

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"taskdep/internal/graph"
	"taskdep/internal/obs"
	"taskdep/internal/rt"
)

// Observability-overhead benchmark for the always-on metrics and span
// tracing layer. It reuses the executor gate graph at the pure-overhead
// point (grain 0, one worker — the configuration where every added
// nanosecond of instrumentation is maximally visible) and measures the
// same drain under three modes:
//
//	off     — Obs.Disable: every hook is a nil/flag branch
//	metrics — default tier: sharded counters on (spans off)
//	spans   — timing tier: counters + sampled span recording + histograms
//
// It additionally microbenchmarks the disabled hook sequence in
// isolation (DisabledHookNs, the "always-on costs ~nothing" claim, read
// as a share of the off-mode drain of the same run) and confirms over a
// real HTTP listener that /metrics serves every pre-registered series.

// ObsSchemaVersion identifies the BENCH_obs.json layout.
const ObsSchemaVersion = 2

// ObsParams sizes the drain workload and the span sampling rate.
type ObsParams struct {
	GateShape
	Repeats int `json:"repeats"` // measurement repetitions; best run wins
	// SpanSample is the 1-in-N task-body span sampling modulus used in
	// spans mode (the bounded-memory production setting; 0/1 = every
	// task).
	SpanSample int `json:"span_sample"`
}

// DefaultObsParams is the committed-baseline configuration.
func DefaultObsParams() ObsParams {
	return ObsParams{GateShape: GateShape{Roots: 64, Lanes: 4, Depth: 200}, Repeats: 9, SpanSample: 32}
}

// SmokeObsParams is the CI configuration: small, same shape.
func SmokeObsParams() ObsParams {
	return ObsParams{GateShape: GateShape{Roots: 16, Lanes: 2, Depth: 30}, Repeats: 3, SpanSample: 32}
}

// ObsResult is the benchmark output committed as BENCH_obs.json.
type ObsResult struct {
	Meta
	Params ObsParams  `json:"params"`
	Rows   []DrainRow `json:"rows"`

	// DisabledHookNs is the microbenched cost of the per-task hook
	// sequence (sampling check + two counter increments) against a
	// disabled registry — the price every task pays when observability
	// is turned off. Validate reads it against the off row of the same
	// run (DisabledHookShare), never against another machine's clock.
	DisabledHookNs float64 `json:"disabled_hook_ns"`

	// Overheads holds the enabled-tier costs, derived from Rows. A
	// full-size run owes metrics+spans <= 10% at this grain-0 point.
	Overheads []Overhead `json:"overheads"`

	// MetricsComplete records whether a live /metrics scrape over HTTP
	// contained every pre-registered counter and histogram series.
	MetricsComplete bool `json:"metrics_complete"`
	// SpanEvents is the number of span events drained after the spans-
	// mode run (must be > 0: tracing works).
	SpanEvents int64 `json:"span_events"`
}

// obsModes are the swept modes, off first.
var obsModes = []string{"off", "metrics", "spans"}

// obsOptions returns a mode's registry options.
func obsOptions(mode string, p ObsParams) obs.Options {
	switch mode {
	case "off":
		return obs.Options{Disable: true}
	case "spans":
		return obs.Options{Spans: true, SpanSample: p.SpanSample}
	}
	return obs.Options{}
}

// runObsOnce times the 1-worker drain of the gate graph under the given
// registry options, returning the wall time and the number of span
// events left in the rings.
func runObsOnce(p ObsParams, o obs.Options) (float64, int64, error) {
	r, err := rt.NewRuntime(rt.Config{Workers: 1, Opts: graph.OptAll, Obs: o})
	if err != nil {
		return 0, 0, err
	}
	defer r.Close()
	wall := drainGateGraph(r, p.GateShape, func(any) {})
	return wall, int64(r.Obs().SpanCount()), nil
}

// hookSink defeats dead-code elimination in the hook microbenchmark.
var hookSink int64

// measureDisabledHookNs times the per-task hook sequence — one sampling
// check plus two owner-slot counter increments, what the runtime
// executes per task — against a disabled registry, minus an equivalent
// control loop, best of several runs.
func measureDisabledHookNs() float64 {
	r := obs.New(2, time.Now(), obs.Options{Disable: true})
	const n = 1 << 22
	best := 0.0
	for rep := 0; rep < 5; rep++ {
		var sink int64
		start := time.Now()
		for i := 0; i < n; i++ {
			if r.Sampled(0) {
				sink++
			}
			r.IncSlot(0, obs.CTasksSubmitted)
			r.IncSlot(0, obs.CTasksExecuted)
			sink += int64(i)
		}
		hooked := time.Since(start).Nanoseconds()
		hookSink += sink

		sink = 0
		start = time.Now()
		for i := 0; i < n; i++ {
			sink += int64(i)
		}
		control := time.Since(start).Nanoseconds()
		hookSink += sink

		ns := float64(hooked-control) / n
		if ns < 0 {
			ns = 0
		}
		if rep == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// checkMetricsEndpoint runs a tiny workload on a runtime serving its
// registry over a real listener and scrapes /metrics, returning whether
// every pre-registered counter and histogram appeared.
func checkMetricsEndpoint() (bool, error) {
	r, err := rt.NewRuntime(rt.Config{
		Workers: 1,
		Opts:    graph.OptAll,
		Obs:     obs.Options{Spans: true, Addr: "127.0.0.1:0"},
	})
	if err != nil {
		return false, err
	}
	defer r.Close()
	for i := 0; i < 8; i++ {
		r.Submit(rt.Spec{Label: "t", InOut: []graph.Key{graph.Key(7)}, Body: func(any) {}})
	}
	r.Taskwait()

	resp, err := http.Get("http://" + r.ObsAddr() + "/metrics")
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, err
	}
	page := string(data)
	for c := obs.Counter(0); c < obs.NumCounters; c++ {
		if !strings.Contains(page, c.Name()) {
			return false, fmt.Errorf("/metrics is missing %s", c.Name())
		}
	}
	for h := obs.Histo(0); h < obs.NumHistos; h++ {
		if !strings.Contains(page, h.Name()+"_count") {
			return false, fmt.Errorf("/metrics is missing %s", h.Name())
		}
	}
	return true, nil
}

// RunObs measures the drain under all three modes and the disabled
// hook microbench.
func RunObs(p ObsParams) (*ObsResult, error) {
	res := &ObsResult{Meta: Meta{Schema: ObsSchemaVersion}, Params: p}
	walls := make([][]float64, len(obsModes))
	for r := 0; r < max(p.Repeats, 1); r++ {
		for m, mode := range obsModes {
			w, spans, err := runObsOnce(p, obsOptions(mode, p))
			if err != nil {
				return nil, err
			}
			walls[m] = append(walls[m], w)
			if mode == "spans" {
				res.SpanEvents = spans
			}
		}
	}
	res.Rows, res.Overheads = drainRows(obsModes, walls, p.Tasks())
	res.DisabledHookNs = measureDisabledHookNs()
	ok, err := checkMetricsEndpoint()
	if err != nil {
		return res, fmt.Errorf("metrics endpoint: %w", err)
	}
	res.MetricsComplete = ok
	return res, nil
}

// DisabledHookShare is the disabled hook sequence as a fraction of what
// the same run measured for one grain-0 task with observability off:
// both terms come from one process on one machine within a second of
// each other, so a slow or busy box scales them together.
func (r *ObsResult) DisabledHookShare() float64 {
	return r.DisabledHookNs / r.Rows[0].NsPerTask // obsModes starts with "off"
}

// Validate checks the schema, that every mode ran the whole graph, that
// /metrics was complete and spans flowed, and the disabled-hook budget —
// a ratio of two clocks of this run, so it holds at any size.
func (r *ObsResult) Validate() error {
	if err := r.checkSchema(ObsSchemaVersion); err != nil {
		return err
	}
	if err := checkDrainRows(r.Rows, obsModes, r.Params.Tasks()); err != nil {
		return err
	}
	if len(r.Overheads) != len(obsModes)-1 {
		return fmt.Errorf("%d overhead entries, want %d", len(r.Overheads), len(obsModes)-1)
	}
	if !r.MetricsComplete {
		return fmt.Errorf("/metrics scrape was missing pre-registered series")
	}
	if r.SpanEvents <= 0 {
		return fmt.Errorf("spans mode recorded no span events")
	}
	if r.DisabledHookNs < 0 {
		return fmt.Errorf("negative DisabledHookNs %g", r.DisabledHookNs)
	}
	if pct := r.DisabledHookShare() * 100; pct > instrumentBudgetPct {
		return fmt.Errorf("disabled hook costs %.2f ns/task, %.1f%% of an off-mode task (%.1f ns), budget is %.0f%%",
			r.DisabledHookNs, pct, r.Rows[0].NsPerTask, instrumentBudgetPct)
	}
	return nil
}

// ValidateFull holds the enabled tiers to their overhead budget. Not
// asked of a smoke run: the ratio of two sub-millisecond drains is noise.
func (r *ObsResult) ValidateFull() error { return checkOverheads(r.Overheads) }

// Print renders the result as the EXPERIMENTS.md table.
func (r *ObsResult) Print(w io.Writer) {
	fmt.Fprintf(w, "== observability overhead (grain-0 drain, 1 worker, %d tasks, span sample 1/%d) ==\n",
		r.Params.Tasks(), r.Params.SpanSample)
	fmt.Fprintf(w, "%-8s %12s %9s\n", "mode", "wall-ms", "ns/task")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8s %12.3f %9.1f\n", row.Mode, row.WallSeconds*1e3, row.NsPerTask)
	}
	for _, o := range r.Overheads {
		fmt.Fprintf(w, "overhead %s: %+.1f%% (%+.1f ns/task)\n", o.Mode, o.Pct, o.AddNs)
	}
	fmt.Fprintf(w, "disabled hook: %.2f ns/task, %.1f%% of an off-mode task\n", r.DisabledHookNs, r.DisabledHookShare()*100)
	fmt.Fprintf(w, "metrics endpoint complete: %v, span events: %d\n", r.MetricsComplete, r.SpanEvents)
}
