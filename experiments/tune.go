package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"taskdep/internal/graph"
	"taskdep/internal/obs"
	"taskdep/internal/rt"
	"taskdep/internal/tune"
)

// Self-tuning benchmark: two pathological graph shapes, each chosen to
// defeat one fixed scheduler policy, run under three configurations:
//
//	untuned  — the runtime's defaults (the pathology hits full force)
//	hand     — the actuator statically set to the known-good value
//	           (throttle window or wake fanout)
//	adaptive — the closed control loop (Config.Tune) starting from the
//	           untuned state and steering the same actuator live
//
// The pathologies:
//
//	throttle  — a wide independent task sweep against a pathologically
//	            tight ThrottleReady window: the producer stalls and
//	            parks per handful of tasks. Hand remedy: a wide window.
//	waves     — alternating serial sections and wide bursts: workers
//	            park during every serial phase and the wake-one cascade
//	            re-ramps at every burst. Hand remedy: full-pool fanout.
//
// The headline number is per-pathology recovery: adaptive throughput
// over hand-tuned throughput. A full-size run must show the loop
// recovering >= 80% of the hand-tuned value on every pathology
// (ValidateFull), with the untuned column documenting what the
// pathology costs when nothing adapts. What holds at any size is the
// deterministic half: draining parallel chains of near-empty tasks —
// the executor's hand-over on every link — allocates nothing.

// TuneSchemaVersion identifies the BENCH_tune.json layout.
const TuneSchemaVersion = 2

// TuneParams sizes the two pathologies, the chain drain and the
// control loop.
type TuneParams struct {
	Workers int `json:"workers"`

	// Chains parallel dependence chains of ChainLen near-empty tasks
	// each, pre-submitted behind a gate: the allocation probe.
	Chains   int `json:"chains"`
	ChainLen int `json:"chain_len"`

	// throttle: WideTasks independent tasks of WideGrain spin
	// iterations each, submitted live against the throttle window.
	// Tight is the pathological ThrottleReady seed (also adaptive's
	// starting point); Hand is the known-good window.
	WideTasks     int   `json:"wide_tasks"`
	WideGrain     int   `json:"wide_grain"`
	ThrottleTight int64 `json:"throttle_tight"`
	ThrottleHand  int64 `json:"throttle_hand"`

	// waves: Rounds alternations of one serial task (SerialGrain spin
	// iterations) and a Burst-wide dependent fan (BurstGrain each),
	// pre-submitted behind a gate.
	Rounds      int `json:"rounds"`
	Burst       int `json:"burst"`
	SerialGrain int `json:"serial_grain"`
	BurstGrain  int `json:"burst_grain"`

	// TuneIntervalUs is the control-loop tick in microseconds (short
	// enough that the loop converges well inside a measurement run).
	TuneIntervalUs int `json:"tune_interval_us"`
	Repeats        int `json:"repeats"` // best wall per cell wins
}

// DefaultTuneParams is the committed-baseline configuration.
func DefaultTuneParams() TuneParams {
	return TuneParams{
		Workers: 4,
		Chains:  64, ChainLen: 3000,
		WideTasks: 40000, WideGrain: 2000,
		ThrottleTight: 4, ThrottleHand: 4096,
		Rounds: 400, Burst: 64, SerialGrain: 20000, BurstGrain: 1000,
		TuneIntervalUs: 250, Repeats: 5,
	}
}

// SmokeTuneParams is the CI configuration: same shapes, small, with a faster control tick so adaptation still converges
// inside the shorter runs.
func SmokeTuneParams() TuneParams {
	return TuneParams{
		Workers: 4,
		Chains:  32, ChainLen: 1500,
		WideTasks: 10000, WideGrain: 1500,
		ThrottleTight: 4, ThrottleHand: 4096,
		Rounds: 120, Burst: 48, SerialGrain: 15000, BurstGrain: 800,
		TuneIntervalUs: 100, Repeats: 3,
	}
}

// Tasks returns the per-run task count of a pathology.
func (p TuneParams) Tasks(pathology string) int {
	switch pathology {
	case "throttle":
		return p.WideTasks
	case "waves":
		return p.Rounds * (1 + p.Burst)
	}
	return 0
}

var tunePathologies = []string{"throttle", "waves"}
var tuneConfigs = []string{"untuned", "hand", "adaptive"}

// Key layout of the tune workloads. Repeats reuse one runtime per
// cell, so keys recur across passes: a writer submitted against a key
// whose previous writer already completed discovers no edge, which is
// exactly the drained state every pass leaves behind.
const (
	tuneGateKey  graph.Key = 8 << 40
	tuneChainKey graph.Key = 9 << 40
	tuneWideKey  graph.Key = 10 << 40
	tuneSerKey   graph.Key = 11 << 40
	tuneWaveKey  graph.Key = 12 << 40
)

// tuneRun is one measured run plus the end-state evidence that the
// control loop (or the hand setting) actually landed on the knobs.
type tuneRun struct {
	wall        float64
	thrReadyEnd int64
	fanoutEnd   int
	adjusts     int64
}

// tuneConfigFor builds the runtime config of one pathology/config cell.
func tuneConfigFor(p TuneParams, pathology, config string) rt.Config {
	cfg := rt.Config{Workers: p.Workers, Opts: graph.OptAll}
	if pathology == "throttle" {
		cfg.ThrottleReady = p.ThrottleTight
		if config == "hand" {
			cfg.ThrottleReady = p.ThrottleHand
		}
	}
	if config == "adaptive" {
		cfg.Tune = tune.Options{
			Enable:   true,
			Interval: time.Duration(p.TuneIntervalUs) * time.Microsecond,
		}
	}
	return cfg
}

// runTuneCell measures one pathology/configuration cell: ONE runtime,
// all measurement passes back to back on it, best wall wins. Reusing
// the runtime is the point — warmed deques and release buffers carry
// across passes for every configuration, and for the adaptive one the
// control loop's knobs persist, so the best-of-repeats figure reflects
// its converged state rather than a cold ramp. Between passes the cell
// sleeps a few control ticks: the loop goroutine is asynchronous and on
// a saturated machine (or GOMAXPROCS=1) it may only get scheduled at
// preemption points, so the settle window lets it consume the deltas
// the previous drain produced — exactly the cadence a long-running
// application gives it for free.
func runTuneCell(p TuneParams, pathology, config string, reps int) (tuneRun, error) {
	r, err := rt.NewRuntime(tuneConfigFor(p, pathology, config))
	if err != nil {
		return tuneRun{}, err
	}
	if config == "hand" && pathology == "waves" {
		r.Scheduler().SetWakePolicy(p.Workers, p.Workers/2+1)
	}
	settle := 4 * time.Duration(p.TuneIntervalUs) * time.Microsecond
	if settle < 2*time.Millisecond {
		settle = 2 * time.Millisecond
	}
	var run tuneRun
	for rep := 0; rep < reps; rep++ {
		var wall float64
		switch pathology {
		case "throttle":
			wall = runTuneThrottle(r, p)
		case "waves":
			wall = runTuneWaves(r, p)
		default:
			r.Close()
			return tuneRun{}, fmt.Errorf("unknown pathology %q", pathology)
		}
		if rep == 0 || wall < run.wall {
			run.wall = wall
		}
		time.Sleep(settle)
	}
	run.thrReadyEnd, _ = r.ThrottleLimits()
	run.fanoutEnd, _ = r.Scheduler().WakePolicy()
	reg := r.Obs()
	if err := r.Close(); err != nil {
		return run, fmt.Errorf("%s/%s: %w", pathology, config, err)
	}
	// Counters are exact after Close's FlushAll.
	run.adjusts = reg.Counter(obs.CTuneThrottle) + reg.Counter(obs.CTuneWake)
	return run, nil
}

// submitTuneChains pre-submits the chains behind a detached gate and
// returns the gate event; nothing is ready until it fires.
func submitTuneChains(r *rt.Runtime, p TuneParams) *rt.Event {
	gate := r.Submit(rt.Spec{
		Label:        "gate",
		Out:          []graph.Key{tuneGateKey},
		Detached:     true,
		DetachedBody: func(any, *rt.Event) {},
	})
	nop := func(any) {}
	specs := make([]rt.Spec, 0, p.ChainLen)
	for c := 0; c < p.Chains; c++ {
		key := tuneChainKey + graph.Key(c)
		specs = specs[:0]
		for i := 0; i < p.ChainLen; i++ {
			s := rt.Spec{Label: "link", InOut: []graph.Key{key}, Body: nop}
			if i == 0 {
				s.In = []graph.Key{tuneGateKey}
			}
			specs = append(specs, s)
		}
		r.SubmitBatch(specs)
	}
	return gate
}

// runTuneThrottle submits the wide sweep live — the producer-side
// pathology — and times submission + drain.
func runTuneThrottle(r *rt.Runtime, p TuneParams) float64 {
	body := func(any) { spin(p.WideGrain) }
	start := time.Now()
	for i := 0; i < p.WideTasks; i++ {
		r.Submit(rt.Spec{
			Label: "wide",
			Out:   []graph.Key{tuneWideKey + graph.Key(i)},
			Body:  body,
		})
	}
	r.Taskwait()
	return time.Since(start).Seconds()
}

// runTuneWaves pre-submits the serial/burst alternation behind a gate
// and times the drain. Each round's serial task follows the previous
// round's whole burst through an inoutset group, so workers park on
// every serial phase and must be re-recruited at every burst.
func runTuneWaves(r *rt.Runtime, p TuneParams) float64 {
	gate := r.Submit(rt.Spec{
		Label:        "gate",
		Out:          []graph.Key{tuneGateKey},
		Detached:     true,
		DetachedBody: func(any, *rt.Event) {},
	})
	serial := func(any) { spin(p.SerialGrain) }
	burst := func(any) { spin(p.BurstGrain) }
	specs := make([]rt.Spec, 0, 1+p.Burst)
	for round := 0; round < p.Rounds; round++ {
		specs = specs[:0]
		s := rt.Spec{
			Label: "serial",
			Out:   []graph.Key{tuneSerKey + graph.Key(round)},
			InOut: []graph.Key{tuneWaveKey},
			Body:  serial,
		}
		if round == 0 {
			s.In = []graph.Key{tuneGateKey}
		}
		specs = append(specs, s)
		for b := 0; b < p.Burst; b++ {
			specs = append(specs, rt.Spec{
				Label:    "burst",
				In:       []graph.Key{tuneSerKey + graph.Key(round)},
				InOutSet: []graph.Key{tuneWaveKey},
				Body:     burst,
			})
		}
		r.SubmitBatch(specs)
	}
	start := time.Now()
	gate.Fulfill()
	r.Taskwait()
	return time.Since(start).Seconds()
}

// runChainAllocs measures the chain drain's allocation count: the
// chains drained repeatedly on one runtime — the first drain warms the
// release buffers and deques, later drains are measured. Only the drain
// (Fulfill through Taskwait) is inside the measured window; discovery
// allocates task records by design and is excluded.
func runChainAllocs(p TuneParams) (perTask float64, err error) {
	r, err := rt.NewRuntime(rt.Config{Workers: p.Workers, Opts: graph.OptAll})
	if err != nil {
		return 0, err
	}
	defer r.Close()
	drain := func() uint64 {
		gate := submitTuneChains(r, p)
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		gate.Fulfill()
		r.Taskwait()
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	drain() // warm-up: buffers, deques, pools
	best := drain()
	for i := 1; i < 3; i++ {
		if m := drain(); m < best {
			best = m
		}
	}
	return float64(best) / float64(p.Chains*p.ChainLen), nil
}

// TuneRow is one pathology/configuration measurement.
type TuneRow struct {
	Pathology   string  `json:"pathology"`
	Config      string  `json:"config"`
	Tasks       int64   `json:"tasks"`
	WallSeconds float64 `json:"wall_seconds"`
	TasksPerSec float64 `json:"tasks_per_sec"`
	// End-state knob evidence from the best run: the ready-throttle
	// window and the wake fanout after the drain, plus the total number
	// of tuner actuations (0 for untuned/hand).
	ThrottleReadyEnd int64 `json:"throttle_ready_end"`
	WakeFanoutEnd    int   `json:"wake_fanout_end"`
	TuneAdjusts      int64 `json:"tune_adjusts"`
}

// TuneRecovery is the per-pathology headline: how much of the
// hand-tuned throughput the closed loop recovers, and what the
// untuned baseline loses.
type TuneRecovery struct {
	Pathology         string  `json:"pathology"`
	AdaptiveVsHand    float64 `json:"adaptive_vs_hand"`
	AdaptiveVsUntuned float64 `json:"adaptive_vs_untuned"`
	HandVsUntuned     float64 `json:"hand_vs_untuned"`
}

// TuneResult is the benchmark output committed as BENCH_tune.json.
type TuneResult struct {
	Meta
	Params     TuneParams     `json:"params"`
	Rows       []TuneRow      `json:"rows"`
	Recoveries []TuneRecovery `json:"recoveries"`
	// ChainAllocsPerTask is the measured steady-state allocation count
	// of the chain drain.
	ChainAllocsPerTask float64 `json:"chain_allocs_per_task"`
}

// RunTune measures every pathology/configuration cell: one runtime per
// cell, all repeats on it (see runTuneCell), per-cell best wall as the
// reported figure.
func RunTune(p TuneParams) (*TuneResult, error) {
	res := &TuneResult{Meta: Meta{Schema: TuneSchemaVersion}, Params: p}
	if p.Workers < 1 || p.Chains < 1 || p.ChainLen < 1 || p.WideTasks < 1 ||
		p.Rounds < 1 || p.Burst < 1 || p.TuneIntervalUs < 1 {
		return res, fmt.Errorf("tune params must all be >= 1: %+v", p)
	}
	best := map[string]*tuneRun{}
	for _, path := range tunePathologies {
		for _, cfg := range tuneConfigs {
			run, err := runTuneCell(p, path, cfg, max(p.Repeats, 1))
			if err != nil {
				return res, err
			}
			best[path+"/"+cfg] = &run
		}
	}
	tps := map[string]float64{}
	for _, path := range tunePathologies {
		tasks := float64(p.Tasks(path))
		for _, cfg := range tuneConfigs {
			run := best[path+"/"+cfg]
			row := TuneRow{
				Pathology:        path,
				Config:           cfg,
				Tasks:            int64(tasks),
				WallSeconds:      run.wall,
				TasksPerSec:      tasks / run.wall,
				ThrottleReadyEnd: run.thrReadyEnd,
				WakeFanoutEnd:    run.fanoutEnd,
				TuneAdjusts:      run.adjusts,
			}
			tps[path+"/"+cfg] = row.TasksPerSec
			res.Rows = append(res.Rows, row)
		}
		rec := TuneRecovery{Pathology: path}
		if hand := tps[path+"/hand"]; hand > 0 {
			rec.AdaptiveVsHand = tps[path+"/adaptive"] / hand
		}
		if unt := tps[path+"/untuned"]; unt > 0 {
			rec.AdaptiveVsUntuned = tps[path+"/adaptive"] / unt
			rec.HandVsUntuned = tps[path+"/hand"] / unt
		}
		res.Recoveries = append(res.Recoveries, rec)
	}
	allocs, err := runChainAllocs(p)
	if err != nil {
		return res, err
	}
	res.ChainAllocsPerTask = allocs
	return res, nil
}

// Validate checks the schema, that every cell ran its whole graph and
// only the adaptive ones actuated, and that the chain drain is
// allocation-free.
func (r *TuneResult) Validate() error {
	if err := r.checkSchema(TuneSchemaVersion); err != nil {
		return err
	}
	want := len(tunePathologies) * len(tuneConfigs)
	if len(r.Rows) != want {
		return fmt.Errorf("%d rows, want %d (%d pathologies x %d configs)", len(r.Rows), want, len(tunePathologies), len(tuneConfigs))
	}
	seen := map[string]bool{}
	for i, row := range r.Rows {
		if r.Params.Tasks(row.Pathology) == 0 {
			return fmt.Errorf("row %d: unknown pathology %q", i, row.Pathology)
		}
		ok := false
		for _, c := range tuneConfigs {
			ok = ok || c == row.Config
		}
		if !ok {
			return fmt.Errorf("row %d: unknown config %q", i, row.Config)
		}
		if row.Tasks != int64(r.Params.Tasks(row.Pathology)) {
			return fmt.Errorf("row %d: %d tasks, params imply %d", i, row.Tasks, r.Params.Tasks(row.Pathology))
		}
		if row.WallSeconds <= 0 || row.TasksPerSec <= 0 {
			return fmt.Errorf("row %d (%s/%s): non-positive timing", i, row.Pathology, row.Config)
		}
		if row.Config != "adaptive" && row.TuneAdjusts != 0 {
			return fmt.Errorf("row %d (%s/%s): %d tuner actuations without a tuner", i, row.Pathology, row.Config, row.TuneAdjusts)
		}
		seen[row.Pathology+"/"+row.Config] = true
	}
	if len(seen) != len(r.Rows) {
		return fmt.Errorf("duplicate pathology/config rows: %v", seen)
	}
	if len(r.Recoveries) != len(tunePathologies) {
		return fmt.Errorf("%d recovery entries, want %d", len(r.Recoveries), len(tunePathologies))
	}
	for _, rec := range r.Recoveries {
		if rec.AdaptiveVsHand <= 0 || rec.AdaptiveVsUntuned <= 0 || rec.HandVsUntuned <= 0 {
			return fmt.Errorf("pathology %s: non-positive recovery ratio", rec.Pathology)
		}
	}
	if r.ChainAllocsPerTask < 0 || r.ChainAllocsPerTask > maxSteadyAllocsPerTask {
		return fmt.Errorf("chain drain allocates %.4f/task, want 0", r.ChainAllocsPerTask)
	}
	return nil
}

// tuneMinRecovery is the share of hand-tuned throughput the closed loop
// must recover on every pathology at full size.
const tuneMinRecovery = 0.80

// ValidateFull holds a full-size run to the recovery floor and to proof
// that the loop engaged. A smoke run is too short for the control loop
// to converge reliably.
func (r *TuneResult) ValidateFull() error {
	for _, rec := range r.Recoveries {
		if rec.AdaptiveVsHand < tuneMinRecovery {
			return fmt.Errorf("%s recovery is %.0f%% of hand-tuned, floor is %.0f%%",
				rec.Pathology, 100*rec.AdaptiveVsHand, 100*tuneMinRecovery)
		}
	}
	for _, row := range r.Rows {
		// The waves actuation is timing-sensitive (churn must cross the
		// threshold inside a tick), so only the throttle pathology must
		// prove engagement.
		if row.Config == "adaptive" && row.Pathology == "throttle" && row.TuneAdjusts == 0 {
			return fmt.Errorf("%s adaptive run shows zero tuner actuations — the loop never engaged", row.Pathology)
		}
	}
	return nil
}

// Print renders the result as the EXPERIMENTS.md table.
func (r *TuneResult) Print(w io.Writer) {
	fmt.Fprintf(w, "== self-tuning scheduler (%d workers, pathological graphs) ==\n", r.Params.Workers)
	fmt.Fprintf(w, "%-10s %-9s %9s %10s %13s %9s %7s %8s\n",
		"pathology", "config", "tasks", "wall(ms)", "tasks/sec", "thr.ready", "fanout", "adjusts")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %-9s %9d %10.2f %13.0f %9d %7d %8d\n",
			row.Pathology, row.Config, row.Tasks, row.WallSeconds*1e3, row.TasksPerSec,
			row.ThrottleReadyEnd, row.WakeFanoutEnd, row.TuneAdjusts)
	}
	for _, rec := range r.Recoveries {
		fmt.Fprintf(w, "recovery %-10s adaptive = %3.0f%% of hand-tuned (%.2fx untuned; hand is %.2fx untuned)\n",
			rec.Pathology, 100*rec.AdaptiveVsHand, rec.AdaptiveVsUntuned, rec.HandVsUntuned)
	}
	fmt.Fprintf(w, "chain drain: %.4f allocs/task\n", r.ChainAllocsPerTask)
}
