package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"taskdep/internal/cpath"
	"taskdep/internal/graph"
	"taskdep/internal/obs"
	"taskdep/internal/rt"
	"taskdep/internal/trace"
)

// Critical-path profiler benchmark (BENCH_cpath.json). Three claims are
// measured and gated:
//
//  1. Overhead: the online profiler (cached clock, default tier) adds
//     <= 10% to the grain-0 executor drain — the same pure-overhead
//     point the obs benchmark uses, where every added nanosecond of
//     instrumentation is maximally visible.
//  2. Exactness: the O(1) release-time fold reproduces the offline
//     exact weighted longest path nanosecond-for-nanosecond on tiled
//     Cholesky, the LULESH stencil (redirect nodes via inoutset) and a
//     2D wavefront whose critical-path length is known in closed form.
//  3. Replay: across Persistent+Frozen compiled replay the per-window
//     report covers exactly one iteration and its critical path carries
//     zero discovery time (replay re-discovers nothing).
//
// A live scrape proves /criticalpath serves the discovery share of
// T-infinity and the zero-cost-discovery what-if makespan over HTTP.

// CPathSchemaVersion identifies the BENCH_cpath.json layout.
const CPathSchemaVersion = 1

// CPathParams sizes the drain workload, the agreement graphs and the
// replay region.
type CPathParams struct {
	// Overhead drain shape (the gate graph at grain 0).
	GateShape
	Repeats int `json:"repeats"` // interleaved repetitions; best run wins

	// Agreement / replay workloads.
	Workers      int `json:"workers"`
	CholTiles    int `json:"chol_tiles"`
	LuleshChunks int `json:"lulesh_chunks"`
	LuleshStages int `json:"lulesh_stages"`
	// Stencil is the side N of the N x N dependence wavefront; every
	// root-to-sink path holds exactly 2N-1 tasks, so the reported
	// critical-path length is checkable in closed form.
	Stencil     int `json:"stencil"`
	ReplayIters int `json:"replay_iters"`
}

// DefaultCPathParams is the committed-baseline configuration.
func DefaultCPathParams() CPathParams {
	return CPathParams{
		GateShape: GateShape{Roots: 64, Lanes: 4, Depth: 200}, Repeats: 9,
		Workers: 4, CholTiles: 10, LuleshChunks: 16, LuleshStages: 6,
		Stencil: 12, ReplayIters: 6,
	}
}

// SmokeCPathParams is the CI configuration: small, same shape.
func SmokeCPathParams() CPathParams {
	return CPathParams{
		GateShape: GateShape{Roots: 16, Lanes: 2, Depth: 30}, Repeats: 3,
		Workers: 2, CholTiles: 6, LuleshChunks: 8, LuleshStages: 3,
		Stencil: 8, ReplayIters: 3,
	}
}

// CPathAgreement is one app's online-vs-exact critical-path comparison
// plus the discovery-impact quantities the paper reports offline.
type CPathAgreement struct {
	App   string `json:"app"` // "cholesky" | "lulesh" | "stencil"
	Tasks int64  `json:"tasks"`

	OnlineTInfNs int64 `json:"online_tinf_ns"`
	ExactTInfNs  int64 `json:"exact_tinf_ns"`
	Match        bool  `json:"match"` // online == exact, nanosecond for nanosecond
	OnlineCPLen  int   `json:"online_cp_len"`
	ExactCPLen   int   `json:"exact_cp_len"`

	DiscShare       float64 `json:"disc_share"`
	AvgParallelism  float64 `json:"avg_parallelism"`
	BrentNs         int64   `json:"brent_ns"`
	ZeroDiscBrentNs int64   `json:"zero_disc_brent_ns"`
	ZeroDiscSpeedup float64 `json:"zero_disc_speedup"`
}

// CPathReplayCheck is the Persistent+Frozen compiled-replay window
// check: the final window must cover exactly one iteration's tasks and
// carry no discovery time on its critical path.
type CPathReplayCheck struct {
	Iters    int   `json:"iters"`
	Window   int64 `json:"window"` // final published window index
	Tasks    int64 `json:"tasks"`
	TInfNs   int64 `json:"tinf_ns"`
	CPDiscNs int64 `json:"cp_disc_ns"`
	DiscFree bool  `json:"disc_free"` // CPDiscNs == 0
	CPLen    int   `json:"cp_len"`
}

// CPathResult is the benchmark output committed as BENCH_cpath.json.
type CPathResult struct {
	Meta
	Params CPathParams `json:"params"`

	Rows     []DrainRow `json:"rows"` // profiler off, then on
	Overhead Overhead   `json:"overhead"`

	Agreements []CPathAgreement `json:"agreements"`
	Replay     CPathReplayCheck `json:"replay"`

	// EndpointOK records whether a live /criticalpath scrape over HTTP
	// served an enabled report with the discovery share and the
	// zero-cost-discovery what-if makespan.
	EndpointOK bool `json:"endpoint_ok"`
}

// runCPathDrain times the 1-worker grain-0 drain of the gate graph with
// the critical-path profiler off or on (cached clock, production tier).
// Metrics stay at the default tier in both modes so the delta isolates
// the profiler itself.
func runCPathDrain(p CPathParams, enable bool) (float64, error) {
	r, err := rt.NewRuntime(rt.Config{
		Workers: 1, Opts: graph.OptAll,
		CPath: rt.CPathOptions{Enable: enable},
	})
	if err != nil {
		return 0, err
	}
	defer r.Close()
	return drainGateGraph(r, p.GateShape, func(any) {}), nil
}

// stencilWavefrontBody builds the N x N dependence wavefront: cell
// (i,j) reads its up and left neighbours, so every path from (0,0) to
// the unique sink (N-1,N-1) holds exactly 2N-1 tasks — a closed-form
// critical-path length the profiler must reproduce. Cell (0,0) is
// detached and fulfilled once the last cell is submitted: nothing can
// finish while the graph is being discovered, so no edge is pruned and
// the longest recorded path is the closed-form one on every run.
func stencilWavefrontBody(r *rt.Runtime, n int) func(int) {
	nop := func(any) {}
	cell := func(i, j int) graph.Key { return graph.Key(4<<40 | uint64(i)<<20 | uint64(j)) }
	return func(int) {
		var origin *rt.Event
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				sp := rt.Spec{Label: "cell", Out: []graph.Key{cell(i, j)}, Body: nop}
				if i > 0 {
					sp.In = append(sp.In, cell(i-1, j))
				}
				if j > 0 {
					sp.In = append(sp.In, cell(i, j-1))
				}
				if i == 0 && j == 0 {
					sp.Body, sp.Detached, sp.DetachedBody = nil, true, func(any, *rt.Event) {}
					origin = r.Submit(sp)
					continue
				}
				r.Submit(sp)
			}
		}
		origin.Fulfill()
	}
}

// cpathAppBody selects the agreement workload builder.
func cpathAppBody(r *rt.Runtime, p CPathParams, app string) (func(int), error) {
	switch app {
	case "cholesky":
		return choleskyReplayBody(r, p.CholTiles), nil
	case "lulesh":
		return luleshReplayBody(r, p.LuleshChunks, p.LuleshStages), nil
	case "stencil":
		return stencilWavefrontBody(r, p.Stencil), nil
	}
	return nil, fmt.Errorf("unknown cpath app %q", app)
}

// runCPathAgreement runs one app to quiescence under the precise clock
// with task retention on, then replays the retained window through the
// offline exact longest-path and compares. The fold and ExactCP share
// stamps and phase derivation, so TInf must agree exactly.
func runCPathAgreement(p CPathParams, app string) (CPathAgreement, error) {
	a := CPathAgreement{App: app}
	r, err := rt.NewRuntime(rt.Config{
		Workers: p.Workers, Opts: graph.OptAll,
		Obs:   obs.Options{Disable: true},
		CPath: rt.CPathOptions{Enable: true, Precise: true, Retain: true, PathMax: 1 << 20},
	})
	if err != nil {
		return a, err
	}
	defer r.Close()
	body, err := cpathAppBody(r, p, app)
	if err != nil {
		return a, err
	}
	body(0)
	if err := r.Taskwait(); err != nil {
		return a, fmt.Errorf("%s: %w", app, err)
	}
	rep := r.CriticalPath()
	if rep == nil {
		return a, fmt.Errorf("%s: no profiling window published", app)
	}
	retained := r.CPathProfiler().TakeRetained()
	if int64(len(retained)) != rep.Tasks {
		return a, fmt.Errorf("%s: retained %d tasks, window reports %d", app, len(retained), rep.Tasks)
	}
	exact, err := cpath.ExactCP(retained)
	if err != nil {
		return a, fmt.Errorf("%s: %w", app, err)
	}
	a.Tasks = rep.Tasks
	a.OnlineTInfNs, a.ExactTInfNs = rep.TInfNs, exact.TInfNs
	a.Match = rep.TInfNs == exact.TInfNs
	a.OnlineCPLen, a.ExactCPLen = rep.CPLen, exact.CPLen
	a.DiscShare = rep.DiscShare
	a.AvgParallelism = rep.AvgParallelism
	a.BrentNs = rep.WhatIf.BrentNs
	a.ZeroDiscBrentNs = rep.WhatIf.ZeroDiscBrentNs
	a.ZeroDiscSpeedup = rep.WhatIf.Speedup
	return a, nil
}

// runCPathReplay runs tiled Cholesky through Persistent+Frozen compiled
// replay with the profiler on and inspects the final window's report:
// one iteration of tasks, zero discovery on the critical path.
func runCPathReplay(p CPathParams) (CPathReplayCheck, error) {
	c := CPathReplayCheck{Iters: p.ReplayIters}
	r, err := rt.NewRuntime(rt.Config{
		Workers: p.Workers, Opts: graph.OptAll,
		Obs:   obs.Options{Disable: true},
		CPath: rt.CPathOptions{Enable: true, Precise: true},
	})
	if err != nil {
		return c, err
	}
	defer r.Close()
	body := choleskyReplayBody(r, p.CholTiles)
	if err := r.Persistent(p.ReplayIters, body, rt.Frozen()); err != nil {
		return c, err
	}
	rep := r.CriticalPath()
	if rep == nil {
		return c, fmt.Errorf("replay: no profiling window published")
	}
	c.Window = rep.Window
	c.Tasks = rep.Tasks
	c.TInfNs = rep.TInfNs
	c.CPDiscNs = rep.CPDiscNs
	c.DiscFree = rep.CPDiscNs == 0
	c.CPLen = rep.CPLen
	return c, nil
}

// checkCPathEndpoint runs a small wavefront on a runtime serving over a
// real listener and scrapes /criticalpath (JSON and text), returning
// whether the report carried the discovery share and the zero-discovery
// what-if projection.
func checkCPathEndpoint(p CPathParams) (bool, error) {
	r, err := rt.NewRuntime(rt.Config{
		Workers: 2, Opts: graph.OptAll,
		Obs:   obs.Options{Addr: "127.0.0.1:0"},
		CPath: rt.CPathOptions{Enable: true, Precise: true},
	})
	if err != nil {
		return false, err
	}
	defer r.Close()
	n := p.Stencil
	if n < 4 {
		n = 4
	}
	stencilWavefrontBody(r, n)(0)
	if err := r.Taskwait(); err != nil {
		return false, err
	}

	resp, err := http.Get("http://" + r.ObsAddr() + "/criticalpath")
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("/criticalpath returned %s", resp.Status)
	}
	var st struct {
		Enabled bool          `json:"enabled"`
		Report  *cpath.Report `json:"report"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return false, err
	}
	if !st.Enabled || st.Report == nil {
		return false, fmt.Errorf("/criticalpath served enabled=%v, report=%v", st.Enabled, st.Report != nil)
	}
	if st.Report.TInfNs <= 0 || st.Report.DiscShare < 0 || st.Report.DiscShare > 1 {
		return false, fmt.Errorf("/criticalpath report: tinf %d ns, disc share %g", st.Report.TInfNs, st.Report.DiscShare)
	}
	if st.Report.WhatIf.ZeroDiscBrentNs <= 0 || st.Report.WhatIf.Speedup < 1 {
		return false, fmt.Errorf("/criticalpath what-if: zero-disc %d ns, speedup %g",
			st.Report.WhatIf.ZeroDiscBrentNs, st.Report.WhatIf.Speedup)
	}

	// Text rendering must serve too (operators curl it).
	resp2, err := http.Get("http://" + r.ObsAddr() + "/criticalpath?format=text")
	if err != nil {
		return false, err
	}
	defer resp2.Body.Close()
	text, err := io.ReadAll(resp2.Body)
	if err != nil {
		return false, err
	}
	if len(text) == 0 {
		return false, fmt.Errorf("/criticalpath?format=text served an empty page")
	}
	return true, nil
}

// cpathModes are the overhead drain's modes: profiler off, profiler on.
var cpathModes = []string{"off", "cpath"}

// RunCPath measures overhead, exactness, replay behaviour and the live
// endpoint.
func RunCPath(p CPathParams) (*CPathResult, error) {
	res := &CPathResult{Meta: Meta{Schema: CPathSchemaVersion}, Params: p}

	walls := make([][]float64, len(cpathModes))
	for i := 0; i < max(p.Repeats, 1); i++ {
		for m, enable := range []bool{false, true} {
			w, err := runCPathDrain(p, enable)
			if err != nil {
				return nil, err
			}
			walls[m] = append(walls[m], w)
		}
	}
	var over []Overhead
	res.Rows, over = drainRows(cpathModes, walls, p.Tasks())
	res.Overhead = over[0]

	for _, app := range []string{"cholesky", "lulesh", "stencil"} {
		a, err := runCPathAgreement(p, app)
		if err != nil {
			return res, err
		}
		res.Agreements = append(res.Agreements, a)
	}

	replay, err := runCPathReplay(p)
	if err != nil {
		return res, err
	}
	res.Replay = replay

	ok, err := checkCPathEndpoint(p)
	if err != nil {
		return res, fmt.Errorf("criticalpath endpoint: %w", err)
	}
	res.EndpointOK = ok
	return res, nil
}

// Validate checks a result's schema and structural invariants,
// including the exactness gates (they are machine-independent: the fold
// either reproduces the offline longest path or it does not).
func (r *CPathResult) Validate() error {
	if err := r.checkSchema(CPathSchemaVersion); err != nil {
		return err
	}
	if err := checkDrainRows(r.Rows, cpathModes, r.Params.Tasks()); err != nil {
		return err
	}
	if len(r.Agreements) != 3 {
		return fmt.Errorf("%d agreement entries, want 3", len(r.Agreements))
	}
	wantApps := []string{"cholesky", "lulesh", "stencil"}
	for i, a := range r.Agreements {
		if a.App != wantApps[i] {
			return fmt.Errorf("agreement %d: app %q, want %q", i, a.App, wantApps[i])
		}
		if !a.Match || a.OnlineTInfNs != a.ExactTInfNs {
			return fmt.Errorf("%s: online TInf %d ns != exact %d ns", a.App, a.OnlineTInfNs, a.ExactTInfNs)
		}
		if a.OnlineTInfNs <= 0 || a.OnlineCPLen <= 0 || a.Tasks <= 0 {
			return fmt.Errorf("%s: degenerate window (tinf %d, cp len %d, tasks %d)",
				a.App, a.OnlineTInfNs, a.OnlineCPLen, a.Tasks)
		}
		if a.DiscShare < 0 || a.DiscShare > 1 {
			return fmt.Errorf("%s: discovery share %g outside [0,1]", a.App, a.DiscShare)
		}
		if a.ZeroDiscSpeedup < 1 {
			return fmt.Errorf("%s: zero-discovery speedup %g < 1", a.App, a.ZeroDiscSpeedup)
		}
		if a.AvgParallelism <= 0 {
			return fmt.Errorf("%s: average parallelism %g", a.App, a.AvgParallelism)
		}
	}
	// The wavefront's critical-path length is known in closed form:
	// every root-to-sink path holds exactly 2N-1 tasks.
	if want := 2*r.Params.Stencil - 1; r.Agreements[2].OnlineCPLen != want || r.Agreements[2].ExactCPLen != want {
		return fmt.Errorf("stencil: CP length online %d / exact %d, closed form says %d",
			r.Agreements[2].OnlineCPLen, r.Agreements[2].ExactCPLen, want)
	}
	if want := int64(choleskyTasks(r.Params.CholTiles)); r.Replay.Tasks != want {
		return fmt.Errorf("replay window covered %d tasks, one iteration is %d", r.Replay.Tasks, want)
	}
	if !r.Replay.DiscFree || r.Replay.CPDiscNs != 0 {
		return fmt.Errorf("replay critical path carries %d ns of discovery, want 0", r.Replay.CPDiscNs)
	}
	if r.Replay.TInfNs <= 0 || r.Replay.CPLen <= 0 {
		return fmt.Errorf("replay window degenerate (tinf %d, cp len %d)", r.Replay.TInfNs, r.Replay.CPLen)
	}
	if !r.EndpointOK {
		return fmt.Errorf("/criticalpath scrape did not serve the report")
	}
	return nil
}

// ValidateFull holds the enabled profiler to its overhead budget on the
// grain-0 drain. Not asked of a smoke run: the ratio of two
// sub-millisecond drains is noise.
func (r *CPathResult) ValidateFull() error { return checkOverheads([]Overhead{r.Overhead}) }

// Print renders the result as the EXPERIMENTS.md table.
func (r *CPathResult) Print(w io.Writer) {
	fmt.Fprintf(w, "== critical-path profiler (grain-0 drain, 1 worker, %d tasks) ==\n", r.Params.Tasks())
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8s %10.3f ms  %7.1f ns/task\n", row.Mode, row.WallSeconds*1e3, row.NsPerTask)
	}
	fmt.Fprintf(w, "overhead: %+.1f%% (%+.1f ns/task)\n", r.Overhead.Pct, r.Overhead.AddNs)
	fmt.Fprintf(w, "%-10s %7s %14s %14s %6s %7s %9s %8s %9s\n",
		"app", "tasks", "online-Tinf", "exact-Tinf", "match", "cp-len", "disc%", "T1/Tinf", "0disc-spd")
	for _, a := range r.Agreements {
		fmt.Fprintf(w, "%-10s %7d %12d ns %12d ns %6v %7d %8.2f%% %8.2f %8.2fx\n",
			a.App, a.Tasks, a.OnlineTInfNs, a.ExactTInfNs, a.Match, a.OnlineCPLen,
			a.DiscShare*100, a.AvgParallelism, a.ZeroDiscSpeedup)
	}
	fmt.Fprintf(w, "frozen replay: window %d covered %d tasks, Tinf %d ns, cp discovery %d ns (disc-free: %v)\n",
		r.Replay.Window, r.Replay.Tasks, r.Replay.TInfNs, r.Replay.CPDiscNs, r.Replay.DiscFree)
	fmt.Fprintf(w, "/criticalpath endpoint: %v\n", r.EndpointOK)
}

// CPathGantt is the output of RunCPathGantt: real-runtime task boxes
// with the span-defining chain marked, plus the window report — the
// inputs for cmd/gantt's critical-path overlay (-cp).
type CPathGantt struct {
	Records []trace.TaskRecord
	Report  *cpath.Report
	Marked  int // records tagged Critical
}

// RunCPathGantt executes one tiled-Cholesky sweep on the real runtime
// with both the trace profiler and the critical-path profiler on, then
// marks the report's critical path onto the recorded task boxes. grain
// is the per-task busy-spin (gives boxes visible width).
func RunCPathGantt(tiles, workers int, grain time.Duration) (CPathGantt, error) {
	var out CPathGantt
	prof := trace.New(workers+1, true)
	r, err := rt.NewRuntime(rt.Config{
		Workers: workers, Opts: graph.OptAll,
		Obs:     obs.Options{Disable: true},
		Profile: prof,
		CPath:   rt.CPathOptions{Enable: true, Precise: true, PathMax: 1 << 20},
	})
	if err != nil {
		return out, err
	}
	spin := func(any) {
		if grain <= 0 {
			return
		}
		end := time.Now().Add(grain)
		for time.Now().Before(end) {
		}
	}
	resubmit(r, choleskySpecs(tiles, spin))(0)
	if err := r.Taskwait(); err != nil {
		r.Close()
		return out, err
	}
	out.Report = r.CriticalPath()
	if err := r.Close(); err != nil {
		return out, err
	}
	if out.Report == nil {
		return out, fmt.Errorf("cpath gantt: no profiling window published")
	}
	out.Records = prof.Tasks()
	ids := make(map[int64]bool, len(out.Report.Path))
	for _, e := range out.Report.Path {
		ids[e.ID] = true
	}
	out.Marked = trace.MarkCritical(out.Records, ids)
	if out.Marked == 0 {
		return out, fmt.Errorf("cpath gantt: no recorded task matched the critical path")
	}
	return out, nil
}
