// Package cpath is the online critical-path profiler: per-task phase
// attribution (discovery, ready-wait, execute, release), an O(1)
// release-time critical-path fold maintained by internal/graph, and a
// what-if projector for the paper's discovery-impact question — "is TDG
// discovery on the critical path, and by how much would eliminating it
// shrink makespan?" — answered live instead of by offline trace
// analysis.
//
// The division of labor: graph owns the per-task stamps, the clock they
// read (graph.Clock) and the cp[t] = own(t) + max_pred cp[p] fold (it is
// the only layer that walks every predecessor->successor edge at release
// time); this package owns the per-slot aggregation of
// finished tasks (same single-writer sharding discipline as
// internal/obs), window reports with T1/T-infinity/parallelism and the
// discovery share of the critical path, the Brent-bound what-if
// projections, and an offline exact longest-path cross-check used by
// tests and the cpath benchmark gate.
package cpath

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"taskdep/internal/graph"
	"taskdep/internal/obs"
)

// Options configures a Profiler.
type Options struct {
	// Retain keeps every observed task until TakeRetained, so tests and
	// the cpath benchmark can run the offline exact longest-path
	// cross-check. Pins task memory; not for production.
	Retain bool
	// PathMax bounds the critical-path entries rendered into a Report
	// (walking back from the critical task); <= 0 means 64.
	PathMax int
}

// pslot is one execution slot's aggregation state. Single-writer: only
// the slot's owning goroutine (worker w for slot w, the producer for
// slot W) writes, and always BEFORE the finished task's live-count
// decrement — so a producer that observed the graph drained reads
// every slot exactly (the same quiescence argument as obs shards).
// Padded to keep neighbouring slots off one cache line.
type pslot struct {
	tasks    int64
	discNs   int64
	waitNs   int64
	execNs   int64
	best     *graph.Task // highest cpTotal finished on this slot, this window
	bestTot  int64
	retained []*graph.Task
	_        [64]byte
}

// Profiler aggregates finished tasks into critical-path window reports.
// One per runtime; rt calls Observe from the finishing goroutine and
// EndWindow from the producer at quiescent points (taskwait, compiled
// iteration barriers).
type Profiler struct {
	clock *graph.Clock
	reg   *obs.Registry // phase counters destination (may be nil)
	opts  Options

	slots []pslot
	extMu sync.Mutex // guards ext: finishes from unowned goroutines
	ext   pslot

	// Producer-only window state.
	window     int64
	winStartNs int64

	last atomic.Pointer[Report]
}

// New creates a profiler with nslots owner slots (callers pass
// workers+1, matching the obs registry layout). reg, when non-nil,
// receives the taskdep_phase_* counter totals, flushed once per window
// at EndWindow — the cold-point-flush discipline: the per-task hot path
// touches only the owner's padded slot, never a shared counter. clock is
// the one the graph stamps with (graph.Config.Clock); Close stops it.
func New(nslots int, reg *obs.Registry, clock *graph.Clock, opt Options) *Profiler {
	if nslots < 1 {
		nslots = 1
	}
	if opt.PathMax <= 0 {
		opt.PathMax = 64
	}
	return &Profiler{
		clock: clock,
		reg:   reg,
		opts:  opt,
		slots: make([]pslot, nslots),
	}
}

// Close stops the clock's ticker.
func (p *Profiler) Close() { p.clock.Stop() }

// Observe folds a finished task into slot's aggregation state and the
// obs phase counters. The caller must be the slot's owning goroutine
// and must call it AFTER graph.StampFinish(t) and BEFORE the terminal
// transition that decrements the live gauge (rt does both on the
// finish path); out-of-range slots route to a mutex-guarded external
// slot (detached completions fulfilled off-runtime).
func (p *Profiler) Observe(slot int, t *graph.Task) {
	d, w, e := t.PhaseNs()
	tot := t.CPTotal()
	if uint(slot) < uint(len(p.slots)) {
		p.observeInto(&p.slots[slot], t, tot, d, w, e)
	} else {
		p.extMu.Lock()
		p.observeInto(&p.ext, t, tot, d, w, e)
		p.extMu.Unlock()
	}
}

func (p *Profiler) observeInto(s *pslot, t *graph.Task, tot, d, w, e int64) {
	s.tasks++
	s.discNs += d
	s.waitNs += w
	s.execNs += e
	if s.best == nil || tot > s.bestTot {
		s.best, s.bestTot = t, tot
	}
	if p.opts.Retain {
		s.retained = append(s.retained, t)
	}
}

// ObserveRelease accounts the successor-release phase of a finish, from
// its finish stamp finNs to now (rt calls it after the release walk), to
// the obs release counter.
// Kept out of the window sums for two reasons: release time overlaps
// the successors' ready-wait (adding it to T1 would double-count), and
// it is measured AFTER the terminal transition — past the quiescence
// point EndWindow relies on for its plain pslot reads — so it may only
// go to the obs pend shards, whose cold-point flush discipline
// tolerates post-decrement writes. Visible as
// taskdep_phase_release_ns_total.
func (p *Profiler) ObserveRelease(slot int, finNs int64) {
	// ns == 0 is the cached-clock common case (a release walk rarely
	// spans a tick); skipping the shard write keeps the finish path at
	// a branch.
	if ns := p.clock.Now() - finNs; p.reg != nil && ns != 0 {
		p.reg.AddSlot(slot, obs.CPhaseReleaseNs, ns)
	}
}

// TakeRetained drains the retained task lists (Retain mode). Producer
// only, at a quiescent point.
func (p *Profiler) TakeRetained() []*graph.Task {
	var out []*graph.Task
	for i := range p.slots {
		out = append(out, p.slots[i].retained...)
		p.slots[i].retained = nil
	}
	p.extMu.Lock()
	out = append(out, p.ext.retained...)
	p.ext.retained = nil
	p.extMu.Unlock()
	return out
}

// EndWindow closes the current profiling window: merges every slot,
// builds the Report (critical path, parallelism, what-if projections),
// resets the per-window state and publishes the report for /criticalpath.
// Producer-only, at a quiescent point (the graph drained), which is
// also what makes the plain slot reads race-free: every Observe was
// sequenced before a live-gauge decrement the producer has observed.
// Returns nil if the window finished no tasks.
func (p *Profiler) EndWindow(workers int) *Report {
	// A precise reading: the graph has drained, so a cached clock may be
	// parked at the moment it went idle.
	now := p.clock.Read()
	var tasks, disc, wait, exec, bestTot int64
	var best *graph.Task
	merge := func(s *pslot) {
		tasks += s.tasks
		disc += s.discNs
		wait += s.waitNs
		exec += s.execNs
		if s.best != nil && (best == nil || s.bestTot > bestTot) {
			best, bestTot = s.best, s.bestTot
		}
		s.tasks, s.discNs, s.waitNs, s.execNs = 0, 0, 0, 0
		s.best, s.bestTot = nil, 0
	}
	for i := range p.slots {
		merge(&p.slots[i])
	}
	p.extMu.Lock()
	merge(&p.ext)
	p.extMu.Unlock()

	// Cold-point flush of the taskdep_phase_* sums: one Add per counter
	// per window instead of three shard writes per task on the finish
	// hot path (the release counter flows through the obs pend shards
	// instead — see ObserveRelease).
	if p.reg != nil && tasks > 0 {
		p.reg.Add(obs.CPhaseDiscoveryNs, disc)
		p.reg.Add(obs.CPhaseReadyWaitNs, wait)
		p.reg.Add(obs.CPhaseExecuteNs, exec)
	}

	start := p.winStartNs
	p.winStartNs = now
	if tasks == 0 {
		return nil
	}
	p.window++

	r := &Report{
		Window:    p.window,
		Workers:   workers,
		WallNs:    now - start,
		Tasks:     tasks,
		T1Ns:      exec,
		SumDiscNs: disc,
		SumWaitNs: wait,
	}
	if best != nil {
		total, cd, cw, ce := best.CP()
		r.TInfNs = total
		r.CPDiscNs, r.CPWaitNs, r.CPExecNs = cd, cw, ce
		if total > 0 {
			r.DiscShare = float64(cd) / float64(total)
			r.AvgParallelism = float64(exec) / float64(total)
		}
		r.Path, r.CPLen = pathOf(best, p.opts.PathMax)
	}
	r.WhatIf = project(r.T1Ns, r.TInfNs, r.CPDiscNs, workers)
	p.last.Store(r)
	return r
}

// Last returns the most recently completed window's report, or nil.
func (p *Profiler) Last() *Report { return p.last.Load() }

// pathOf recovers the critical path by walking the cpBest chain from
// the critical task back to its root, returning up to max entries
// (nearest the sink) in root-first order plus the full path length.
func pathOf(sink *graph.Task, max int) ([]PathEntry, int) {
	n := 0
	for t := sink; t != nil; t = t.CPBest() {
		n++
	}
	entries := make([]PathEntry, 0, min(n, max))
	for t := sink; t != nil && len(entries) < max; t = t.CPBest() {
		d, w, e := t.PhaseNs()
		entries = append(entries, PathEntry{
			ID: t.ID, Label: t.Label,
			DiscNs: d, WaitNs: w, ExecNs: e,
		})
	}
	// Walked sink->root; report root->sink.
	for i, j := 0, len(entries)-1; i < j; i, j = i+1, j-1 {
		entries[i], entries[j] = entries[j], entries[i]
	}
	return entries, n
}

// PathEntry is one task on the critical path with its own phase split.
type PathEntry struct {
	ID     int64  `json:"id"`
	Label  string `json:"label"`
	DiscNs int64  `json:"disc_ns"`
	WaitNs int64  `json:"wait_ns"`
	ExecNs int64  `json:"exec_ns"`
}

// Report is one window's critical-path analysis — the paper's offline
// discovery-impact figures as a live structure.
type Report struct {
	Window  int64 `json:"window"`
	Workers int   `json:"workers"`
	WallNs  int64 `json:"wall_ns"`
	Tasks   int64 `json:"tasks"`

	// Work-law quantities: T1 is total execute time; the sums split the
	// remaining per-task time by phase (release time is tracked by the
	// taskdep_phase_release_ns_total counter, not here — it overlaps
	// successors' ready-wait).
	T1Ns      int64 `json:"t1_ns"`
	SumDiscNs int64 `json:"sum_disc_ns"`
	SumWaitNs int64 `json:"sum_wait_ns"`

	// Span-law quantities: T-infinity and its phase split along the
	// critical path.
	TInfNs   int64 `json:"tinf_ns"`
	CPDiscNs int64 `json:"cp_disc_ns"`
	CPWaitNs int64 `json:"cp_wait_ns"`
	CPExecNs int64 `json:"cp_exec_ns"`

	// DiscShare is the discovery share of the critical path,
	// CPDiscNs / TInfNs — the paper's headline quantity.
	DiscShare float64 `json:"disc_share"`
	// AvgParallelism is T1/TInf, the graph's inherent parallelism.
	AvgParallelism float64 `json:"avg_parallelism"`

	WhatIf WhatIf `json:"what_if"`

	// Path is the critical path (root first, truncated to PathMax
	// entries); CPLen is its full task count.
	Path  []PathEntry `json:"path,omitempty"`
	CPLen int         `json:"cp_len"`
}

// WhatIf holds Brent-bound makespan projections: with work T1 and span
// TInf, P greedy workers finish within max(TInf, T1/P) (and at most
// T1/P + TInf). "Zero-cost discovery" removes the discovery component
// from the span — the paper's perfectly-cached-TDG limit; T1 is
// execute-only and unchanged by discovery cost.
type WhatIf struct {
	// BrentNs is the projected makespan at the current worker count.
	BrentNs int64 `json:"brent_ns"`
	// ZeroDiscTInfNs is the span with discovery removed from the
	// critical path (TInf - CPDisc).
	ZeroDiscTInfNs int64 `json:"zero_disc_tinf_ns"`
	// ZeroDiscBrentNs is the projected makespan at the current worker
	// count with zero-cost discovery.
	ZeroDiscBrentNs int64 `json:"zero_disc_brent_ns"`
	// Speedup is BrentNs / ZeroDiscBrentNs: how much faster this window
	// would drain if discovery were free (>= 1).
	Speedup float64 `json:"speedup"`
	// Projections sweeps worker counts (1, 2, 4, ... up to 2x current).
	Projections []BrentRow `json:"projections"`
}

// BrentRow is one worker-count point of the projection sweep.
type BrentRow struct {
	Workers        int   `json:"workers"`
	MakespanNs     int64 `json:"makespan_ns"`
	ZeroDiscNs     int64 `json:"zero_disc_makespan_ns"`
	ParallelismCap bool  `json:"span_bound"` // true when TInf dominates T1/P
}

// brent is the Brent-bound makespan projection max(tinf, t1/p).
func brent(t1, tinf int64, p int) int64 {
	if p < 1 {
		p = 1
	}
	perWorker := t1 / int64(p)
	if tinf > perWorker {
		return tinf
	}
	return perWorker
}

// project builds the what-if block from a window's work/span numbers.
func project(t1, tinf, cpDisc int64, workers int) WhatIf {
	zeroTInf := tinf - cpDisc
	if zeroTInf < 0 {
		zeroTInf = 0
	}
	w := WhatIf{
		BrentNs:         brent(t1, tinf, workers),
		ZeroDiscTInfNs:  zeroTInf,
		ZeroDiscBrentNs: brent(t1, zeroTInf, workers),
	}
	if w.ZeroDiscBrentNs > 0 {
		w.Speedup = float64(w.BrentNs) / float64(w.ZeroDiscBrentNs)
	} else {
		w.Speedup = 1
	}
	for p := 1; p <= 2*workers; p *= 2 {
		w.Projections = append(w.Projections, BrentRow{
			Workers:        p,
			MakespanNs:     brent(t1, tinf, p),
			ZeroDiscNs:     brent(t1, zeroTInf, p),
			ParallelismCap: tinf >= t1/int64(p),
		})
	}
	return w
}

// WriteText renders the report as the human-readable form served by
// /criticalpath?format=text.
func (r *Report) WriteText(w io.Writer) {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	fmt.Fprintf(w, "window %d: %d tasks, %d workers, wall %.3f ms\n",
		r.Window, r.Tasks, r.Workers, ms(r.WallNs))
	fmt.Fprintf(w, "work   T1   = %.3f ms execute (+ %.3f ms discovery, %.3f ms ready-wait across tasks)\n",
		ms(r.T1Ns), ms(r.SumDiscNs), ms(r.SumWaitNs))
	fmt.Fprintf(w, "span   Tinf = %.3f ms  (discovery %.3f ms [%.1f%%], ready-wait %.3f ms, execute %.3f ms; %d tasks on path)\n",
		ms(r.TInfNs), ms(r.CPDiscNs), r.DiscShare*100, ms(r.CPWaitNs), ms(r.CPExecNs), r.CPLen)
	fmt.Fprintf(w, "avg parallelism T1/Tinf = %.2f\n", r.AvgParallelism)
	fmt.Fprintf(w, "what-if: makespan(P=%d) >= %.3f ms; zero-cost discovery -> %.3f ms (%.2fx)\n",
		r.Workers, ms(r.WhatIf.BrentNs), ms(r.WhatIf.ZeroDiscBrentNs), r.WhatIf.Speedup)
	for _, row := range r.WhatIf.Projections {
		bound := "work-bound"
		if row.ParallelismCap {
			bound = "span-bound"
		}
		fmt.Fprintf(w, "  P=%-4d makespan >= %10.3f ms   zero-disc >= %10.3f ms   (%s)\n",
			row.Workers, ms(row.MakespanNs), ms(row.ZeroDiscNs), bound)
	}
	if len(r.Path) > 0 {
		fmt.Fprintf(w, "critical path (root -> sink, %d of %d tasks):\n", len(r.Path), r.CPLen)
		for _, e := range r.Path {
			fmt.Fprintf(w, "  #%-8d %-24s disc %8d ns  wait %8d ns  exec %8d ns\n",
				e.ID, e.Label, e.DiscNs, e.WaitNs, e.ExecNs)
		}
	}
}
