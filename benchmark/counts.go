package main

import (
	"runtime"

	"taskdep/internal/graph"
	"taskdep/internal/obs"
	"taskdep/internal/rt"
)

// layerCounts is what the layers' exported counters say after a phase:
// graph.Stats and the metrics registry, summed over the runtimes that
// took part.
type layerCounts struct {
	stats graph.Stats
	ctr   [obs.NumCounters]int64
}

func (c *layerCounts) add(o layerCounts) {
	s, a := &c.stats, o.stats
	s.Tasks += a.Tasks
	s.RedirectNodes += a.RedirectNodes
	s.EdgesAttempted += a.EdgesAttempted
	s.EdgesCreated += a.EdgesCreated
	s.EdgesPruned += a.EdgesPruned
	s.EdgesDuplicate += a.EdgesDuplicate
	s.ReplayedTasks += a.ReplayedTasks
	for i := range o.ctr {
		c.ctr[i] += o.ctr[i]
	}
}

func (c *layerCounts) addRuntime(r *rt.Runtime) {
	c.add(layerCounts{stats: r.Graph().Stats(), ctr: r.Obs().Counters()})
}

// taskExecutions is the executor's counter without the redirect nodes:
// graph bookkeeping with no body that passes through the executor, once
// when discovered and once per replay of the recording it is in.
func (c layerCounts) taskExecutions() int64 {
	s := c.stats
	redirects := s.RedirectNodes
	if s.Tasks > 0 {
		redirects += s.ReplayedTasks * s.RedirectNodes / s.Tasks
	}
	return c.ctr[obs.CTasksExecuted] - redirects
}

// into writes the per-layer entries that are read off the counters;
// units is how many solves or graphs the counters cover.
func (c layerCounts) into(pl map[string]float64, units float64) {
	s := c.stats
	ktasks := float64(c.taskExecutions()) / 1e3
	perKtask := func(ctr obs.Counter) float64 { return ratio(float64(c.ctr[ctr]), ktasks) }
	pl["graph.edges_per_task"] = ratio(float64(s.EdgesCreated), float64(s.Tasks))
	pl["graph.dedup_share"] = ratio(float64(s.EdgesDuplicate), float64(s.EdgesAttempted))
	pl["graph.pruned_share"] = ratio(float64(s.EdgesPruned), float64(s.EdgesAttempted))
	pl["graph.redirect_nodes"] = ratio(float64(s.RedirectNodes), units)
	pl["graph.replayed_share"] = ratio(float64(s.ReplayedTasks), float64(s.Tasks+s.ReplayedTasks))
	pl["sched.steals_per_ktask"] = perKtask(obs.CDequeSteal)
	pl["sched.steal_fails_per_ktask"] = perKtask(obs.CDequeStealFail)
	pl["sched.parks_per_ktask"] = perKtask(obs.CParks)
	pl["sched.wakes_per_ktask"] = perKtask(obs.CWakes)
	pl["rt.throttle_stalls_per_ktask"] = perKtask(obs.CThrottleStalls)
	pl["rt.fused_per_ktask"] = perKtask(obs.CTasksFused)
	pl["rt.compiled_iterations"] = ratio(float64(c.ctr[obs.CReplayCompiled]), units)
	pl["mpi.sends_per_solve"] = ratio(float64(c.ctr[obs.CMPISends]), units)
	pl["mpi.collectives_per_solve"] = ratio(float64(c.ctr[obs.CMPICollectives]), units)
	pl["mpi.bytes_per_solve"] = ratio(float64(c.ctr[obs.CMPIBytesSent]), units)
}

// gcTally accumulates runtime.MemStats deltas over the stretches it is
// asked to watch. Process-wide: whatever else allocates meanwhile (a
// forced collection, the serve client's decoding) is in it.
type gcTally struct{ mallocs, bytes, cycles, pauseNs uint64 }

func (g *gcTally) during(f func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	g.mallocs += m1.Mallocs - m0.Mallocs
	g.bytes += m1.TotalAlloc - m0.TotalAlloc
	g.cycles += uint64(m1.NumGC - m0.NumGC)
	g.pauseNs += m1.PauseTotalNs - m0.PauseTotalNs
}

func (g gcTally) into(pl map[string]float64, tasks float64) {
	pl["rt.allocs_per_task"] = ratio(float64(g.mallocs), tasks)
	pl["rt.alloc_bytes_per_task"] = ratio(float64(g.bytes), tasks)
	pl["rt.gc_cycles"] = float64(g.cycles)
	pl["rt.gc_pause_ms"] = float64(g.pauseNs) / 1e6
}
