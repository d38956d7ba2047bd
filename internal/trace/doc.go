// Package trace implements the profiler of the reproduction, modeled on
// the MPC-OMP profiler described in the paper (§2.3.1): it records task
// schedule/creation events, computes the parallel time breakdown of
// Tallent & Mellor-Crummey adapted to dependent tasks — work is time
// inside a task body, overhead is time outside a body while ready tasks
// exist, idleness is time outside a body with no ready task — and, with
// the PMPI-style extension of §4.1, communication time and overlap ratio.
//
// All timestamps are float64 seconds from an executor-supplied clock so
// the same profile works for wall-clock (internal/rt) and virtual time
// (internal/sim). The wall clock is the profile's own: Now measures from
// its Epoch, and a runtime given the profile measures its spans and
// critical-path stamps from the same epoch, so every instrument of one
// run shares one time origin.
//
// # Layout
//
// trace.go holds the Profile accumulator (worker states, task records,
// iteration marks) and the Breakdown computation; gantt.go renders the
// recorded schedule as ASCII or SVG Gantt charts; export.go serializes
// profiles as JSON for offline tooling. The Chrome trace export of the
// task records is internal/obs's WriteChrome, the one Chrome writer.
package trace
