package experiments

// verifybench measures what Config.Verify costs, in the spirit of the
// paper's Table 3 (runtime overhead of discovery features): discovery
// of one LULESH iteration with and without verifier recording, plus the
// wall time of the post-hoc audit itself.

import (
	"fmt"
	"io"
	"math"
	"time"

	"taskdep/apps/lulesh"
	"taskdep/internal/graph"
	"taskdep/internal/sim"
	"taskdep/internal/verify"
)

// VerifyBenchRow is one row of the verifier-overhead report.
type VerifyBenchRow struct {
	Label     string
	Tasks     int64
	Edges     int64
	Discovery float64 // best-of-reps discovery seconds (0 for the audit row)
	Audit     float64 // audit wall seconds (audit row only)
	Findings  int
}

// RunVerifyOverhead unrolls one LULESH task iteration at the given TPL
// through the real graph layer three ways: plain discovery (OptAll),
// discovery with verifier recording (OptAll plus the pruned-edge
// materialization Verify forces on), and the full audit of the recorded
// TDG. Discovery rows report the best of a few repetitions on a fresh
// graph each time.
func RunVerifyOverhead(c IntranodeConfig, tpl int) []VerifyBenchRow {
	p := lulesh.SimParams{S: c.S, Iters: 1, TPL: tpl, MinimizeDeps: true,
		ComputePerElem: c.ComputePerElem}
	ops := lulesh.BuildSimTaskIteration(p, 0)

	const reps = 5
	discover := func(record bool) (float64, *verify.Recorder, *graph.Graph) {
		opts := graph.OptAll
		if record {
			opts |= graph.OptKeepPrunedEdges
		}
		best := math.MaxFloat64
		var bestRec *verify.Recorder
		var bestG *graph.Graph
		for r := 0; r < reps; r++ {
			d := &drainer{}
			g := graph.NewWithConfig(graph.Config{Opts: opts, OnReady: d.onReady})
			var rec *verify.Recorder
			if record {
				rec = verify.NewRecorder(opts)
			}
			t0 := time.Now()
			for _, op := range ops {
				if op.Kind != sim.OpSubmit {
					continue
				}
				t := g.Submit(op.Spec.Label, op.Spec.Deps, nil, nil)
				if rec != nil {
					rec.Record(t, op.Spec.Deps)
				}
			}
			g.Flush()
			dt := time.Since(t0).Seconds()
			d.drain(g)
			if dt < best {
				best, bestRec, bestG = dt, rec, g
			}
		}
		return best, bestRec, bestG
	}

	baseT, _, baseG := discover(false)
	instT, rec, instG := discover(true)
	rep := rec.Audit(instG.RedirectNodes())

	return []VerifyBenchRow{
		{
			Label: "discovery (OptAll)",
			Tasks: baseG.Stats().Tasks, Edges: baseG.Stats().EdgesCreated,
			Discovery: baseT,
		},
		{
			Label: "discovery + verify recording",
			Tasks: instG.Stats().Tasks, Edges: instG.Stats().EdgesCreated,
			Discovery: instT,
		},
		{
			Label: "audit (races, cycles, dedup)",
			Tasks: int64(rep.Tasks), Edges: int64(rep.Edges),
			Audit: rep.Elapsed.Seconds(), Findings: rep.NumFindings(),
		},
	}
}

// PrintVerifyOverhead writes the verifier-overhead report.
func PrintVerifyOverhead(w io.Writer, rows []VerifyBenchRow) {
	fmt.Fprintln(w, "== Verifier overhead (one LULESH iteration) ==")
	fmt.Fprintf(w, "%-30s %8s %10s %14s %12s %9s\n",
		"configuration", "tasks", "edges", "discovery(s)", "audit(s)", "findings")
	for _, r := range rows {
		disc, audit := "-", "-"
		if r.Discovery > 0 {
			disc = fmt.Sprintf("%.6f", r.Discovery)
		}
		if r.Audit > 0 {
			audit = fmt.Sprintf("%.6f", r.Audit)
		}
		fmt.Fprintf(w, "%-30s %8d %10d %14s %12s %9d\n",
			r.Label, r.Tasks, r.Edges, disc, audit, r.Findings)
	}
	if len(rows) >= 2 && rows[0].Discovery > 0 {
		fmt.Fprintf(w, "recording overhead: %.2fx discovery; the audit runs off the critical path\n",
			rows[1].Discovery/rows[0].Discovery)
	}
}
