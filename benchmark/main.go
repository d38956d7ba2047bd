// Command benchmark measures the whole stack, end to end and layer by
// layer, on six workloads. See README.md in this directory.
//
//	run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	    one run of one workload; the last line of standard output is
//	    one JSON object (the contract BENCHMARK.json describes)
//	run.sh [-seed n] [-seconds s] [-runs n] [-notrace] [-smoke]
//	    every workload, each run in a fresh child process, untraced then
//	    traced at a quarter of the time; prints every metric and writes
//	    out/result.json
//	run.sh -compare a.json b.json
//	    compares two result files metric by metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// wireMetric and wireResult are the last-line JSON of a single run.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

func tracePath(cfg runConfig) string {
	return filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
}

func runWorkload(cfg runConfig) (*report, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	var rep *report
	var err error
	switch {
	case newApp(cfg.workload, fullSizes) != nil:
		rep, err = runApp(cfg)
	case serveKinds[cfg.workload].gen != nil:
		rep, err = runServe(cfg)
	default:
		err = fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, err
	}
	rep.Dists["machine_slowdown"] = summarize(slowdowns)
	return rep, nil
}

// wire renders the report as the contract's result object: exactly the
// end-to-end metrics of an untraced run, exactly the per-layer metrics
// of a traced one.
func (r *report) wire() (wireResult, error) {
	decls, values := endToEndMetrics, r.EndToEnd
	if r.Trace {
		decls, values = perLayerMetrics, r.PerLayer
	}
	out := wireResult{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]wireMetric, len(decls))}
	for _, d := range decls {
		v, ok := values[d.Name]
		if !ok {
			return out, fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
		}
		out.Metrics[d.Name] = wireMetric{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// printReport lists everything a run measured, by name, with units.
func printReport(r *report) {
	fmt.Printf("== %s  seed=%d  seconds=%g  trace=%v  units timed=%d  attempted=%d  failed=%d ==\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.K, r.Attempted, r.Failed)
	if r.FirstErr != "" {
		fmt.Printf("first failure: %s\n", r.FirstErr)
	}
	if d, ok := r.Dists["machine_slowdown"]; ok {
		fmt.Printf("machine slowdown against the calibration reference: median %.3f  q1=%.3f q3=%.3f  n=%d\n", d.Median, d.Q1, d.Q3, d.N)
	}
	for _, set := range []map[string]float64{r.EndToEnd, r.PerLayer, r.Ledger} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			line := fmt.Sprintf("%-34s %16.6g %-6s", n, set[n], unitOf(n))
			if d, ok := r.Dists[n]; ok {
				line += fmt.Sprintf("  n=%d q1=%.6g q3=%.6g", d.N, d.Q1, d.Q3)
			}
			fmt.Println(line)
		}
	}
	if len(r.Spans) > 0 {
		fmt.Printf("span self time (s), trace in out/trace-%s.json:", r.Workload)
		names := make([]string, 0, len(r.Spans))
		for n := range r.Spans {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %s=%.4f", n, r.Spans[n])
		}
		fmt.Println()
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print the contract's result line")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 10, "measured seconds per run")
		trace    = flag.String("trace", "", "single run: 0 or 1; suite: traced runs are on unless -notrace")
		noTrace  = flag.Bool("notrace", false, "suite: skip the traced runs")
		runs     = flag.Int("runs", 1, "suite: untraced runs per workload")
		smoke    = flag.Bool("smoke", false, "small problem sizes (seconds of total run time)")
		outDir   = flag.String("out", "out", "directory for traces, ledgers and result.json")
		detail   = flag.String("detail", "", "single run: also write the full report to this file")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
	case *workload != "":
		cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds,
			trace: *trace == "1" || *trace == "true", smoke: *smoke, outDir: *outDir}
		rep, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		printReport(rep)
		if *detail != "" {
			data, _ := json.MarshalIndent(rep, "", " ") // plain numbers and strings: cannot fail
			if err := os.WriteFile(*detail, data, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(1)
			}
		}
		res, err := rep.wire()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		line, _ := json.Marshal(res) // plain numbers and strings: cannot fail
		fmt.Println(string(line))
		if rep.Failed > 0 {
			os.Exit(1)
		}
	default:
		ok, err := runSuite(suiteConfig{seed: *seed, seconds: *seconds, runs: *runs,
			trace: !*noTrace, smoke: *smoke, outDir: *outDir})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
	}
}
