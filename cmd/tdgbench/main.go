// Command tdgbench runs one experiment of the reproduction and prints
// its table:
//
//	tdgbench -exp NAME [-smoke] [-json FILE] [-tpl N] [-fine N] [-verify]
//
// The paper-figure modes run the LULESH dependence stream on the machine
// simulator: table1 (discovery overlapped with execution or not, -tpl
// against -fine), table2 (the optimization crossing (a)/(b)/(c)/(p) at
// -tpl; discovery times are measured wall-clock on the real graph layer,
// total execution comes from the simulator), metg (§3.3), throttle and
// policy (the §5 ablations). -verify appends the TDG-verifier overhead
// report (discovery with and without verifier recording, plus the audit).
//
// The benchmark modes measure one layer of the runtime each, at the size
// committed as BENCH_<name>.json, or with -smoke at a size for CI:
//
//	discovery  the graph layer alone on a dedup-heavy synthetic stream
//	           submitted by one producer
//	executor   the drain of a pre-submitted gate graph, workers x grain,
//	           and the METG at 50 %
//	faults     poison cones and LULESH/HPCG/Cholesky under injected
//	           faults: failed task named, cone skipped, clean close
//	obs        the grain-0 drain under obs off / metrics / spans, the
//	           disabled hook, a /metrics scrape
//	replay     persistent regions with empty bodies, adaptive and frozen:
//	           ns/task and allocations per iteration
//	cpath      the critical-path profiler: overhead, online == exact,
//	           frozen replay window, a /criticalpath scrape
//	serve      tdgserve under concurrent clients, a poison tenant and an
//	           undersized admission probe
//
// Every result validates itself (experiments.Result): what is
// deterministic on any run — counts, counter identities, allocations,
// exactness, isolation, ratios within the run — always; the budgets only
// a full-size run can meet when -smoke is not given. A failed check is
// exit status 1. -json writes the result, environment included, in the
// form of the committed files; nothing compares a run with them.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"taskdep/experiments"
)

func main() {
	var names []string
	for _, e := range experiments.Experiments {
		names = append(names, e.Name)
	}
	var (
		exp     = flag.String("exp", "table2", strings.Join(names, " | "))
		tpl     = flag.Int("tpl", 384, "tasks per loop for the paper-figure modes")
		fine    = flag.Int("fine", 3072, "fine-grain TPL for table1")
		verify  = flag.Bool("verify", false, "also report TDG-verifier overhead (recording + audit)")
		smoke   = flag.Bool("smoke", false, "benchmark modes: small CI-sized workload, full-size budgets not asked")
		jsonOut = flag.String("json", "", "benchmark modes: write the machine-readable result to this file")
	)
	flag.Parse()
	for _, e := range experiments.Experiments {
		if e.Name == *exp {
			err := run(e, experiments.Options{Smoke: *smoke, TPL: *tpl, Fine: *fine}, *jsonOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", e.Name, err)
				os.Exit(1)
			}
			if *verify {
				rows := experiments.RunVerifyOverhead(experiments.DefaultIntranode(), *tpl)
				experiments.PrintVerifyOverhead(os.Stdout, rows)
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "unknown experiment %q (want %s)\n", *exp, strings.Join(names, ", "))
	os.Exit(2)
}

// run executes one experiment, prints it, holds it to its checks and
// writes it out when asked.
func run(e experiments.Experiment, o experiments.Options, jsonPath string) error {
	res, err := e.Run(o)
	if err != nil {
		return err
	}
	res.Print(os.Stdout)
	if err := res.Validate(); err != nil {
		return err
	}
	if full, ok := res.(experiments.FullResult); ok && !o.Smoke {
		if err := full.ValidateFull(); err != nil {
			return err
		}
	}
	if jsonPath == "" {
		return nil
	}
	f, err := os.Create(jsonPath)
	if err != nil {
		return err
	}
	if err := experiments.WriteJSON(f, res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
