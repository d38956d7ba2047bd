// Command tdgbench reproduces the paper's discovery-optimization
// crossing (Table 2) plus Table 1, the METG report and the
// discovery-throughput benchmark:
//
//	tdgbench -exp table1|table2|metg|discovery [-tpl N] [-verify]
//
// -verify appends a TDG-verifier overhead report (discovery with and
// without verifier recording, plus the audit wall time) in the spirit
// of the paper's runtime-overhead measurements.
//
// Table 2's discovery times are genuinely measured wall-clock on the
// real graph layer; total execution comes from the machine simulator.
//
// -exp discovery measures the graph layer alone on a dedup-heavy
// synthetic workload, baseline engine (one stripe, no pooling,
// per-task Submit) vs optimized (striped, pooled, batched), single-
// and multi-producer. -json writes the machine-readable result (the
// format committed as BENCH_discovery.json); -check FILE compares the
// fresh run against a committed baseline and exits nonzero on schema
// mismatch or a throughput regression beyond -maxregress.
//
// -exp executor measures the execution hot path alone: a pre-submitted
// gate graph is drained by the worker pool, sweeping worker count and
// task grain and reporting the METG@50%. -json/-check/
// -maxregress/-smoke work as in discovery mode (committed baseline:
// BENCH_executor.json).
//
// -exp obs measures the observability layer itself: the grain-0
// executor drain under obs off / metrics / metrics+spans, plus a
// microbenchmark of the disabled per-task hook sequence and a live
// /metrics completeness scrape. -check gates the disabled-hook cost as
// a share of the same run's off-mode task (<= 10%, fresh and committed)
// and the committed enabled overhead (<= 10%) against BENCH_obs.json.
//
// -exp replay measures persistent-region replay: tiled-Cholesky and
// LULESH-like iteration loops with empty bodies under adaptive (the
// body re-run against the compiled schedule) and frozen-compiled
// replay, reporting steady-state ns/task and allocations per iteration.
// -check validates the fresh run and BENCH_replay.json and gates the
// allocation count of every row (0/task) in each; the speedup is
// reported, not gated.
//
// -exp faults drives the failure-domain subsystem: a synthetic
// poison-cone graph plus LULESH/HPCG/Cholesky under deterministic
// fault injection, checking that the failed task is
// named, its cone is skipped, disjoint work completes, the runtime
// closes cleanly and no goroutines leak. -check validates invariants
// and coverage against BENCH_faults.json; there is no timing gate.
//
// -exp tune measures the self-tuning scheduler against three
// pathological graph shapes (fine-grain chains, a tight throttle
// window, serial/burst starvation waves), each under the untuned
// defaults, a hand-tuned actuator setting and the closed control loop
// (Config.Tune). -check gates the committed per-pathology recovery
// (adaptive >= 80% of hand-tuned throughput), proof the loop actuated,
// and the fusion fast path's allocation count (0/task, fresh and
// committed) against BENCH_tune.json.
//
// -exp cpath measures the online critical-path profiler: the grain-0
// drain with the profiler off vs on (overhead), the online fold vs the
// offline exact longest path on Cholesky/LULESH/wavefront graphs
// (nanosecond agreement, closed-form path length on the wavefront),
// the frozen compiled-replay window (one iteration, zero discovery on
// the critical path) and a live /criticalpath scrape. -check gates the
// committed enabled overhead (<= 10%) against BENCH_cpath.json; the
// exactness and replay invariants are re-proven fresh on every run.
//
// -exp serve load-tests the graph-as-a-service front end (cmd/
// tdgserve, internal/serve): an in-process endpoint under ~1000
// concurrent submitting clients across the tenant pool, with a poison
// tenant failing continuously and an undersized admission probe.
// -check re-proves tenant isolation, zero load-phase 429s and the
// probe's rejections fresh, and gates the committed throughput floor
// and fresh-vs-committed regression against BENCH_serve.json.
package main

import (
	"flag"
	"fmt"
	"os"

	"taskdep/experiments"
)

// runDiscovery executes the discovery-throughput mode; returns the
// process exit code.
func runDiscovery(smoke bool, tasks, keys, producers int, jsonPath, checkPath string, maxRegress float64) int {
	p := experiments.DefaultDiscoveryParams()
	if smoke {
		p = experiments.SmokeDiscoveryParams()
	}
	if tasks > 0 {
		p.Tasks = tasks
	}
	if keys > 0 {
		p.Keys = keys
	}
	if producers > 0 {
		p.Producers = producers
	}
	res := experiments.RunDiscovery(p)
	experiments.PrintDiscovery(os.Stdout, &res)
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := res.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if checkPath != "" {
		data, err := os.ReadFile(checkPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		committed, err := experiments.ReadDiscoveryJSON(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parse %s: %v\n", checkPath, err)
			return 1
		}
		if err := experiments.CheckDiscovery(&res, committed, maxRegress); err != nil {
			fmt.Fprintf(os.Stderr, "discovery regression check FAILED: %v\n", err)
			return 1
		}
		fmt.Printf("discovery regression check OK (within %.1fx of %s)\n", maxRegress, checkPath)
	}
	return 0
}

// runExecutor executes the executor-throughput mode; returns the
// process exit code.
func runExecutor(smoke bool, jsonPath, checkPath string, maxRegress float64) int {
	p := experiments.DefaultExecutorParams()
	if smoke {
		p = experiments.SmokeExecutorParams()
	}
	res := experiments.RunExecutor(p)
	experiments.PrintExecutor(os.Stdout, &res)
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := res.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if checkPath != "" {
		data, err := os.ReadFile(checkPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		committed, err := experiments.ReadExecutorJSON(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parse %s: %v\n", checkPath, err)
			return 1
		}
		if err := experiments.CheckExecutor(&res, committed, maxRegress); err != nil {
			fmt.Fprintf(os.Stderr, "executor regression check FAILED: %v\n", err)
			return 1
		}
		fmt.Printf("executor regression check OK (within %.1fx of %s)\n", maxRegress, checkPath)
	}
	return 0
}

// runFaults executes the fault-injection mode; returns the process
// exit code. There is no -maxregress: the check validates failure-
// domain invariants and coverage, never timing.
func runFaults(smoke bool, jsonPath, checkPath string) int {
	p := experiments.DefaultFaultParams()
	if smoke {
		p = experiments.SmokeFaultParams()
	}
	res, err := experiments.RunFaults(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fault-injection invariant FAILED: %v\n", err)
		return 1
	}
	experiments.PrintFaults(os.Stdout, &res)
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := res.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if checkPath != "" {
		data, err := os.ReadFile(checkPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		committed, err := experiments.ReadFaultsJSON(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parse %s: %v\n", checkPath, err)
			return 1
		}
		if err := experiments.CheckFaults(&res, committed); err != nil {
			fmt.Fprintf(os.Stderr, "fault-injection check FAILED: %v\n", err)
			return 1
		}
		fmt.Printf("fault-injection check OK (invariants + coverage vs %s)\n", checkPath)
	}
	return 0
}

// runObs executes the observability-overhead mode; returns the process
// exit code. The -check gate holds the disabled hook under 10% of the
// run's own off-mode task and the committed enabled overhead under 10%.
func runObs(smoke bool, jsonPath, checkPath string) int {
	p := experiments.DefaultObsParams()
	if smoke {
		p = experiments.SmokeObsParams()
	}
	res, err := experiments.RunObs(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "obs benchmark FAILED: %v\n", err)
		return 1
	}
	experiments.PrintObs(os.Stdout, &res)
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := res.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if checkPath != "" {
		data, err := os.ReadFile(checkPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		committed, err := experiments.ReadObsJSON(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parse %s: %v\n", checkPath, err)
			return 1
		}
		if err := experiments.CheckObs(&res, committed, 10.0, 10.0); err != nil {
			fmt.Fprintf(os.Stderr, "obs overhead check FAILED: %v\n", err)
			return 1
		}
		fmt.Printf("obs overhead check OK (disabled hook <= 10%% of an off-mode task, committed overhead <= 10%% vs %s)\n", checkPath)
	}
	return 0
}

// runReplay executes the persistent-replay mode; returns the process
// exit code. The -check gate holds both rows that run off a compiled
// schedule (adaptive, frozen-compiled) at 0 allocs/task, fresh and
// committed.
func runReplay(smoke bool, jsonPath, checkPath string) int {
	p := experiments.DefaultReplayParams()
	if smoke {
		p = experiments.SmokeReplayParams()
	}
	res, err := experiments.RunReplay(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "replay benchmark FAILED: %v\n", err)
		return 1
	}
	experiments.PrintReplay(os.Stdout, &res)
	if !smoke {
		// A full-size run differences milliseconds: its timings must be
		// positive. A smoke run's are reported only.
		if err := res.ValidateTimings(); err != nil {
			fmt.Fprintf(os.Stderr, "replay benchmark FAILED: %v\n", err)
			return 1
		}
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := res.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if checkPath != "" {
		data, err := os.ReadFile(checkPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		committed, err := experiments.ReadReplayJSON(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parse %s: %v\n", checkPath, err)
			return 1
		}
		if err := experiments.CheckReplay(&res, committed, 0.01); err != nil {
			fmt.Fprintf(os.Stderr, "replay check FAILED: %v\n", err)
			return 1
		}
		fmt.Printf("replay check OK (adaptive and frozen-compiled 0 allocs/task, fresh and in %s)\n", checkPath)
	}
	return 0
}

// runTune executes the self-tuning scheduler mode; returns the process
// exit code. The -check gate holds the committed closed-loop recovery
// at >= 80% of hand-tuned throughput per pathology and the fusion fast
// path at 0 allocs/task (fresh and committed).
func runTune(smoke bool, jsonPath, checkPath string) int {
	p := experiments.DefaultTuneParams()
	if smoke {
		p = experiments.SmokeTuneParams()
	}
	res, err := experiments.RunTune(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tune benchmark FAILED: %v\n", err)
		return 1
	}
	experiments.PrintTune(os.Stdout, &res)
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := res.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if checkPath != "" {
		data, err := os.ReadFile(checkPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		committed, err := experiments.ReadTuneJSON(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parse %s: %v\n", checkPath, err)
			return 1
		}
		if err := experiments.CheckTune(&res, committed, 0.80, 0.01); err != nil {
			fmt.Fprintf(os.Stderr, "tune check FAILED: %v\n", err)
			return 1
		}
		fmt.Printf("tune check OK (committed adaptive >= 80%% of hand-tuned per pathology, fusion 0 allocs/task vs %s)\n", checkPath)
	}
	return 0
}

// runCPath executes the critical-path profiler mode; returns the
// process exit code. The -check gate holds the committed enabled
// overhead under 10%; online-vs-exact agreement, the replay
// discovery-free invariant and the endpoint scrape are part of
// Validate and therefore re-proven fresh.
func runCPath(smoke bool, jsonPath, checkPath string) int {
	p := experiments.DefaultCPathParams()
	if smoke {
		p = experiments.SmokeCPathParams()
	}
	res, err := experiments.RunCPath(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cpath benchmark FAILED: %v\n", err)
		return 1
	}
	experiments.PrintCPath(os.Stdout, &res)
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := res.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if checkPath != "" {
		data, err := os.ReadFile(checkPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		committed, err := experiments.ReadCPathJSON(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parse %s: %v\n", checkPath, err)
			return 1
		}
		if err := experiments.CheckCPath(&res, committed, 10.0); err != nil {
			fmt.Fprintf(os.Stderr, "cpath check FAILED: %v\n", err)
			return 1
		}
		fmt.Printf("cpath check OK (online == exact fresh, committed overhead <= 10%% vs %s)\n", checkPath)
	}
	return 0
}

func runServe(smoke bool, jsonPath, checkPath string, maxRegress float64) int {
	p := experiments.DefaultServeParams()
	if smoke {
		p = experiments.SmokeServeParams()
	}
	res, err := experiments.RunServe(p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve benchmark FAILED: %v\n", err)
		return 1
	}
	experiments.PrintServe(os.Stdout, &res)
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := res.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if checkPath != "" {
		data, err := os.ReadFile(checkPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		committed, err := experiments.ReadServeJSON(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parse %s: %v\n", checkPath, err)
			return 1
		}
		if err := experiments.CheckServe(&res, committed, 100, maxRegress); err != nil {
			fmt.Fprintf(os.Stderr, "serve check FAILED: %v\n", err)
			return 1
		}
		fmt.Printf("serve check OK (isolation + admission re-proven, committed >= 100 graphs/s, regress <= %.1fx vs %s)\n", maxRegress, checkPath)
	}
	return 0
}

func main() {
	var (
		exp    = flag.String("exp", "table2", "table1 | table2 | metg | throttle | policy | discovery | executor | faults | obs | replay | tune | cpath | serve")
		tpl    = flag.Int("tpl", 384, "tasks per loop for table1/table2")
		fine   = flag.Int("fine", 3072, "fine-grain TPL for table1")
		verify = flag.Bool("verify", false, "also report TDG-verifier overhead (recording + audit)")

		// discovery/executor modes
		smoke      = flag.Bool("smoke", false, "discovery/executor: small CI-sized workload")
		tasks      = flag.Int("tasks", 0, "discovery: tasks per producer (0 = preset)")
		keys       = flag.Int("keys", 0, "discovery: working-set keys (0 = preset)")
		producers  = flag.Int("producers", 0, "discovery: concurrent producers (0 = preset)")
		jsonOut    = flag.String("json", "", "discovery/executor: write machine-readable result to this file")
		check      = flag.String("check", "", "discovery/executor: compare against a committed baseline JSON")
		maxRegress = flag.Float64("maxregress", 2.0, "discovery/executor: max tolerated throughput regression factor for -check")
	)
	flag.Parse()
	c := experiments.DefaultIntranode()

	switch *exp {
	case "discovery":
		os.Exit(runDiscovery(*smoke, *tasks, *keys, *producers, *jsonOut, *check, *maxRegress))
	case "executor":
		os.Exit(runExecutor(*smoke, *jsonOut, *check, *maxRegress))
	case "faults":
		os.Exit(runFaults(*smoke, *jsonOut, *check))
	case "obs":
		os.Exit(runObs(*smoke, *jsonOut, *check))
	case "replay":
		os.Exit(runReplay(*smoke, *jsonOut, *check))
	case "tune":
		os.Exit(runTune(*smoke, *jsonOut, *check))
	case "cpath":
		os.Exit(runCPath(*smoke, *jsonOut, *check))
	case "serve":
		os.Exit(runServe(*smoke, *jsonOut, *check, *maxRegress))
	case "table1":
		res := experiments.RunTable1(c, *tpl, *fine)
		res.Print(os.Stdout)
	case "table2":
		rows := experiments.RunTable2(c, *tpl)
		experiments.PrintTable2(os.Stdout, rows)
	case "throttle":
		rows := experiments.RunThrottleAblation(c, *tpl)
		experiments.PrintThrottleAblation(os.Stdout, rows)
	case "policy":
		rows := experiments.RunPolicyAblation(c, *tpl)
		experiments.PrintPolicyAblation(os.Stdout, rows)
	case "metg":
		res, err := experiments.RunMETG(c)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("== METG report (§3.3) ==")
		for _, s := range res.Samples {
			fmt.Printf("grain %8.1f us -> wall %.3f s\n", s.Grain*1e6, s.Wall)
		}
		fmt.Printf("METG(95%%) = %.1f us\n", res.METG95*1e6)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	if *verify {
		rows := experiments.RunVerifyOverhead(c, *tpl)
		experiments.PrintVerifyOverhead(os.Stdout, rows)
	}
}
