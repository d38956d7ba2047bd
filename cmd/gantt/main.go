// Command gantt reproduces Fig. 8: Gantt charts of the distributed
// task-based execution on the profiled rank, with and without the TDG
// optimizations (the persistent version shows the per-iteration barrier
// as vertical alignment).
//
//	gantt [-tpl N] [-width N] [-svg out.svg] [-chrome prefix]
//
// -cp switches to the critical-path overlay: one tiled-Cholesky sweep
// on the real runtime with the online critical-path profiler attached,
// rendering the span-defining task chain over the worker timeline ('#'
// boxes in ASCII, red outline in SVG, red "terrible" color in the
// Chrome/Perfetto export) plus the window's phase split and what-if
// projections.
//
//	gantt -cp [-cptiles N] [-cpworkers N] [-cpgrain D] [-svg prefix] [-chrome prefix]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"taskdep"
	"taskdep/experiments"
)

func main() {
	var (
		tpl    = flag.Int("tpl", 128, "tasks per loop")
		width  = flag.Int("width", 120, "ASCII chart width")
		svg    = flag.String("svg", "", "also write SVG charts to this prefix (…-opt.svg, …-non.svg)")
		chrome = flag.String("chrome", "", "also write Chrome trace JSON (Perfetto-loadable) to this prefix (…-opt.json, …-non.json)")

		cp        = flag.Bool("cp", false, "render the real runtime's critical-path overlay instead of Fig. 8")
		cpTiles   = flag.Int("cptiles", 10, "-cp: Cholesky tile count")
		cpWorkers = flag.Int("cpworkers", 4, "-cp: worker count")
		cpGrain   = flag.Duration("cpgrain", 20*time.Microsecond, "-cp: per-task busy-spin (box width)")
	)
	flag.Parse()

	if *cp {
		res, err := experiments.RunCPathGantt(*cpTiles, *cpWorkers, *cpGrain)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("== Critical path: cholesky %dx%d tiles, %d workers, grain %v (%d of %d tasks on the path) ==\n",
			*cpTiles, *cpTiles, *cpWorkers, *cpGrain, res.Marked, len(res.Records))
		g := &taskdep.Gantt{Tasks: res.Records}
		if err := g.WriteASCII(os.Stdout, *width); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println()
		res.Report.WriteText(os.Stdout)
		if *svg != "" {
			out := *svg + "-cp.svg"
			f, err := os.Create(out)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			if err := g.WriteSVG(f, 1200, 14); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", out)
		}
		if *chrome != "" {
			out := *chrome + "-cp.json"
			f, err := os.Create(out)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			if err := taskdep.WriteChrome(f, res.Records, nil); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s (load in ui.perfetto.dev; critical tasks are red)\n", out)
		}
		return
	}

	c := experiments.DefaultDistributed()
	res := experiments.RunFig8(c, *tpl)

	render := func(label string, recs []taskdep.TaskRecord, suffix, jsonSuffix string) {
		fmt.Printf("== Fig 8: rank %d — %s ==\n", c.ProfiledRank, label)
		g := &taskdep.Gantt{Tasks: recs}
		if err := g.WriteASCII(os.Stdout, *width); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *svg != "" {
			f, err := os.Create(*svg + suffix)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			if err := g.WriteSVG(f, 1200, 14); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s%s\n", *svg, suffix)
		}
		if *chrome != "" {
			out := *chrome + jsonSuffix
			f, err := os.Create(out)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			if err := taskdep.WriteChrome(f, recs, nil); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s (load in ui.perfetto.dev)\n", out)
		}
	}
	render("TDG optimizations enabled (persistent)", res.Optimized, "-opt.svg", "-opt.json")
	render("TDG optimizations disabled", res.NonOptimized, "-non.svg", "-non.json")
}
