// Command lulesh runs the LULESH proxy application — the paper's main
// case study — in any of its forms:
//
//	lulesh -mode serial|for|task [-s N] [-i N] [-workers N] [-tpl N]
//	       [-persistent] [-minimize] [-ranks N]
//	lulesh -des [-sweep] ...       # discrete-event forms (figures)
//
// With -ranks > 1 the run is distributed over in-process MPI ranks (1-D
// slab decomposition) and validated shapes match the single-rank run.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"taskdep"
	"taskdep/apps/lulesh"
	"taskdep/experiments"
)

func main() {
	var (
		mode       = flag.String("mode", "task", "serial | for | task")
		s          = flag.Int("s", 16, "local mesh edge size")
		iters      = flag.Int("i", 8, "time-step iterations")
		workers    = flag.Int("workers", 4, "worker goroutines per rank")
		tpl        = flag.Int("tpl", 16, "tasks per loop")
		persistent = flag.Bool("persistent", false, "use the persistent task graph (p)")
		minimize   = flag.Bool("minimize", true, "apply optimization (a) to dependences")
		ranks      = flag.Int("ranks", 1, "in-process MPI ranks (z slabs)")
		des        = flag.Bool("des", false, "run the discrete-event simulator instead")
		sweep      = flag.Bool("sweep", false, "with -des: sweep TPL (Fig 1/2/6)")
		optimized  = flag.Bool("optimized", true, "with -des: enable discovery optimizations")
		dist       = flag.Bool("dist", false, "with -des: distributed 27-rank sweep (Fig 7) and taskwait cost (§4.1)")
		jsonOut    = flag.String("json", "", "write rank 0's profile snapshot (JSON) to this file")
	)
	flag.Parse()

	if *des && *dist {
		c := experiments.DefaultDistributed()
		for _, opt := range []bool{true, false} {
			res := experiments.RunFig7(c, opt)
			res.Print(os.Stdout)
		}
		tw := experiments.RunTaskwaitCost(c, 256)
		fmt.Printf("§4.1 taskwait around comms: %.4fs vs %.4fs fine integration (+%.1f%%)\n",
			tw.WithTaskwait, tw.NoTaskwait, 100*(tw.WithTaskwait-tw.NoTaskwait)/tw.NoTaskwait)
		return
	}
	if *des {
		c := experiments.DefaultIntranode()
		if *sweep {
			res := experiments.RunFig1(c, *optimized)
			title := "Fig 1/2: intra-node LULESH (baseline discovery)"
			if *optimized {
				title = "Fig 6: intra-node LULESH (optimizations enabled)"
			}
			res.Print(os.Stdout, title)
			return
		}
		res := experiments.RunFig1(experiments.IntranodeConfig{
			S: c.S, Iters: c.Iters, Cores: c.Cores, TPLs: []int{*tpl},
			ComputePerElem: c.ComputePerElem,
		}, *optimized)
		res.Print(os.Stdout, "intra-node LULESH (single TPL)")
		return
	}

	run := func(comm *taskdep.Comm, rank int) {
		p := lulesh.Params{S: *s, Iters: *iters, Ranks: *ranks, Rank: rank}
		d, err := lulesh.NewDomain(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		prof := taskdep.NewProfile(*workers+1, *jsonOut != "")
		r, err := taskdep.NewRuntime(taskdep.Config{Workers: *workers, Opts: taskdep.OptAll, Profile: prof})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		t0 := time.Now()
		switch *mode {
		case "serial":
			for it := 0; it < *iters; it++ {
				d.Step()
			}
		case "for":
			lulesh.RunParallelFor(d, r, comm)
		case "task":
			if err := lulesh.RunTask(d, r, comm, lulesh.TaskConfig{
				TPL: *tpl, Persistent: *persistent, MinimizeDeps: *minimize,
			}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		default:
			fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
			os.Exit(2)
		}
		wall := time.Since(t0)
		r.Close()
		if rank == 0 {
			st := r.Graph().Stats()
			b := prof.Breakdown()
			fmt.Printf("mode=%s s=%d i=%d ranks=%d workers=%d tpl=%d persistent=%v\n",
				*mode, *s, *iters, *ranks, *workers, *tpl, *persistent)
			fmt.Printf("wall=%v cycles=%d dt=%.3e energy=%.6e checksum=%.6e\n",
				wall, d.Cycle, d.Dt, d.TotalEnergy(), d.Checksum())
			fmt.Printf("tasks=%d replayed=%d edges=%d pruned=%d dup=%d discovery=%.4fs\n",
				st.Tasks, st.ReplayedTasks, st.EdgesCreated, st.EdgesPruned, st.EdgesDuplicate, b.Discovery)
			if *jsonOut != "" {
				f, err := os.Create(*jsonOut)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				defer f.Close()
				if err := prof.WriteJSON(f, true); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fmt.Printf("profile written to %s\n", *jsonOut)
			}
		}
	}

	if *ranks > 1 {
		w := taskdep.NewWorld(*ranks)
		w.Run(func(c *taskdep.Comm) { run(c, c.Rank()) })
	} else {
		run(nil, 0)
	}
}
