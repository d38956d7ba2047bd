// Command hpcg runs the HPCG benchmark port (paper §4.3):
//
//	hpcg -mode serial|for|task [-nx N -ny N -nz N] [-i N] [-workers N]
//	     [-tpl N] [-sub N] [-persistent] [-ranks N]
//	hpcg -des                  # Fig. 9 sweep on the simulator
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"taskdep"
	"taskdep/apps/hpcg"
	"taskdep/experiments"
)

func main() {
	var (
		mode       = flag.String("mode", "task", "serial | for | task")
		nx         = flag.Int("nx", 16, "local grid x")
		ny         = flag.Int("ny", 16, "local grid y")
		nz         = flag.Int("nz", 16, "local grid z")
		iters      = flag.Int("i", 25, "CG iterations")
		workers    = flag.Int("workers", 4, "workers per rank")
		tpl        = flag.Int("tpl", 8, "vector blocks (TPL)")
		sub        = flag.Int("sub", 4, "SpMV sub-blocks per vector block")
		persistent = flag.Bool("persistent", false, "persistent task graph")
		ranks      = flag.Int("ranks", 1, "in-process MPI ranks")
		des        = flag.Bool("des", false, "run the Fig. 9 DES sweep")
	)
	flag.Parse()

	if *des {
		res := experiments.RunFig9(experiments.DefaultHPCG())
		res.Print(os.Stdout)
		return
	}

	run := func(comm *taskdep.Comm, rank int) {
		p := hpcg.Params{NX: *nx, NY: *ny, NZ: *nz, Iters: *iters, Ranks: *ranks, Rank: rank}
		pr, err := hpcg.New(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		r, err := taskdep.NewRuntime(taskdep.Config{Workers: *workers, Opts: taskdep.OptAll})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		t0 := time.Now()
		switch *mode {
		case "serial":
			err = pr.SerialCG()
		case "for":
			pr.RunParallelFor(r, comm)
		case "task":
			err = pr.RunTask(r, comm, hpcg.TaskConfig{TPL: *tpl, SpMVSub: *sub, Persistent: *persistent})
		default:
			fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
			os.Exit(2)
		}
		wall := time.Since(t0)
		r.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if rank == 0 {
			st := r.Graph().Stats()
			fmt.Printf("mode=%s grid=%dx%dx%d ranks=%d i=%d tpl=%d sub=%d persistent=%v\n",
				*mode, *nx, *ny, *nz, *ranks, *iters, *tpl, *sub, *persistent)
			first, last := pr.Rnorm[0], pr.Rnorm[len(pr.Rnorm)-1]
			fmt.Printf("wall=%v residual %0.3e -> %0.3e (reduction %.2e)\n", wall, first, last, first/last)
			fmt.Printf("tasks=%d replayed=%d edges=%d redirect=%d\n",
				st.Tasks, st.ReplayedTasks, st.EdgesCreated, st.RedirectNodes)
		}
	}

	if *ranks > 1 {
		w := taskdep.NewWorld(*ranks)
		w.Run(func(c *taskdep.Comm) { run(c, c.Rank()) })
	} else {
		run(nil, 0)
	}
}
