// Command cholesky runs the tiled Cholesky factorization (paper §4.4):
//
//	cholesky [-t tiles] [-b block] [-workers N] [-iters N]
//	         [-persistent] [-ranks N] [-verify]
//
// With -iters > 1 it reproduces the paper's repeated-decomposition
// experiment comparing plain and persistent graph discovery.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"taskdep"
	"taskdep/apps/cholesky"
	"taskdep/experiments"
)

func main() {
	var (
		tiles      = flag.Int("t", 8, "tile rows/cols")
		block      = flag.Int("b", 64, "tile size")
		workers    = flag.Int("workers", 4, "workers per rank")
		iters      = flag.Int("iters", 1, "number of factorizations")
		persistent = flag.Bool("persistent", false, "persistent task graph")
		ranks      = flag.Int("ranks", 1, "in-process MPI ranks (tile-column cyclic)")
		verify     = flag.Bool("verify", true, "verify L*L^T against A")
		report     = flag.Bool("report", false, "run the §4.4 persistent-vs-plain report")
	)
	flag.Parse()

	if *report {
		res, err := experiments.RunCholesky(*tiles, *block, maxInt(*iters, 4), *workers)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res.Print(os.Stdout)
		return
	}

	a0 := cholesky.NewSPD(*tiles, *block)

	if *ranks > 1 {
		w := taskdep.NewWorld(*ranks)
		t0 := time.Now()
		w.Run(func(c *taskdep.Comm) {
			dm := cholesky.NewDistSPD(*tiles, *block, *ranks, c.Rank())
			r, err := taskdep.NewRuntime(taskdep.Config{Workers: *workers, Opts: taskdep.OptAll})
			if err == nil {
				err = cholesky.TaskFactorDist(dm, r, c)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			r.Close()
		})
		fmt.Printf("distributed factorization: t=%d b=%d ranks=%d wall=%v\n",
			*tiles, *block, *ranks, time.Since(t0))
		return
	}

	r, err := taskdep.NewRuntime(taskdep.Config{Workers: *workers, Opts: taskdep.OptAll})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	t0 := time.Now()
	got, err := cholesky.TaskFactorRepeated(a0, r, cholesky.RepeatedConfig{Iters: *iters, Persistent: *persistent})
	wall := time.Since(t0)
	st := r.Graph().Stats()
	r.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *verify {
		if err := cholesky.Verify(a0, got, 1e-9); err != nil {
			fmt.Fprintln(os.Stderr, "VERIFY FAILED:", err)
			os.Exit(1)
		}
	}
	fmt.Printf("t=%d b=%d n=%d iters=%d persistent=%v wall=%v verified=%v\n",
		*tiles, *block, *tiles**block, *iters, *persistent, wall, *verify)
	fmt.Printf("tasks=%d replayed=%d edges=%d\n", st.Tasks, st.ReplayedTasks, st.EdgesCreated)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
