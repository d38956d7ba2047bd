// Fault-injection experiment (`tdgbench -exp faults`): drives the
// failure-domain subsystem end to end and checks its invariants under
// deterministic fault injection.
//
// Two layers:
//
//  1. A synthetic poison-cone graph — two disjoint dependence chains,
//     the head of one fails — proving the deterministic contract
//     exactly: every task in the failed cone is skipped without
//     running, every task outside it completes, Taskwait names the
//     failed task, and Close drains cleanly.
//
//  2. The three paper applications (LULESH, HPCG, Cholesky) run small
//     under fault.Inject in both panic and error modes: the driver
//     must surface a *fault.TaskError naming a task, the runtime must
//     close cleanly afterwards, and the process must not leak
//     goroutines.
//
// A recover-overhead microbenchmark quantifies what the panic fence
// around every task body costs (EXPERIMENTS.md). Nothing here looks at
// a clock: Validate is invariants and coverage only.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"taskdep/apps/cholesky"
	"taskdep/apps/hpcg"
	"taskdep/apps/lulesh"
	"taskdep/internal/fault"
	"taskdep/internal/graph"
	"taskdep/internal/obs"
	"taskdep/internal/rt"
)

// FaultsSchemaVersion identifies the BENCH_faults.json layout.
const FaultsSchemaVersion = 3

// errSyntheticFault is the planted failure of the poison-cone check.
var errSyntheticFault = errors.New("faults experiment: planted failure")

// FaultParams sizes the fault-injection experiment.
type FaultParams struct {
	// Workers is the pool size for every run.
	Workers int `json:"workers"`
	// Every is the fault-injection window (one fault per Every
	// executed tasks); it must be small enough that every app run
	// executes at least one full window before draining.
	Every int64 `json:"every"`
	// Seeds is how many distinct injection seeds to run per
	// app x mode point (different seeds fail different tasks).
	Seeds int `json:"seeds"`
	// ConeDepth is the chain length of the synthetic poison-cone graph.
	ConeDepth int `json:"cone_depth"`

	// Application sizes.
	LuleshS     int `json:"lulesh_s"`
	LuleshIters int `json:"lulesh_iters"`
	HPCGDim     int `json:"hpcg_dim"`
	HPCGIters   int `json:"hpcg_iters"`
	CholTiles   int `json:"chol_tiles"`
	CholBlock   int `json:"chol_block"`
}

// DefaultFaultParams is the full experiment.
func DefaultFaultParams() FaultParams {
	return FaultParams{
		Workers:     4,
		Every:       32,
		Seeds:       3,
		ConeDepth:   64,
		LuleshS:     8,
		LuleshIters: 4,
		HPCGDim:     8,
		HPCGIters:   6,
		CholTiles:   8,
		CholBlock:   16,
	}
}

// SmokeFaultParams is the CI-sized variant.
func SmokeFaultParams() FaultParams {
	return FaultParams{
		Workers:     2,
		Every:       16,
		Seeds:       1,
		ConeDepth:   16,
		LuleshS:     4,
		LuleshIters: 2,
		HPCGDim:     4,
		HPCGIters:   3,
		CholTiles:   5,
		CholBlock:   8,
	}
}

// FaultRow is one application run under injection.
type FaultRow struct {
	App  string `json:"app"`
	Mode string `json:"mode"`
	Seed int64  `json:"seed"`
	// FailedTask is the label carried by the surfaced *fault.TaskError.
	FailedTask string `json:"failed_task"`
	FailedID   int64  `json:"failed_id"`
	// Injected counts the faults the harness manufactured.
	Injected int64 `json:"injected"`
	// Executed counts task executions the harness observed.
	Executed int64 `json:"executed"`
	// CloseClean reports that Close returned nil after the failure.
	CloseClean bool `json:"close_clean"`
	// GoroutinesOK reports that the goroutine count returned to its
	// pre-run level after Close (no leaked workers or detach arms).
	GoroutinesOK bool    `json:"goroutines_ok"`
	WallSeconds  float64 `json:"wall_seconds"`
}

// ConeRow is the synthetic poison-cone check.
type ConeRow struct {
	// Completed is how many out-of-cone tasks ran (must equal the
	// disjoint chain length); Skipped is how many poisoned bodies ran
	// (must be zero — the field counts executions, not skips).
	Completed  int    `json:"completed"`
	PoisonRan  int    `json:"poison_ran"`
	FailedTask string `json:"failed_task"`
	// Observability cross-check: the runtime's merged counters after
	// Close must agree with the ground truth the bodies counted —
	// skipped == cone size, aborted == 1, and submitted ==
	// executed + skipped + aborted.
	SubmittedCounter int64 `json:"submitted_counter"`
	ExecutedCounter  int64 `json:"executed_counter"`
	SkippedCounter   int64 `json:"skipped_counter"`
	AbortedCounter   int64 `json:"aborted_counter"`
}

// FaultResult is the machine-readable experiment outcome
// (BENCH_faults.json).
type FaultResult struct {
	Meta
	Params FaultParams `json:"params"`
	Cone   ConeRow     `json:"cone"`
	Rows   []FaultRow  `json:"rows"`
	// BaselineNsPerCall / RecoverNsPerCall bracket the panic-fence
	// overhead: a direct indirect call vs the same call under the
	// executor's defer/recover discipline.
	BaselineNsPerCall float64 `json:"baseline_ns_per_call"`
	RecoverNsPerCall  float64 `json:"recover_ns_per_call"`
}

var (
	faultApps  = []string{"lulesh", "hpcg", "cholesky"}
	faultModes = []fault.Mode{fault.Panic, fault.Error}
)

// RunFaults executes the experiment. A violated invariant is returned
// as an error (the caller exits nonzero), not encoded in the result.
func RunFaults(p FaultParams) (*FaultResult, error) {
	res := &FaultResult{Meta: Meta{Schema: FaultsSchemaVersion}, Params: p}
	var err error
	if res.Cone, err = runCone(p); err != nil {
		return res, fmt.Errorf("cone check: %w", err)
	}
	for _, app := range faultApps {
		for _, mode := range faultModes {
			for seed := int64(0); seed < int64(p.Seeds); seed++ {
				row, err := runAppFault(app, mode, seed, p)
				if err != nil {
					return res, fmt.Errorf("%s/%s seed %d: %w", app, mode, seed, err)
				}
				res.Rows = append(res.Rows, row)
			}
		}
	}
	res.BaselineNsPerCall, res.RecoverNsPerCall = measureRecoverOverhead()
	return res, nil
}

// runCone builds two disjoint dependence chains, fails the head of one,
// and checks the deterministic poison-cone contract.
func runCone(p FaultParams) (ConeRow, error) {
	var row ConeRow
	depth := p.ConeDepth
	r, err := rt.NewRuntime(rt.Config{Workers: p.Workers})
	if err != nil {
		return row, err
	}
	var freeRan, poisonRan atomic.Int64
	r.Submit(rt.Spec{
		Label: "cone-head",
		Out:   []graph.Key{1},
		Do:    func(any) error { return errSyntheticFault },
	})
	for i := 0; i < depth; i++ {
		r.Submit(rt.Spec{
			Label: "cone-succ",
			InOut: []graph.Key{1},
			Body:  func(any) { poisonRan.Add(1) },
		})
	}
	for i := 0; i <= depth; i++ {
		r.Submit(rt.Spec{
			Label: "free",
			InOut: []graph.Key{2},
			Body:  func(any) { freeRan.Add(1) },
		})
	}
	werr := r.Taskwait()
	var te *fault.TaskError
	switch {
	case werr == nil:
		return row, errors.New("Taskwait returned nil despite a failed task")
	case !errors.As(werr, &te):
		return row, fmt.Errorf("Taskwait error is not a *fault.TaskError: %v", werr)
	case te.Label != "cone-head":
		return row, fmt.Errorf("TaskError names %q, want cone-head", te.Label)
	case !errors.Is(werr, errSyntheticFault):
		return row, fmt.Errorf("TaskError does not unwrap to the planted cause: %v", werr)
	}
	if err := r.Close(); err != nil {
		return row, fmt.Errorf("Close after failure: %w", err)
	}
	row.Completed = int(freeRan.Load())
	row.PoisonRan = int(poisonRan.Load())
	row.FailedTask = te.Label
	if row.Completed != depth+1 {
		return row, fmt.Errorf("out-of-cone chain ran %d/%d tasks", row.Completed, depth+1)
	}
	if row.PoisonRan != 0 {
		return row, fmt.Errorf("%d poisoned bodies executed, want 0", row.PoisonRan)
	}
	// Counters are exact after Close (every slot flushed): check them
	// against the ground truth the task bodies observed.
	reg := r.Obs()
	row.SubmittedCounter = reg.Counter(obs.CTasksSubmitted)
	row.ExecutedCounter = reg.Counter(obs.CTasksExecuted)
	row.SkippedCounter = reg.Counter(obs.CTasksSkipped)
	row.AbortedCounter = reg.Counter(obs.CTasksAborted)
	if row.SkippedCounter != int64(depth) {
		return row, fmt.Errorf("skipped counter is %d, cone size is %d", row.SkippedCounter, depth)
	}
	if row.AbortedCounter != 1 {
		return row, fmt.Errorf("aborted counter is %d, want 1", row.AbortedCounter)
	}
	if row.ExecutedCounter != int64(depth+1) {
		return row, fmt.Errorf("executed counter is %d, want %d", row.ExecutedCounter, depth+1)
	}
	if row.SubmittedCounter != row.ExecutedCounter+row.SkippedCounter+row.AbortedCounter {
		return row, fmt.Errorf("submitted %d != executed %d + skipped %d + aborted %d",
			row.SubmittedCounter, row.ExecutedCounter, row.SkippedCounter, row.AbortedCounter)
	}
	return row, nil
}

// runAppFault runs one application under injection and checks that the
// failure surfaces as a *fault.TaskError, the runtime closes cleanly,
// and no goroutines leak.
func runAppFault(app string, mode fault.Mode, seed int64, p FaultParams) (FaultRow, error) {
	row := FaultRow{App: app, Mode: mode.String(), Seed: seed}
	before := runtime.NumGoroutine()
	inj := &fault.Inject{Every: p.Every, Seed: seed, Mode: mode}
	r, err := rt.NewRuntime(rt.Config{Workers: p.Workers, Inject: inj})
	if err != nil {
		return row, err
	}
	start := time.Now()
	switch app {
	case "lulesh":
		var d *lulesh.Domain
		d, err = lulesh.NewDomain(lulesh.Params{S: p.LuleshS, Iters: p.LuleshIters, Ranks: 1})
		if err == nil {
			err = lulesh.RunTask(d, r, nil, lulesh.TaskConfig{TPL: 4})
		}
	case "hpcg":
		var pr *hpcg.Problem
		pr, err = hpcg.New(hpcg.Params{NX: p.HPCGDim, NY: p.HPCGDim, NZ: p.HPCGDim, Iters: p.HPCGIters, Ranks: 1})
		if err == nil {
			err = pr.RunTask(r, nil, hpcg.TaskConfig{TPL: 4})
		}
	case "cholesky":
		err = cholesky.TaskFactor(cholesky.NewSPD(p.CholTiles, p.CholBlock), r)
	default:
		return row, fmt.Errorf("unknown app %q", app)
	}
	row.WallSeconds = time.Since(start).Seconds()
	row.Injected = inj.Injected()
	row.Executed = inj.Count()
	var te *fault.TaskError
	switch {
	case err == nil:
		return row, fmt.Errorf("driver returned nil despite %d injected faults", row.Injected)
	case !errors.As(err, &te):
		return row, fmt.Errorf("driver error is not a *fault.TaskError: %v", err)
	case te.Label == "":
		return row, fmt.Errorf("TaskError does not name the failed task: %v", err)
	}
	if mode == fault.Error && !errors.Is(err, fault.ErrInjected) {
		return row, fmt.Errorf("error-mode failure does not unwrap to ErrInjected: %v", err)
	}
	row.FailedTask = te.Label
	row.FailedID = te.TaskID
	if cerr := r.Close(); cerr != nil {
		return row, fmt.Errorf("Close after failure: %w", cerr)
	}
	row.CloseClean = true
	row.GoroutinesOK = goroutinesSettled(before)
	if !row.GoroutinesOK {
		return row, fmt.Errorf("goroutine leak: %d before, %d after Close", before, runtime.NumGoroutine())
	}
	if row.Injected == 0 {
		return row, errors.New("harness injected nothing (Every too large for the run?)")
	}
	return row, nil
}

// goroutinesSettled polls until the goroutine count returns to (near)
// its pre-run level; worker exit is asynchronous after Close returns.
func goroutinesSettled(before int) bool {
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+1 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// faultBenchSink defeats dead-code elimination in the overhead loops.
var faultBenchSink atomic.Int64

//go:noinline
func faultBenchBody(x int64) int64 { return x*2862933555777941757 + 3037000493 }

// measureRecoverOverhead brackets the cost of the executor's panic
// fence: a bare indirect call vs the same call under defer/recover
// (what every task body pays since the failure-domain change).
func measureRecoverOverhead() (baseNs, recoverNs float64) {
	const iters = 1 << 20
	f := faultBenchBody
	var acc int64
	start := time.Now()
	for i := int64(0); i < iters; i++ {
		acc += f(i)
	}
	baseNs = float64(time.Since(start).Nanoseconds()) / iters
	guarded := func(i int64) (out int64, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("recovered: %v", r)
			}
		}()
		return f(i), nil
	}
	start = time.Now()
	for i := int64(0); i < iters; i++ {
		v, _ := guarded(i)
		acc += v
	}
	recoverNs = float64(time.Since(start).Nanoseconds()) / iters
	faultBenchSink.Store(acc)
	return baseNs, recoverNs
}

// Validate checks result invariants that must hold in any honest run.
func (r *FaultResult) Validate() error {
	if err := r.checkSchema(FaultsSchemaVersion); err != nil {
		return err
	}
	c := r.Cone
	if c.FailedTask != "cone-head" || c.PoisonRan != 0 || c.Completed != r.Params.ConeDepth+1 {
		return fmt.Errorf("cone row %+v violates the poison contract", c)
	}
	if c.SubmittedCounter != c.ExecutedCounter+c.SkippedCounter+c.AbortedCounter ||
		c.SkippedCounter != int64(r.Params.ConeDepth) || c.AbortedCounter != 1 {
		return fmt.Errorf("cone row %+v counters disagree with the ground truth", c)
	}
	want := len(faultApps) * len(faultModes) * r.Params.Seeds
	if len(r.Rows) != want {
		return fmt.Errorf("%d app rows, want %d", len(r.Rows), want)
	}
	cover := make(map[string]bool, len(r.Rows))
	for _, row := range r.Rows {
		cover[row.App+"/"+row.Mode] = true
		if row.FailedTask == "" || !row.CloseClean || !row.GoroutinesOK || row.Injected == 0 {
			return fmt.Errorf("row %s/%s seed %d violates invariants: %+v",
				row.App, row.Mode, row.Seed, row)
		}
	}
	for _, app := range faultApps {
		for _, mode := range faultModes {
			if k := app + "/" + mode.String(); !cover[k] {
				return fmt.Errorf("no row covers %s", k)
			}
		}
	}
	if r.RecoverNsPerCall <= 0 || r.BaselineNsPerCall <= 0 {
		return errors.New("missing recover-overhead measurement")
	}
	return nil
}

// Print renders the human-readable report.
func (r *FaultResult) Print(w io.Writer) {
	fmt.Fprintln(w, "== Fault-injection report (failure domains) ==")
	fmt.Fprintf(w, "cone: failed=%q out-of-cone ran %d/%d, poisoned ran %d\n",
		r.Cone.FailedTask, r.Cone.Completed, r.Params.ConeDepth+1, r.Cone.PoisonRan)
	fmt.Fprintf(w, "%-8s %-6s %4s  %-24s %9s %9s %8s\n",
		"app", "mode", "seed", "failed task", "injected", "executed", "wall")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8s %-6s %4d  %-24s %9d %9d %7.3fs\n",
			row.App, row.Mode, row.Seed, row.FailedTask,
			row.Injected, row.Executed, row.WallSeconds)
	}
	fmt.Fprintf(w, "panic-fence overhead: %.1f ns/call bare vs %.1f ns/call with defer/recover (+%.1f ns)\n",
		r.BaselineNsPerCall, r.RecoverNsPerCall, r.RecoverNsPerCall-r.BaselineNsPerCall)
}
