package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"taskdep/internal/graph"
	"taskdep/internal/rt"
)

// The one harness cmd/tdgbench drives: a table of experiments, what a
// result owes (Validate, Print, optionally ValidateFull), one JSON form
// with the environment stamped in, and the gate graph three of the
// benchmarks drain.
//
// A result's checks are sorted by what they are. Validate holds what is
// deterministic on any run of any size on any machine — counts, counter
// identities, allocation counts, exactness against an oracle, isolation —
// and ratios of two wall clocks taken inside the same run. ValidateFull
// holds the budgets only a full-size run can meet (an overhead under
// 10 %): tdgbench asks it of runs without -smoke
// and TestCommittedBaselines of the committed BENCH_*.json. Nothing
// compares a fresh wall clock with one committed from another machine.

// Result is the outcome of one experiment.
type Result interface {
	Validate() error
	Print(io.Writer)
}

// FullResult is a Result with budgets that hold at full size only.
type FullResult interface {
	Result
	ValidateFull() error
}

// Options are tdgbench's sizing flags. Smoke picks the CI-sized
// parameters of a benchmark; TPL and Fine size the paper-figure modes.
type Options struct {
	Smoke     bool
	TPL, Fine int
}

// Experiment is one mode of tdgbench -exp.
type Experiment struct {
	Name string
	Run  func(Options) (Result, error)
}

// Experiments is the table tdgbench -exp indexes: the paper-figure
// reproductions on the simulator, then the benchmarks of the runtime's
// own layers, each with a committed full-size BENCH_<name>.json.
var Experiments = []Experiment{
	{"table1", func(o Options) (Result, error) {
		res := RunTable1(DefaultIntranode(), o.TPL, o.Fine)
		return &figure{Rows: res.Rows, print: res.Print}, nil
	}},
	{"table2", func(o Options) (Result, error) {
		rows := RunTable2(DefaultIntranode(), o.TPL)
		return &figure{Rows: rows, print: func(w io.Writer) { PrintTable2(w, rows) }}, nil
	}},
	{"metg", func(Options) (Result, error) {
		res, err := RunMETG(DefaultIntranode())
		return &figure{Rows: res, print: res.Print}, err
	}},
	{"throttle", func(o Options) (Result, error) {
		rows := RunThrottleAblation(DefaultIntranode(), o.TPL)
		return &figure{Rows: rows, print: func(w io.Writer) { PrintThrottleAblation(w, rows) }}, nil
	}},
	{"policy", func(o Options) (Result, error) {
		rows := RunPolicyAblation(DefaultIntranode(), o.TPL)
		return &figure{Rows: rows, print: func(w io.Writer) { PrintPolicyAblation(w, rows) }}, nil
	}},
	{"discovery", func(o Options) (Result, error) {
		return RunDiscovery(sized(o, DefaultDiscoveryParams, SmokeDiscoveryParams)), nil
	}},
	{"executor", func(o Options) (Result, error) {
		return RunExecutor(sized(o, DefaultExecutorParams, SmokeExecutorParams))
	}},
	{"faults", func(o Options) (Result, error) { return RunFaults(sized(o, DefaultFaultParams, SmokeFaultParams)) }},
	{"obs", func(o Options) (Result, error) { return RunObs(sized(o, DefaultObsParams, SmokeObsParams)) }},
	{"replay", func(o Options) (Result, error) { return RunReplay(sized(o, DefaultReplayParams, SmokeReplayParams)) }},
	{"cpath", func(o Options) (Result, error) { return RunCPath(sized(o, DefaultCPathParams, SmokeCPathParams)) }},
	{"serve", func(o Options) (Result, error) { return RunServe(sized(o, DefaultServeParams, SmokeServeParams)) }},
}

// sized picks a benchmark's committed-baseline or CI-sized parameters.
func sized[P any](o Options, full, smoke func() P) P {
	if o.Smoke {
		return smoke()
	}
	return full()
}

// figure is the Result of a paper-figure reproduction: rows out of the
// simulator, printed as the paper tables them. What they must show is
// asserted by the package's tests, not by the tool.
type figure struct {
	Meta
	Rows  any `json:"rows"`
	print func(io.Writer)
}

func (f *figure) Print(w io.Writer) { f.print(w) }
func (*figure) Validate() error     { return nil }

// Env is where a result was measured: every BENCH_*.json written since
// the harness stamps it carries one, so a number can be read against
// the machine and the commit it came from.
type Env struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Revision   string `json:"vcs_revision,omitempty"`
	Modified   bool   `json:"vcs_modified,omitempty"` // built from a tree with uncommitted changes
}

// Meta heads every benchmark result: the layout version of its file —
// bumped on incompatible changes so a stale baseline fails loudly — and
// the environment, absent from files written before it existed.
type Meta struct {
	Schema int  `json:"schema,omitempty"` // none on a paper figure's rows
	Env    *Env `json:"env,omitempty"`
}

func (m *Meta) stamp() {
	m.Env = &Env{
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Env.Revision = s.Value
			case "vcs.modified":
				m.Env.Modified = s.Value == "true"
			}
		}
	}
}

func (m *Meta) checkSchema(want int) error {
	if m.Schema != want {
		return fmt.Errorf("schema %d, tool expects %d", m.Schema, want)
	}
	return nil
}

// WriteJSON writes r as a BENCH_*.json, its environment stamped.
func WriteJSON(w io.Writer, r Result) error {
	if m, ok := r.(interface{ stamp() }); ok {
		m.stamp()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadJSON parses a file WriteJSON wrote into r, a pointer to the
// experiment's result type.
func ReadJSON(data []byte, r Result) error { return json.Unmarshal(data, r) }

// GateShape sizes the gate graph: Roots independent roots behind one
// gate, each fanning into Lanes dependence chains of Depth tasks.
type GateShape struct {
	Roots int `json:"roots"`
	Lanes int `json:"lanes"`
	Depth int `json:"depth"`
}

// Tasks returns the graph's task count, the gate excluded: it completes
// outside the drain.
func (s GateShape) Tasks() int { return s.Roots + s.Roots*s.Lanes*s.Depth }

// Disjoint dependence keys of the gate graph.
const (
	execGateKey graph.Key = 1 << 40
	execRootKey graph.Key = 2 << 40
	execLaneKey graph.Key = 3 << 40
)

// drainGateGraph separates discovery from execution with a detached gate
// task: every root In-depends on a key only the gate writes, so the
// whole graph is submitted while the workers have nothing to do (they
// park). It returns the time from the gate's fulfilment to Taskwait's
// return: a pure drain — batched successor release, owner-deque pops,
// steals, park/wake — with no discovery mixed in.
func drainGateGraph(r *rt.Runtime, s GateShape, body func(any)) float64 {
	gate := r.Submit(rt.Spec{
		Label:        "gate",
		Out:          []graph.Key{execGateKey},
		Detached:     true,
		DetachedBody: func(any, *rt.Event) {},
	})
	specs := make([]rt.Spec, 0, 1+s.Lanes*s.Depth)
	for g := 0; g < s.Roots; g++ {
		root := execRootKey + graph.Key(g)
		specs = append(specs[:0], rt.Spec{
			Label: "root",
			In:    []graph.Key{execGateKey},
			Out:   []graph.Key{root},
			Body:  body,
		})
		for f := 0; f < s.Lanes; f++ {
			lane := execLaneKey + graph.Key(g*s.Lanes+f)
			for i := 0; i < s.Depth; i++ {
				sp := rt.Spec{Label: "lane", InOut: []graph.Key{lane}, Body: body}
				if i == 0 {
					sp.In = []graph.Key{root}
				}
				specs = append(specs, sp)
			}
		}
		r.SubmitBatch(specs)
	}
	start := time.Now()
	gate.Fulfill()
	r.Taskwait()
	return time.Since(start).Seconds()
}

// DrainRow is one instrument mode's drain of the grain-0 gate graph on
// one worker: the point where every nanosecond a hook adds shows.
type DrainRow struct {
	Mode        string  `json:"mode"`
	WallSeconds float64 `json:"wall_seconds"`
	NsPerTask   float64 `json:"ns_per_task"`
	Tasks       int64   `json:"tasks_executed"`
}

// Overhead is what a mode's drain costs over the off-mode drain of the
// same run.
type Overhead struct {
	Mode  string  `json:"mode,omitempty"`
	Pct   float64 `json:"pct"`         // (mode - off)/off * 100
	AddNs float64 `json:"add_ns_task"` // absolute ns/task added
}

// instrumentBudgetPct is the always-on budget, twice: what a disabled
// hook may cost as a share of an off-mode task on any run, and what an
// enabled instrument may add to the grain-0 drain of a full-size run.
const instrumentBudgetPct = 10.0

// checkOverheads holds enabled instruments to the budget.
func checkOverheads(over []Overhead) error {
	for _, o := range over {
		if o.Pct > instrumentBudgetPct {
			return fmt.Errorf("%s overhead is %.1f%%, budget is %.0f%%", o.Mode, o.Pct, instrumentBudgetPct)
		}
	}
	return nil
}

// drainRows turns each mode's wall times — repeats interleaved by the
// caller, so machine drift hits every mode alike — into its row, the
// fastest repeat (the least noise-contaminated), and the overheads of
// every mode after the first, which is the off mode.
func drainRows(modes []string, walls [][]float64, tasks int) ([]DrainRow, []Overhead) {
	rows := make([]DrainRow, len(modes))
	for m, mode := range modes {
		wall := slices.Min(walls[m])
		rows[m] = DrainRow{Mode: mode, WallSeconds: wall, NsPerTask: wall * 1e9 / float64(tasks), Tasks: int64(tasks)}
	}
	var over []Overhead
	for _, row := range rows[1:] {
		off := rows[0].NsPerTask
		over = append(over, Overhead{Mode: row.Mode, Pct: (row.NsPerTask - off) / off * 100, AddNs: row.NsPerTask - off})
	}
	return rows, over
}

// checkDrainRows holds rows to one per mode, in order, each a timed drain
// of the whole graph.
func checkDrainRows(rows []DrainRow, modes []string, tasks int) error {
	if len(rows) != len(modes) {
		return fmt.Errorf("%d rows, want one per mode %v", len(rows), modes)
	}
	for i, row := range rows {
		if row.Mode != modes[i] {
			return fmt.Errorf("row %d: mode %q, want %q", i, row.Mode, modes[i])
		}
		if row.WallSeconds <= 0 || row.NsPerTask <= 0 {
			return fmt.Errorf("row %d: non-positive timing", i)
		}
		if row.Tasks != int64(tasks) {
			return fmt.Errorf("row %d: executed %d tasks, params imply %d", i, row.Tasks, tasks)
		}
	}
	return nil
}
