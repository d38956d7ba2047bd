package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// suite.go runs every workload one after another, each run in a fresh
// child process so that resident memory, collector state and tenant
// pools do not leak from one into the next, and gathers what they
// measured into one result with its provenance.

type suiteConfig struct {
	seed    int64
	seconds float64
	runs    int
	trace   bool
	smoke   bool
	outDir  string
}

// metricResult is one end-to-end metric of one workload: the value of
// every run, and the in-process distribution where the metric is a
// median of timed units.
type metricResult struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Within *dist     `json:"within_run,omitempty"`
}

type workloadResult struct {
	Name        string                  `json:"name"`
	K           int                     `json:"k"`
	Attempted   int                     `json:"attempted"`
	Failed      int                     `json:"failed"`
	FailedShare float64                 `json:"failed_share"`
	FirstErr    string                  `json:"first_error,omitempty"`
	EndToEnd    map[string]metricResult `json:"end_to_end"`
	PerLayer    map[string]float64      `json:"per_layer,omitempty"`
	Ledger      map[string]float64      `json:"ledger,omitempty"`
	Spans       map[string]float64      `json:"span_self_s,omitempty"`
}

type suiteResult struct {
	Env          environment      `json:"environment"`
	Seed         int64            `json:"seed"`
	Seconds      float64          `json:"seconds"`
	TraceSeconds float64          `json:"trace_seconds"`
	Runs         int              `json:"runs"`
	Smoke        bool             `json:"smoke"`
	WallS        float64          `json:"wall_s"`
	Workloads    []workloadResult `json:"workloads"`
}

// runChild runs one workload once in a child process and returns its
// full report. The child's own output (every metric by name) passes
// through to ours.
func runChild(self string, c suiteConfig, workload string, seed int64, seconds float64, trace bool) (*report, error) {
	detail := filepath.Join(c.outDir, "report-"+workload+"-trace"+strconv.Itoa(b2i(trace))+".json")
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(b2i(trace)),
		"-out", c.outDir, "-detail", detail,
	}
	if c.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	data, err := os.ReadFile(detail)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", detail, err)
	}
	return &rep, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func runSuite(c suiteConfig) (ok bool, err error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return false, err
	}
	t0 := time.Now()
	res := suiteResult{Env: captureEnv(), Seed: c.seed, Seconds: c.seconds, TraceSeconds: c.seconds / 4,
		Runs: c.runs, Smoke: c.smoke}
	for _, name := range workloadNames {
		wr := workloadResult{Name: name, EndToEnd: map[string]metricResult{}}
		for run := 0; run < c.runs; run++ {
			// Every run of a set uses another seed, as the acceptance
			// procedure does.
			rep, err := runChild(self, c, name, c.seed+int64(run), c.seconds, false)
			if err != nil {
				return false, err
			}
			wr.K += rep.K
			wr.Attempted += rep.Attempted
			wr.Failed += rep.Failed
			if wr.FirstErr == "" {
				wr.FirstErr = rep.FirstErr
			}
			for _, d := range endToEndMetrics {
				mr := wr.EndToEnd[d.Name]
				mr.Unit = d.Unit
				mr.Values = append(mr.Values, rep.EndToEnd[d.Name])
				if within, ok := rep.Dists[d.Name]; ok {
					mr.Within = &within
				}
				wr.EndToEnd[d.Name] = mr
			}
		}
		if c.trace {
			rep, err := runChild(self, c, name, c.seed, c.seconds/4, true)
			if err != nil {
				return false, err
			}
			wr.Attempted += rep.Attempted
			wr.Failed += rep.Failed
			if wr.FirstErr == "" {
				wr.FirstErr = rep.FirstErr
			}
			wr.PerLayer, wr.Ledger, wr.Spans = rep.PerLayer, rep.Ledger, rep.Spans
		}
		wr.FailedShare = ratio(float64(wr.Failed), float64(wr.Attempted))
		res.Workloads = append(res.Workloads, wr)
	}
	res.WallS = time.Since(t0).Seconds()
	printSuite(os.Stdout, &res)
	data, _ := json.MarshalIndent(&res, "", " ") // plain numbers and strings: cannot fail
	path := filepath.Join(c.outDir, "result.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return false, err
	}
	fmt.Printf("result written to %s\n", path)
	ok = true
	for _, wr := range res.Workloads {
		if wr.Failed > 0 {
			ok = false
		}
	}
	return ok, nil
}

func printSuite(w io.Writer, res *suiteResult) {
	e := res.Env
	fmt.Fprintf(w, "\n==== summary ====\n")
	fmt.Fprintf(w, "go=%s GOMAXPROCS=%d nproc=%d calib_ref_s=%g os=%s commit=%s\ncpu=%s\n",
		e.GoVersion, e.GOMAXPROCS, e.NProc, e.CalibRefS, e.OS, e.Commit, e.CPU)
	fmt.Fprintf(w, "seed=%d seconds=%g trace_seconds=%g runs=%d smoke=%v wall=%.1fs\n",
		res.Seed, res.Seconds, res.TraceSeconds, res.Runs, res.Smoke, res.WallS)
	fmt.Fprintf(w, "%-16s %-16s %14s %-5s %14s %14s %5s\n", "workload", "metric", "value", "unit", "q1", "q3", "n")
	for _, wr := range res.Workloads {
		for _, d := range endToEndMetrics {
			mr := wr.EndToEnd[d.Name]
			sum := summarize(mr.Values)
			if len(mr.Values) < 4 && mr.Within != nil {
				// Too few runs for quartiles across runs: show the
				// spread of the timed units inside the run.
				sum = *mr.Within
			}
			fmt.Fprintf(w, "%-16s %-16s %14.6g %-5s %14.6g %14.6g %5d\n", wr.Name, d.Name,
				median(mr.Values), d.Unit, sum.Q1, sum.Q3, sum.N)
		}
		fmt.Fprintf(w, "%-16s %-16s %14.6g %-5s  (K=%d units timed, %d checked, %d failed)\n",
			wr.Name, "failed_share", wr.FailedShare, "ratio", wr.K, wr.Attempted, wr.Failed)
	}
}
