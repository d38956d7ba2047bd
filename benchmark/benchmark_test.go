package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"taskdep/apps/cholesky"
)

func TestQuantileMatchesPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(s, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestGeneratorsArePureFunctionsOfTheSeed(t *testing.T) {
	for i := uint64(0); i < 50; i++ {
		a, b := genSmall(7, i), genSmall(7, i)
		if !bytes.Equal(a.body, b.body) || !reflect.DeepEqual(a.want, b.want) {
			t.Fatalf("serve_small request %d differs between two generations from one seed", i)
		}
		a, b = genReplay(7, i, replayW, replayD, replayRepeat), genReplay(7, i, replayW, replayD, replayRepeat)
		if !bytes.Equal(a.body, b.body) || !reflect.DeepEqual(a.want, b.want) {
			t.Fatalf("serve_replay request %d differs between two generations from one seed", i)
		}
	}
	// Another seed gives other shapes; within a seed no two requests
	// share one either.
	shapes := map[string]bool{}
	for seed := int64(1); seed <= 2; seed++ {
		for i := uint64(0); i < 200; i++ {
			sh := smallShape(rngFor(seed, streamSmall, i))
			key, _ := json.Marshal(sh.offsets)
			if shapes[string(key)] {
				t.Fatalf("seed %d request %d repeats an earlier shape", seed, i)
			}
			shapes[string(key)] = true
			if n := sh.w*sh.d + 1; n < 40 || n > 90 {
				t.Fatalf("seed %d request %d has %d tasks, want 40..90", seed, i, n)
			}
		}
	}
	// serve_replay keeps its shape: only the constants move.
	x, y := genReplay(7, 0, replayW, replayD, replayRepeat), genReplay(7, 1, replayW, replayD, replayRepeat)
	if x.tasks != 513 || bytes.Equal(x.body, y.body) || len(x.body) != len(y.body) {
		t.Fatalf("serve_replay: %d tasks, bodies of %d and %d bytes", x.tasks, len(x.body), len(y.body))
	}

	d1, _ := luleshDomain(3, 4, 1)
	d2, _ := luleshDomain(3, 4, 1)
	d3, _ := luleshDomain(4, 4, 1)
	if d1.E[0] != d2.E[0] || d1.E[0] == d3.E[0] {
		t.Errorf("lulesh energy deposit: seed 3 gives %v and %v, seed 4 gives %v", d1.E[0], d2.E[0], d3.E[0])
	}
	if a, b, c := hpcgRHS(3, 64), hpcgRHS(3, 64), hpcgRHS(4, 64); !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Error("hpcg right-hand side does not follow the seed")
	}
	m1, m2, m3 := choleskyMatrix(3, 2, 4), choleskyMatrix(3, 2, 4), choleskyMatrix(4, 2, 4)
	if !reflect.DeepEqual(m1.Tile(1, 1), m2.Tile(1, 1)) || reflect.DeepEqual(m1.Tile(1, 1), m3.Tile(1, 1)) {
		t.Error("cholesky matrix does not follow the seed")
	}
}

// A server that stalls once for 50 ms must cost every request that fell
// due during the stall its share of the wait: with one connection and a
// request due every 5 ms, about nine more requests queue behind the
// stalled one. Timing from send time instead (coordinated omission)
// would show one slow request and nine fast ones.
func TestOpenLoopChargesStallToRequestsDueDuringIt(t *testing.T) {
	const stalled, stall = 20, 50 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("i") == "20" {
			time.Sleep(stall)
		}
	}))
	defer ts.Close()
	st := openLoop(200, 500*time.Millisecond, 1,
		func(i uint64) string { return ts.URL + "/?i=" + strconv.FormatUint(i, 10) },
		func(_ int, _ uint64, url string) time.Time {
			resp, err := http.Get(url)
			if err != nil {
				t.Error(err)
				return time.Now()
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return time.Now()
		})
	if len(st.latencyMs) != 100 {
		t.Fatalf("sent %d requests, want 100", len(st.latencyMs))
	}
	if st.latencyMs[stalled] < 50 {
		t.Fatalf("stalled request took %.1f ms, want >= 50", st.latencyMs[stalled])
	}
	// Request stalled+k was due 5k ms into the stall and could not start
	// before its end.
	for k := 1; k <= 6; k++ {
		if want := 50 - 5*float64(k); st.latencyMs[stalled+k] < want-1 {
			t.Errorf("request due %d ms into the stall: latency %.1f ms, want >= %.0f", 5*k, st.latencyMs[stalled+k], want)
		}
	}
	if st.backlogEnd != 0 {
		t.Errorf("backlog at the end: %d", st.backlogEnd)
	}
}

func suiteOf(solve []float64, within *dist) *suiteResult {
	wr := workloadResult{Name: "w", EndToEnd: map[string]metricResult{}}
	for _, d := range endToEndMetrics {
		wr.EndToEnd[d.Name] = metricResult{Unit: d.Unit, Values: []float64{1, 1, 1, 1}}
	}
	wr.EndToEnd["solve_s"] = metricResult{Unit: "s", Values: solve, Within: within}
	return &suiteResult{Workloads: []workloadResult{wr}}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.01}
	var out bytes.Buffer
	if compareResults(&out, suiteOf(steady, nil), suiteOf(steady, nil)) {
		t.Errorf("A/A comparison reports a regression:\n%s", out.String())
	}
	out.Reset()
	slower := []float64{1.40, 1.41, 1.39, 1.40, 1.41}
	if !compareResults(&out, suiteOf(steady, nil), suiteOf(slower, nil)) || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("40%% slower solve_s (bound 25%%) not reported:\n%s", out.String())
	}
	out.Reset()
	// The other way round is an improvement, not a regression.
	if compareResults(&out, suiteOf(slower, nil), suiteOf(steady, nil)) {
		t.Errorf("a faster b reported as regression:\n%s", out.String())
	}
	out.Reset()
	noisy := []float64{0.6, 1.0, 1.4, 1.8, 1.0}
	if compareResults(&out, suiteOf(steady, nil), suiteOf(noisy, nil)) || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound must read unresolved:\n%s", out.String())
	}
	out.Reset()
	// A single run falls back on the spread of the timed units inside it.
	if compareResults(&out, suiteOf([]float64{1}, &dist{N: 40, Median: 1, Q1: 0.8, Q3: 1.2}), suiteOf([]float64{1}, nil)); !strings.Contains(out.String(), "unresolved") {
		t.Errorf("within-run spread not used for a single run:\n%s", out.String())
	}
	a, b := suiteOf(steady, nil), suiteOf(steady, nil)
	b.Workloads[0].FailedShare = 0.01
	if !compareResults(io.Discard, a, b) {
		t.Error("any increase of failed_share is a regression")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json at the repository root and metrics.go must declare the
// same workloads and metrics.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDecl `json:"end_to_end"`
		PerLayer   []metricDecl `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEndMetrics) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", decl.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayerMetrics) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", decl.PerLayer, perLayerMetrics)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, code has %v", names, workloadNames)
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, m := range append(append([]metricDecl(nil), decl.EndToEnd...), decl.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or used twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is missing")
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 || len(decl.Paths) != 1 || decl.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", decl.RunSeconds, decl.Paths)
	}
}

func TestCholeskyResidualAgreesWithVerify(t *testing.T) {
	c := &choleskyApp{sz: smokeSizes}
	if err := c.setUp(5); err != nil {
		t.Fatal(err)
	}
	if err1, err2 := cholesky.Verify(c.a0, c.ref, 1e-8), c.verifyReference(1e-8); err1 != nil || err2 != nil {
		t.Fatalf("good factor: Verify says %v, the dense residual says %v", err1, err2)
	}
	c.ref.Tile(2, 1)[5] += 1e-3
	if err1, err2 := cholesky.Verify(c.a0, c.ref, 1e-8), c.verifyReference(1e-8); err1 == nil || err2 == nil {
		t.Fatalf("damaged factor: Verify says %v, the dense residual says %v", err1, err2)
	}
}

// TestSmoke runs all six workloads at smoke sizes, untraced and traced,
// and checks what they print against the declarations.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	out := t.TempDir()
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			rep, err := runWorkload(runConfig{workload: name, seed: 11, seconds: 0.3, trace: trace, smoke: true, outDir: out})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d checks failed: %s", name, trace, rep.Failed, rep.Attempted, rep.FirstErr)
			}
			res, err := rep.wire()
			if err != nil {
				t.Fatal(err)
			}
			decls, measured := endToEndMetrics, rep.EndToEnd
			if trace {
				decls, measured = perLayerMetrics, rep.PerLayer
			}
			if len(res.Metrics) != len(decls) || len(measured) != len(decls) {
				t.Errorf("%s trace=%v: %d metrics printed, %d measured, %d declared", name, trace, len(res.Metrics), len(measured), len(decls))
			}
			for _, d := range decls {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not printed", name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s printed in %q, declared in %q", name, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s = %v", name, d.Name, m.Value)
				case m.Value < 0 && d.Name != "trace.overhead_share" && d.Name != "rt.breakdown_residual_share" && d.Name != "serve.wire_residual_share":
					// Only differences of two measurements may come out
					// below zero.
					t.Errorf("%s: %s = %v is negative", name, d.Name, m.Value)
				case !trace && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", name, d.Name)
				}
			}
			if trace {
				data, err := os.ReadFile(filepath.Join(out, "trace-"+name+".json"))
				var tr struct {
					TraceEvents []map[string]any `json:"traceEvents"`
				}
				if err != nil || json.Unmarshal(data, &tr) != nil || len(tr.TraceEvents) == 0 {
					t.Errorf("%s: no Chrome trace written (%v)", name, err)
				}
				for n, v := range rep.Ledger {
					if math.IsNaN(v) || math.IsInf(v, 0) || unitOf(n) == "" {
						t.Errorf("%s: ledger entry %s = %v (unit %q)", name, n, v, unitOf(n))
					}
				}
			}
		}
	}
}
