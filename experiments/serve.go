package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"taskdep/internal/obs"
	"taskdep/internal/serve"
)

// Graph-as-a-service load test: a tdgserve endpoint (in-process, real
// HTTP over loopback) under many concurrent submitting clients spread
// across the tenant pool. Each client streams graphs whose result it
// can verify; a dedicated poison tenant concurrently submits failing
// graphs the whole time. The run proves three service properties:
//
//	capacity  — Clients concurrent clients all complete with zero 429s
//	            at the benchmark's pool/quota geometry, and the
//	            throughput and tail latency are recorded;
//	isolation — every good-tenant result stays correct while the
//	            poison tenant's graphs fail continuously (failure
//	            domains end at the tenant runtime boundary);
//	admission — a deliberately undersized probe (queue quota 1) turns
//	            excess load into 429s instead of queueing it.
//
// Correctness (isolation, zero unexpected rejections, probe rejections
// observed) is proven on every run; a full-size run also owes the
// throughput floor.

// ServeSchemaVersion identifies the BENCH_serve.json layout.
const ServeSchemaVersion = 1

// ServeParams sizes the load test.
type ServeParams struct {
	// Tenants is the pool width used by the load run (the poison
	// tenant is an extra one).
	Tenants int `json:"tenants"`
	// Clients is the number of concurrent submitting clients, spread
	// round-robin over the tenants.
	Clients int `json:"clients"`
	// GraphsPerClient is how many graphs each client submits
	// back-to-back.
	GraphsPerClient int `json:"graphs_per_client"`
	// TasksPerGraph is the dependence-chain length of each graph
	// (const head, spin links, sum tail).
	TasksPerGraph int `json:"tasks_per_graph"`
	// SpinIters is the synthetic grain of each chain link.
	SpinIters int `json:"spin_iters"`
	// Repeat re-executes every graph through the persistent
	// frozen-replay path.
	Repeat int `json:"repeat"`
	// WorkersPerTenant sizes each tenant runtime.
	WorkersPerTenant int `json:"workers_per_tenant"`
	// Queue and GlobalInflight are the admission geometry of the load
	// run (sized to admit everything; the probe phase shrinks them).
	Queue          int `json:"queue"`
	GlobalInflight int `json:"global_inflight"`
	// PoisonGraphs is how many failing graphs the poison tenant
	// submits concurrently with the load.
	PoisonGraphs int `json:"poison_graphs"`
}

// DefaultServeParams is the committed-baseline configuration: at
// least a thousand concurrent clients over a 16-tenant pool.
func DefaultServeParams() ServeParams {
	return ServeParams{
		Tenants: 16, Clients: 1000, GraphsPerClient: 2,
		TasksPerGraph: 8, SpinIters: 200, Repeat: 2,
		WorkersPerTenant: 1, Queue: 128, GlobalInflight: 2048,
		PoisonGraphs: 50,
	}
}

// SmokeServeParams is the CI configuration: same shape, small enough
// for a loaded runner.
func SmokeServeParams() ServeParams {
	return ServeParams{
		Tenants: 4, Clients: 64, GraphsPerClient: 2,
		TasksPerGraph: 6, SpinIters: 100, Repeat: 2,
		WorkersPerTenant: 1, Queue: 64, GlobalInflight: 256,
		PoisonGraphs: 8,
	}
}

// ServeResult is the benchmark output (committed as BENCH_serve.json).
type ServeResult struct {
	Meta
	Params ServeParams `json:"params"`

	// Load-phase figures.
	Graphs       int64   `json:"graphs"`       // good graphs completed
	Tasks        int64   `json:"tasks"`        // task bodies those graphs ran
	WallSeconds  float64 `json:"wall_seconds"` // load-phase wall clock
	GraphsPerSec float64 `json:"graphs_per_sec"`
	TasksPerSec  float64 `json:"tasks_per_sec"`
	P50Ms        float64 `json:"p50_ms"` // per-graph client-observed latency
	P95Ms        float64 `json:"p95_ms"`
	P99Ms        float64 `json:"p99_ms"`
	MaxMs        float64 `json:"max_ms"`
	Rejected     int64   `json:"rejected"`    // 429s in the load phase (must be 0)
	BadResults   int64   `json:"bad_results"` // wrong/missing results (must be 0)

	// Isolation evidence: the poison tenant's graphs all failed, and
	// failed only there.
	PoisonGraphs  int64 `json:"poison_graphs"`
	PoisonErrors  int64 `json:"poison_errors"`
	GoodFailures  int64 `json:"good_failures"`  // failures recorded on good tenants (must be 0)
	PoisonMissing int64 `json:"poison_missing"` // poison graphs lacking an error event (must be 0)

	// Admission probe: undersized quota turns load into 429s.
	Probe429 int64 `json:"probe_429"` // must be > 0
}

// Validate checks the schema and the service properties every run must
// show: every graph completed with the right result and none was
// rejected at the benchmark's geometry, the poison tenant's failures
// stayed on the poison tenant, and the undersized probe turned load into
// 429s.
func (r *ServeResult) Validate() error {
	if err := r.checkSchema(ServeSchemaVersion); err != nil {
		return err
	}
	if r.Graphs <= 0 || r.Tasks <= 0 || r.WallSeconds <= 0 {
		return fmt.Errorf("empty load phase: graphs=%d tasks=%d wall=%.3f", r.Graphs, r.Tasks, r.WallSeconds)
	}
	if r.GraphsPerSec <= 0 || r.P99Ms <= 0 {
		return fmt.Errorf("implausible figures: %.1f graphs/s, p99 %.2f ms", r.GraphsPerSec, r.P99Ms)
	}
	want := int64(r.Params.Clients) * int64(r.Params.GraphsPerClient)
	if r.Graphs != want {
		return fmt.Errorf("%d graphs completed, want %d", r.Graphs, want)
	}
	if r.Rejected != 0 {
		return fmt.Errorf("%d load-phase requests rejected at benchmark geometry", r.Rejected)
	}
	if r.BadResults != 0 {
		return fmt.Errorf("%d wrong results", r.BadResults)
	}
	if r.GoodFailures != 0 {
		return fmt.Errorf("%d failures leaked onto good tenants — isolation broken", r.GoodFailures)
	}
	if r.PoisonMissing != 0 || r.PoisonErrors != r.PoisonGraphs {
		return fmt.Errorf("poison tenant errors %d/%d (missing %d)", r.PoisonErrors, r.PoisonGraphs, r.PoisonMissing)
	}
	if r.Probe429 == 0 {
		return fmt.Errorf("admission probe produced no 429s")
	}
	return nil
}

// serveMinGraphsPerSec is the throughput floor of a full-size run.
const serveMinGraphsPerSec = 100

// ValidateFull holds a full-size run to the throughput floor.
func (r *ServeResult) ValidateFull() error {
	if r.GraphsPerSec < serveMinGraphsPerSec {
		return fmt.Errorf("throughput %.1f graphs/s is below the %d floor", r.GraphsPerSec, serveMinGraphsPerSec)
	}
	return nil
}

// serveClient is a minimal NDJSON stream consumer.
type serveStream struct {
	status int
	events []serve.Event
}

func postServeGraph(client *http.Client, url, tenant string, req serve.GraphRequest) (serveStream, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return serveStream{}, err
	}
	hr, err := http.NewRequest("POST", url+"/v1/graphs", bytes.NewReader(body))
	if err != nil {
		return serveStream{}, err
	}
	hr.Header.Set("X-Tenant", tenant)
	resp, err := client.Do(hr)
	if err != nil {
		return serveStream{}, err
	}
	defer resp.Body.Close()
	out := serveStream{status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return out, nil
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		var e serve.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return out, fmt.Errorf("bad stream line %q: %w", sc.Text(), err)
		}
		out.events = append(out.events, e)
	}
	return out, sc.Err()
}

// chainGraph builds the benchmark graph: const(seed) → spin links
// (each consuming the previous slot) → sum(head, last link). The
// expected "total" result is seed + the last spin's folded value —
// spin is deterministic, so the client can verify it.
func chainGraph(seed float64, tasks, spinIters int) (serve.GraphRequest, float64) {
	g := serve.GraphRequest{Tasks: []serve.TaskWire{
		{Label: "head", Op: "const", Arg: json.RawMessage(fmt.Sprintf("%g", seed)), Provide: []string{"v0"}},
	}}
	for i := 1; i < tasks-1; i++ {
		g.Tasks = append(g.Tasks, serve.TaskWire{
			Label:   fmt.Sprintf("link-%d", i),
			Op:      "spin",
			Arg:     json.RawMessage(fmt.Sprint(spinIters)),
			Consume: []string{fmt.Sprintf("v%d", i-1)},
			Provide: []string{fmt.Sprintf("v%d", i)},
		})
	}
	last := fmt.Sprintf("v%d", tasks-2)
	g.Tasks = append(g.Tasks, serve.TaskWire{
		Label: "tail", Op: "sum",
		Consume: []string{"v0", last},
		Provide: []string{"total"},
	})
	g.Results = []string{"total"}

	// Mirror opSpin's fold to predict the result.
	acc := uint64(2) // one consumed input + 1
	for i := 0; i < spinIters; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	spinVal := float64(acc % 1e9)
	if tasks == 2 {
		// No links: tail sums v0 twice... not used; chains are >= 3.
		spinVal = seed
	}
	return g, seed + spinVal
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// RunServe executes the load test against an in-process server bound
// to a loopback listener.
func RunServe(p ServeParams) (*ServeResult, error) {
	res := &ServeResult{Meta: Meta{Schema: ServeSchemaVersion}, Params: p}
	if p.TasksPerGraph < 3 {
		return res, fmt.Errorf("TasksPerGraph must be >= 3")
	}
	srv := serve.New(serve.Options{
		MaxTenants:     p.Tenants + 1, // + the poison tenant
		Workers:        p.WorkersPerTenant,
		Queue:          p.Queue,
		GlobalInflight: p.GlobalInflight,
	})
	ep, err := obs.Serve("127.0.0.1:0", srv.Handler())
	if err != nil {
		return res, err
	}
	defer srv.Shutdown()
	defer ep.Close()
	url := "http://" + ep.Addr()
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        p.Clients + 8,
		MaxIdleConnsPerHost: p.Clients + 8,
	}}

	graph, wantTotal := chainGraph(7, p.TasksPerGraph, p.SpinIters)
	graph.Repeat = p.Repeat
	poison := serve.GraphRequest{Tasks: []serve.TaskWire{
		{Label: "boom", Op: "fail", Arg: json.RawMessage(`"poison tenant"`), Provide: []string{"p"}},
		{Label: "victim", Op: "pass", Consume: []string{"p"}, Provide: []string{"q"}},
	}}

	var (
		rejected, badResults, poisonErrs, poisonMissing atomic.Int64
		firstErr                                        atomic.Pointer[error]
	)
	fail := func(err error) {
		e := err
		firstErr.CompareAndSwap(nil, &e)
	}
	latencies := make([]float64, p.Clients*p.GraphsPerClient)

	var wg sync.WaitGroup
	// Poison tenant: failing graphs the whole time, on its own tenant.
	var poisonWg sync.WaitGroup
	poisonWg.Add(1)
	go func() {
		defer poisonWg.Done()
		for i := 0; i < p.PoisonGraphs; i++ {
			st, err := postServeGraph(client, url, "poison", poison)
			if err != nil {
				fail(fmt.Errorf("poison graph %d: %w", i, err))
				return
			}
			got := false
			for _, e := range st.events {
				if e.Type == "error" {
					got = true
				}
			}
			if got {
				poisonErrs.Add(1)
			} else {
				poisonMissing.Add(1)
			}
		}
	}()

	t0 := time.Now()
	for c := 0; c < p.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("ten-%02d", c%p.Tenants)
			for g := 0; g < p.GraphsPerClient; g++ {
				g0 := time.Now()
				st, err := postServeGraph(client, url, tenant, graph)
				if err != nil {
					fail(fmt.Errorf("client %d graph %d: %w", c, g, err))
					return
				}
				latencies[c*p.GraphsPerClient+g] = time.Since(g0).Seconds() * 1e3
				if st.status == http.StatusTooManyRequests {
					rejected.Add(1)
					continue
				}
				if st.status != http.StatusOK {
					fail(fmt.Errorf("client %d graph %d: status %d", c, g, st.status))
					return
				}
				ok := false
				for _, e := range st.events {
					if e.Type == "result" && e.Key == "total" {
						if v, isNum := e.Value.(float64); isNum && v == wantTotal {
							ok = true
						}
					}
					if e.Type == "error" {
						ok = false
						break
					}
				}
				if !ok {
					badResults.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	res.WallSeconds = time.Since(t0).Seconds()
	poisonWg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return res, *ep
	}

	res.Rejected = rejected.Load()
	res.BadResults = badResults.Load()
	res.Graphs = int64(p.Clients) * int64(p.GraphsPerClient)
	iters := p.Repeat
	if iters < 1 {
		iters = 1
	}
	res.Tasks = res.Graphs * int64(p.TasksPerGraph) * int64(iters)
	res.GraphsPerSec = float64(res.Graphs) / res.WallSeconds
	res.TasksPerSec = float64(res.Tasks) / res.WallSeconds
	sort.Float64s(latencies)
	res.P50Ms = percentile(latencies, 0.50)
	res.P95Ms = percentile(latencies, 0.95)
	res.P99Ms = percentile(latencies, 0.99)
	res.MaxMs = latencies[len(latencies)-1]
	res.PoisonGraphs = int64(p.PoisonGraphs)
	res.PoisonErrors = poisonErrs.Load()
	res.PoisonMissing = poisonMissing.Load()

	// Failures must have landed only on the poison tenant.
	snap := srv.Manager().Snapshot()
	for name, t := range snap {
		if name == "poison" {
			continue
		}
		res.GoodFailures += t.Failures
	}

	// Admission probe: a one-slot tenant queue must reject the burst's
	// tail with 429 instead of queueing it.
	probe, err := runServeProbe(p)
	if err != nil {
		return res, fmt.Errorf("admission probe: %w", err)
	}
	res.Probe429 = probe
	return res, nil
}

// runServeProbe fires a small concurrent burst at a server whose
// per-tenant queue admits one request, and returns the 429 count.
func runServeProbe(p ServeParams) (int64, error) {
	srv := serve.New(serve.Options{
		MaxTenants: 2, Workers: p.WorkersPerTenant,
		Queue: 1, GlobalInflight: 64,
	})
	ep, err := obs.Serve("127.0.0.1:0", srv.Handler())
	if err != nil {
		return 0, err
	}
	defer srv.Shutdown()
	defer ep.Close()
	url := "http://" + ep.Addr()
	client := &http.Client{}
	// Occupy the single admission slot with a long graph, then burst
	// against it: the burst must be rejected, not queued.
	long, _ := chainGraph(1, 10, 5_000_000)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = postServeGraph(client, url, "probe", long)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Manager().Inflight() == 0 {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("slot holder never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	quick, _ := chainGraph(1, 3, 100)
	var rejects atomic.Int64
	for i := 0; i < 7; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := postServeGraph(client, url, "probe", quick)
			if err == nil && st.status == http.StatusTooManyRequests {
				rejects.Add(1)
			}
		}()
	}
	wg.Wait()
	return rejects.Load(), nil
}

// Print renders the human-readable report.
func (r *ServeResult) Print(w io.Writer) {
	fmt.Fprintf(w, "graph-as-a-service load test (schema v%d)\n", r.Schema)
	fmt.Fprintf(w, "  %d clients x %d graphs over %d tenants (%d workers/tenant), %d-task chains, repeat %d\n",
		r.Params.Clients, r.Params.GraphsPerClient, r.Params.Tenants,
		r.Params.WorkersPerTenant, r.Params.TasksPerGraph, r.Params.Repeat)
	fmt.Fprintf(w, "  %d graphs (%d task executions) in %.2fs: %.1f graphs/s, %.0f tasks/s\n",
		r.Graphs, r.Tasks, r.WallSeconds, r.GraphsPerSec, r.TasksPerSec)
	fmt.Fprintf(w, "  latency ms: p50 %.1f  p95 %.1f  p99 %.1f  max %.1f\n",
		r.P50Ms, r.P95Ms, r.P99Ms, r.MaxMs)
	fmt.Fprintf(w, "  rejected %d, bad results %d\n", r.Rejected, r.BadResults)
	fmt.Fprintf(w, "  isolation: poison %d/%d errored, good-tenant failures %d\n",
		r.PoisonErrors, r.PoisonGraphs, r.GoodFailures)
	fmt.Fprintf(w, "  admission probe: %d requests rejected with 429\n", r.Probe429)
}
