package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"taskdep/internal/obs"
	"taskdep/internal/serve"
)

// runserve.go holds the two serve workloads. Both run on a real
// serve.Server behind an httptest listener: a closed loop (one client
// on one connection, as the thread budget is one; next request after
// `done`) for service time and capacity, because HTTP callers of
// tdgserve each wait for their stream to end; and, in the traced run,
// an open loop at a fixed rate on the same server for latency, because
// independent users do not wait for each other. Both are cut into short
// pieces, each between two calibrations (calib.go).

type serveKind struct {
	gen func(seed int64, i uint64) lattice
	// rate is the open-loop arrival rate in graphs per reference-speed
	// second, a third to two fifths of the closed-loop capacity measured
	// at the seed commit.
	rate  float64
	slice int // closed-loop requests between two calibrations, about 50 ms
	warm  int // warm-up requests during set-up
}

var serveKinds = map[string]serveKind{
	"serve_small": {gen: genSmall, rate: 400, slice: 50, warm: 64},
	"serve_replay": {
		gen:  func(seed int64, i uint64) lattice { return genReplay(seed, i, replayW, replayD, replayRepeat) },
		rate: 60, slice: 10, warm: 16,
	},
}

// smokeKinds shrink the replay lattice and the rates.
var smokeKinds = map[string]serveKind{
	"serve_small": {gen: genSmall, rate: 200, slice: 10, warm: 4},
	"serve_replay": {
		gen:  func(seed int64, i uint64) lattice { return genReplay(seed, i, 4, 8, 3) },
		rate: 50, slice: 5, warm: 2,
	},
}

// openRoundS is how much of the open-loop schedule runs between two
// calibrations, in reference-speed seconds.
const openRoundS = 1.0

// wireEvent is the part of an NDJSON stream record the client checks.
type wireEvent struct {
	Type    string   `json:"type"`
	Seq     int      `json:"seq"`
	Key     string   `json:"key"`
	Value   *float64 `json:"value"`
	Err     string   `json:"error"`
	Elapsed float64  `json:"elapsed"`
}

// reqResult is one request as the client saw it.
type reqResult struct {
	start, accepted, firstTask, done, end time.Time
	events, bytesIn, bytesOut             int
	serverElapsed                         float64
	rejected                              bool
	err                                   error
}

type serveClient struct {
	hc  *http.Client
	url string
}

// tenantName is the one tenant every request of a rig goes to.
const tenantName = "bench"

// do posts one graph and reads its stream to the end, checking that it
// opens with `accepted`, numbers its records contiguously, reports no
// error, returns every expected slot with the value the generator
// computed, and ends in `done`.
func (c *serveClient) do(lat *lattice) (res reqResult) {
	res.start = time.Now()
	res.bytesIn = len(lat.body)
	hr, err := http.NewRequest("POST", c.url+"/v1/graphs", bytes.NewReader(lat.body))
	if err != nil {
		res.err = err
		return res
	}
	hr.Header.Set("X-Tenant", tenantName)
	resp, err := c.hc.Do(hr)
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drained only so the connection is reused
		res.rejected = resp.StatusCode == http.StatusTooManyRequests
		res.err = fmt.Errorf("serve: status %d", resp.StatusCode)
		return res
	}
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	matched, sawDone := 0, false
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			now := time.Now()
			res.bytesOut += len(line)
			res.events++
			var e wireEvent
			if uerr := json.Unmarshal(line, &e); uerr != nil {
				res.err = fmt.Errorf("serve: bad stream record %q: %w", line, uerr)
				return res
			}
			switch {
			case e.Seq != res.events:
				res.err = fmt.Errorf("serve: record %d carries seq %d", res.events, e.Seq)
			case sawDone:
				res.err = fmt.Errorf("serve: %q record after done", e.Type)
			case res.events == 1 && e.Type != "accepted":
				res.err = fmt.Errorf("serve: stream opens with %q", e.Type)
			case e.Type == "error":
				res.err = fmt.Errorf("serve: error event: %s", e.Err)
			}
			if res.err != nil {
				return res
			}
			switch e.Type {
			case "accepted":
				res.accepted = now
			case "task":
				if res.firstTask.IsZero() {
					res.firstTask = now
				}
			case "result":
				want, ok := lat.want[e.Key]
				if !ok || e.Value == nil || *e.Value != want {
					res.err = fmt.Errorf("serve: slot %q = %v, generator computed %v", e.Key, e.Value, want)
					return res
				}
				matched++
			case "done":
				sawDone = true
				res.done = now
				res.serverElapsed = e.Elapsed
			}
		}
		if err != nil {
			if err != io.EOF {
				res.err = err
				return res
			}
			break
		}
	}
	res.end = time.Now()
	switch {
	case !sawDone:
		res.err = fmt.Errorf("serve: stream truncated after %d records", res.events)
	case matched != len(lat.want):
		res.err = fmt.Errorf("serve: %d of %d result slots reported", matched, len(lat.want))
	}
	return res
}

// serveRig is a server under test with its listener and client.
type serveRig struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *serveClient
}

func newRig(opt serve.Options) *serveRig {
	srv := serve.New(opt)
	ts := httptest.NewServer(srv.Handler())
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: procs, MaxConnsPerHost: procs}}
	return &serveRig{srv: srv, ts: ts, client: &serveClient{hc: hc, url: ts.URL}}
}

func (r *serveRig) close() {
	r.client.hc.CloseIdleConnections()
	r.ts.Close()
	r.srv.Shutdown()
}

// serveTally accumulates the requests of one phase. Times are in
// reference-speed units once the piece they belong to has been scaled.
type serveTally struct {
	mu        sync.Mutex
	serviceS  []float64 // start -> done, verified requests
	elapsedMs []float64 // the done event's elapsed field
	graphs    int
	tasks     int64 // task executions: tasks x repeat
	events    int64
	bytesIn   int64
	bytesOut  int64
	rejected  int
	// Per closed-loop slice: verified graphs and task executions per
	// second, generation and checking included.
	sliceGraphsPerS, sliceTasksPerS []float64
}

// record files one request. The open loop calls it from its connection
// goroutines.
func (t *serveTally) record(rep *report, res reqResult, lat *lattice) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rep.Attempted++
	if res.rejected {
		t.rejected++
	}
	if res.err != nil {
		rep.fail(res.err)
		return
	}
	t.graphs++
	t.tasks += int64(lat.tasks * lat.repeat)
	t.events += int64(res.events)
	t.bytesIn += int64(res.bytesIn)
	t.bytesOut += int64(res.bytesOut)
	t.serviceS = append(t.serviceS, res.done.Sub(res.start).Seconds())
	t.elapsedMs = append(t.elapsedMs, res.serverElapsed*1e3)
}

// traceRequest files the client-side spans of one request.
func traceRequest(tr *tracer, id int, genStart, genEnd time.Time, res reqResult) {
	if tr == nil || res.err != nil {
		return
	}
	tr.add("marshal", "", id, 0, genStart, genEnd)
	tr.add("request", "", id, 0, res.start, res.end)
	tr.add("post→accepted", "request", id, 0, res.start, res.accepted)
	first := res.firstTask
	if first.IsZero() {
		first = res.done
	}
	tr.add("accepted→first_task", "request", id, 0, res.accepted, first)
	tr.add("→done", "request", id, 0, first, res.done)
	tr.add("read_tail", "request", id, 0, res.done, res.end)
}

// closedLoop sends requests back to back for d, in slices of k.slice
// requests, each slice between two calibrations and after a collection
// outside the timer, as every application solve is: left to itself the
// heap of a saturated one-P server overshoots by a factor that moved
// the resident set by 15 to 30 % between identical runs. next hands out
// request indices, so no two requests of a run share one.
func (r *serveRig) closedLoop(k serveKind, seed int64, next *uint64, d time.Duration,
	rep *report, t *serveTally, tr *tracer) {

	for t0 := time.Now(); time.Since(t0) < d; {
		from, graphs, tasks := len(t.serviceS), t.graphs, t.tasks
		runtime.GC()
		var wall time.Duration
		slow := calibrated(func() {
			s0 := time.Now()
			for n := 0; n < k.slice; n++ {
				i := *next
				*next++
				genStart := time.Now()
				lat := k.gen(seed, i)
				genEnd := time.Now()
				res := r.client.do(&lat)
				t.record(rep, res, &lat)
				traceRequest(tr, int(i), genStart, genEnd, res)
			}
			wall = time.Since(s0)
		})
		for j := from; j < len(t.serviceS); j++ {
			t.serviceS[j] /= slow
			t.elapsedMs[j] /= slow
		}
		refS := wall.Seconds() / slow
		t.sliceGraphsPerS = append(t.sliceGraphsPerS, float64(t.graphs-graphs)/refS)
		t.sliceTasksPerS = append(t.sliceTasksPerS, float64(t.tasks-tasks)/refS)
	}
}

// openRounds is what the open-loop phase measured: each round's
// percentiles, and the rest pooled over the rounds, all in
// reference-speed milliseconds.
type openRounds struct {
	p50Ms, p95Ms []float64
	latencyMs    []float64
	latenessMs   []float64
	backlogEnd   int
}

// openLoopPhase runs the fixed-rate schedule for d, openRoundS of it at
// a time. A round is timed by a clock that runs as much slower as the
// calibration before it says the machine does: arrivals are spaced out
// by the slowdown and latencies divided by it, so that the server sees
// the same load relative to its speed at the time, and the queueing that
// goes with it, whatever the neighbours do.
func (r *serveRig) openLoopPhase(k serveKind, seed int64, next *uint64, d time.Duration,
	rep *report, t *serveTally, tr *tracer) openRounds {

	type prepared struct {
		lat              lattice
		genStart, genEnd time.Time
	}
	var or openRounds
	n := uint64(k.rate * openRoundS)
	for t0 := time.Now(); time.Since(t0) < d; {
		base := *next // reserve this round's request indices
		*next += n
		runtime.GC()
		before := calibrate()
		pace := before / calibRefS
		st := openLoop(k.rate/pace, time.Duration(openRoundS*pace*float64(time.Second)), procs,
			func(i uint64) prepared {
				genStart := time.Now()
				lat := k.gen(seed, base+i)
				return prepared{lat, genStart, time.Now()}
			},
			func(_ int, i uint64, p prepared) time.Time {
				res := r.client.do(&p.lat)
				t.record(rep, res, &p.lat)
				traceRequest(tr, int(base+i), p.genStart, p.genEnd, res)
				if res.err != nil {
					// A failed request never completes: charge it the time
					// until the failure was known, and count it failed.
					return time.Now()
				}
				return res.done
			})
		slow := slowdown(before, calibrate())
		for i := range st.latencyMs {
			st.latencyMs[i] /= slow
			st.latenessMs[i] /= slow
		}
		round := sorted(st.latencyMs)
		or.p50Ms = append(or.p50Ms, percentile(round, 0.50))
		or.p95Ms = append(or.p95Ms, percentile(round, 0.95))
		or.latencyMs = append(or.latencyMs, st.latencyMs...)
		or.latenessMs = append(or.latenessMs, st.latenessMs...)
		or.backlogEnd += st.backlogEnd
	}
	return or
}

// warmUp sends k.warm checked requests.
func (r *serveRig) warmUp(k serveKind, seed int64, next *uint64) error {
	for n := 0; n < k.warm; n++ {
		lat := k.gen(seed, *next)
		*next++
		if res := r.client.do(&lat); res.err != nil {
			return res.err
		}
	}
	return nil
}

// tenantCounts is the exported counters of the rig's tenant runtime and
// its last critical-path report.
type tenantCounts struct {
	layerCounts
	discShare, tinfMs, zeroDiscSpeedup float64
}

func (r *serveRig) counts() tenantCounts {
	var tc tenantCounts
	tn, ok := r.srv.Manager().Lookup(tenantName)
	if !ok {
		return tc
	}
	tc.addRuntime(tn.Runtime())
	if cp := tn.Runtime().CriticalPath(); cp != nil {
		tc.discShare = cp.DiscShare
		tc.tinfMs = float64(cp.TInfNs) / 1e6
		tc.zeroDiscSpeedup = cp.WhatIf.Speedup
	}
	return tc
}

func runServe(cfg runConfig) (*report, error) {
	kinds := serveKinds
	if cfg.smoke {
		kinds = smokeKinds
	}
	k := kinds[cfg.workload]
	rep := &report{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var next uint64

	// Set-up: server, listener, client, the tenant (made on first use)
	// and checked warm-up requests. The last repetition's server is the
	// one measured.
	reps := setupReps
	if cfg.trace || cfg.smoke {
		reps = 1
	}
	var setups []float64
	var rig *serveRig
	for i := 0; i < reps; i++ {
		if rig != nil {
			rig.close()
		}
		runtime.GC()
		var err error
		var wall time.Duration
		slow := calibrated(func() {
			t0 := time.Now()
			rig = newRig(serve.Options{})
			err = rig.warmUp(k, cfg.seed, &next)
			wall = time.Since(t0)
		})
		if err != nil {
			rig.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, wall.Seconds()/slow)
	}
	defer func() { rig.close() }()

	if !cfg.trace {
		// Capacity and memory come from the closed loop; the open loop,
		// whose latencies carry the host's wake-up delays after every idle
		// gap and moved by 10 to 20 % between identical runs, is part of
		// the traced run.
		var closed serveTally
		rss := startRSSSampler()
		rig.closedLoop(k, cfg.seed, &next, budget, rep, &closed, nil)
		rssMB := rss.medianMB()
		if closed.graphs == 0 {
			return nil, fmt.Errorf("no graph passed its checks: %s", rep.FirstErr)
		}
		rep.K = closed.graphs
		rep.EndToEnd = map[string]float64{
			"setup_s":      median(setups),
			"solve_s":      median(closed.serviceS),
			"tasks_per_s":  median(closed.sliceTasksPerS),
			"graphs_per_s": median(closed.sliceGraphsPerS),
			"rss_mb":       rssMB,
		}
		rep.Dists = map[string]dist{
			"solve_s": summarize(closed.serviceS), "setup_s": summarize(setups),
			"graphs_per_s": summarize(closed.sliceGraphsPerS), "tasks_per_s": summarize(closed.sliceTasksPerS),
		}
		return rep, nil
	}

	// Traced run. A second server has the critical-path profiler on;
	// closed-loop stretches alternate between the two, so that a slow
	// stretch of the machine falls on both. The untraced server gives
	// the counts, the base of trace.overhead_share and of the wire
	// residual; the traced one, under the benchmark's client-side spans,
	// gives the rest. Then the open loop, on the untraced server.
	tr := newTracer()
	tracedRig := newRig(serve.Options{CPath: true})
	defer tracedRig.close()
	if err := tracedRig.warmUp(k, cfg.seed, &next); err != nil {
		return nil, fmt.Errorf("warm-up with the profiler on: %w", err)
	}
	var base, traced, open serveTally
	var gc gcTally
	for t0 := time.Now(); time.Since(t0) < 2*budget/5; {
		gc.during(func() { rig.closedLoop(k, cfg.seed, &next, budget/20, rep, &base, nil) })
		tracedRig.closedLoop(k, cfg.seed, &next, budget/20, rep, &traced, tr)
	}
	baseCounts, tracedCounts := rig.counts(), tracedRig.counts()
	ol := rig.openLoopPhase(k, cfg.seed, &next, budget/4, rep, &open, tr)
	if base.graphs == 0 || traced.graphs == 0 {
		return nil, fmt.Errorf("no graph passed its checks: %s", rep.FirstErr)
	}
	rep.K = base.graphs + traced.graphs + open.graphs

	sz := fullSizes
	shape := fullShape(replayW, replayD)
	drainTasks := 100_000
	if cfg.smoke {
		sz, drainTasks = smokeSizes, 5_000
	}
	lats := make([]lattice, 8)
	for i := range lats {
		lats[i] = k.gen(cfg.seed, uint64(i))
	}
	iso, err := measureIsolation(sz, shape, lats, drainTasks, budget/4)
	if err != nil {
		rep.fail(fmt.Errorf("isolation: %w", err))
	}

	graphs := float64(base.graphs)
	attributedUs := iso["serve.decode_us"] + iso["serve.validate_us"] + iso["serve.admit_ns"]/1e3 +
		iso["serve.tenant_run_us"] + iso["serve.encode_us"]
	baseS, tracedS := median(base.serviceS), median(traced.serviceS)
	elapsedTotalNs := 0.0
	for _, ms := range traced.elapsedMs {
		elapsedTotalNs += ms * 1e6
	}

	rep.PerLayer = iso
	pl := rep.PerLayer
	// The tenant's counters cover the warm-up too: shares and per-task
	// rates are unaffected, and the per-graph entries count it in.
	baseCounts.into(pl, float64(base.graphs+k.warm))
	gc.into(pl, float64(base.tasks))
	// The phase counter runs on the machine's clock, the summed elapsed
	// fields are scaled: near enough for a share.
	pl["rt.discovery_share"] = ratio(float64(tracedCounts.ctr[obs.CPhaseDiscoveryNs]), elapsedTotalNs)
	pl["rt.breakdown_residual_share"] = 0 // Config.Profile is not reachable through serve
	pl["rt.parallel_efficiency"] = 0
	pl["apps.speedup_vs_parfor"] = 0
	pl["apps.result_error"] = 0 // results are compared exactly; a mismatch is a failed graph
	pl["mpi.overlap_ratio"] = 0
	pl["serve.wire_residual_share"] = ratio(baseS*1e6-attributedUs, baseS*1e6)
	pl["serve.events_per_graph"] = ratio(float64(base.events), graphs)
	pl["serve.bytes_in_per_graph"] = ratio(float64(base.bytesIn), graphs)
	pl["serve.bytes_out_per_graph"] = ratio(float64(base.bytesOut), graphs)
	pl["serve.rejected"] = float64(base.rejected + traced.rejected + open.rejected)
	pl["serve.latency_p50_ms"] = median(ol.p50Ms)
	pl["serve.latency_p95_ms"] = median(ol.p95Ms)
	pl["serve.backlog_end"] = float64(ol.backlogEnd)
	pl["cpath.disc_share"] = tracedCounts.discShare
	pl["cpath.zero_disc_speedup"] = tracedCounts.zeroDiscSpeedup
	pl["trace.overhead_share"] = ratio(tracedS-baseS, baseS)

	rep.Ledger = map[string]float64{
		"serve.wire_residual_us":      baseS*1e6 - attributedUs,
		"serve.server_elapsed_p50_ms": median(base.elapsedMs),
		"serve.latency_p99_ms":        percentile(sorted(ol.latencyMs), 0.99),
		"serve.gen_lateness_p95_ms":   percentile(sorted(ol.latenessMs), 0.95),
		"cpath.tinf_ms":               tracedCounts.tinfMs,
		"failed_share":                ratio(float64(rep.Failed), float64(rep.Attempted)),
		"trace.compiled_iterations": ratio(float64(tracedCounts.ctr[obs.CReplayCompiled]),
			float64(traced.graphs+k.warm)),
	}
	rep.Dists = map[string]dist{
		"solve_s": summarize(base.serviceS), "traced_solve_s": summarize(traced.serviceS),
		"serve.latency_p50_ms": summarize(ol.p50Ms), "serve.latency_p95_ms": summarize(ol.p95Ms),
	}
	rep.Spans = tr.selfTimes()
	if err := tr.writeChrome(tracePath(cfg), cfg.workload); err != nil {
		return nil, err
	}
	return rep, nil
}
