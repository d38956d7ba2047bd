package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"taskdep/internal/values"
)

// postGraph submits req and decodes the full NDJSON stream.
func postGraph(t *testing.T, client *http.Client, url, tenant string, req GraphRequest) (int, []Event) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	hr, err := http.NewRequest("POST", url+"/v1/graphs", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	hr.Header.Set("X-Tenant", tenant)
	resp, err := client.Do(hr)
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		var eb struct {
			Error string `json:"error"`
		}
		_ = json.Unmarshal(b, &eb)
		if eb.Error == "" {
			eb.Error = strings.TrimSpace(string(b))
		}
		return resp.StatusCode, []Event{{Type: "http-error", Err: eb.Error}}
	}
	var evs []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		evs = append(evs, e)
	}
	return resp.StatusCode, evs
}

func resultOf(evs []Event, key string) (any, bool) {
	for _, e := range evs {
		if e.Type == "result" && e.Key == key {
			return e.Value, true
		}
	}
	return nil, false
}

// taskLabels lists the labels of evs' task records in stream order.
func taskLabels(evs []Event) []string {
	var labels []string
	for _, e := range evs {
		if e.Type == "task" {
			labels = append(labels, e.Tasks...)
		}
	}
	return labels
}

func hasType(evs []Event, typ string) bool {
	for _, e := range evs {
		if e.Type == typ {
			return true
		}
	}
	return false
}

// sumGraph builds a two-const + sum diamondlet whose result is a+b.
func sumGraph(a, b float64) GraphRequest {
	return GraphRequest{Tasks: []TaskWire{
		{Label: "a", Op: "const", Arg: json.RawMessage(fmt.Sprintf("%g", a)), Provide: []string{"x"}},
		{Label: "b", Op: "const", Arg: json.RawMessage(fmt.Sprintf("%g", b)), Provide: []string{"y"}},
		{Label: "add", Op: "sum", Consume: []string{"x", "y"}, Provide: []string{"total"}},
	}, Results: []string{"total"}}
}

func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opt)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown()
	})
	return s, ts
}

func TestGraphEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, evs := postGraph(t, ts.Client(), ts.URL, "t0", sumGraph(20, 22))
	if status != 200 {
		t.Fatalf("status %d: %+v", status, evs)
	}
	if v, ok := resultOf(evs, "total"); !ok || v.(float64) != 42 {
		t.Fatalf("total = %v, want 42 (events %+v)", v, evs)
	}
	// Every task's label once, monotone seq, accepted first, done last.
	for i, e := range evs {
		if e.Seq != i+1 {
			t.Fatalf("seq %d at index %d", e.Seq, i)
		}
	}
	labels := taskLabels(evs)
	slices.Sort(labels)
	if !slices.Equal(labels, []string{"a", "add", "b"}) {
		t.Fatalf("task labels = %q, want a, add and b once each", labels)
	}
	if evs[0].Type != "accepted" || evs[len(evs)-1].Type != "done" {
		t.Fatalf("bookends wrong: %+v", evs)
	}
}

func TestRepeatRunsFrozenReplay(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	req := sumGraph(1, 2)
	req.Repeat = 5
	status, evs := postGraph(t, ts.Client(), ts.URL, "rep", req)
	if status != 200 {
		t.Fatalf("status %d: %+v", status, evs)
	}
	if v, _ := resultOf(evs, "total"); v.(float64) != 3 {
		t.Fatalf("total = %v, want 3", v)
	}
	last := evs[len(evs)-1]
	if last.Type != "done" || last.Iters != 5 {
		t.Fatalf("done event = %+v, want iters 5", last)
	}
	// Bodies re-ran every iteration but streamed only once per task.
	if labels := taskLabels(evs); len(labels) != 3 {
		t.Fatalf("task labels = %q, want 3", labels)
	}
	snap := s.Manager().Snapshot()["rep"]
	if snap.Tasks != 15 {
		t.Fatalf("tenant ran %d task bodies, want 15 (3 tasks x 5 iters)", snap.Tasks)
	}
}

func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name string
		req  GraphRequest
		want string
	}{
		{"empty", GraphRequest{}, "empty graph"},
		{"unknown-op", GraphRequest{Tasks: []TaskWire{{Op: "nope"}}}, "unknown op"},
		{"unprovided-consume", GraphRequest{Tasks: []TaskWire{
			{Op: "sum", Consume: []string{"ghost"}, Provide: []string{"out"}},
		}}, `consumes "ghost"`},
		{"consume-before-provide", GraphRequest{Tasks: []TaskWire{
			{Op: "sum", Consume: []string{"late"}, Provide: []string{"out"}},
			{Op: "const", Arg: json.RawMessage("1"), Provide: []string{"late"}},
		}}, `consumes "late"`},
		{"bad-result", GraphRequest{Tasks: []TaskWire{
			{Op: "const", Arg: json.RawMessage("1"), Provide: []string{"x"}},
		}, Results: []string{"y"}}, `result slot "y"`},
	}
	for _, tc := range cases {
		status, evs := postGraph(t, ts.Client(), ts.URL, "v", tc.req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, status)
			continue
		}
		if !strings.Contains(evs[0].Err, tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, evs[0].Err, tc.want)
		}
	}
	// Bad tenant names are rejected before any runtime is built.
	status, _ := postGraph(t, ts.Client(), ts.URL, "no/slash", sumGraph(1, 1))
	if status != http.StatusBadRequest {
		t.Errorf("bad tenant name: status %d, want 400", status)
	}
}

func TestConcurrentMultiTenantSubmission(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxTenants: 8, Queue: 64, GlobalInflight: 512})
	const tenants, perTenant = 6, 8
	var wg sync.WaitGroup
	errs := make(chan error, tenants*perTenant)
	for ti := 0; ti < tenants; ti++ {
		for c := 0; c < perTenant; c++ {
			wg.Add(1)
			go func(ti, c int) {
				defer wg.Done()
				a, b := float64(ti), float64(c*10)
				status, evs := postGraph(t, ts.Client(), ts.URL, fmt.Sprintf("ten-%d", ti), sumGraph(a, b))
				if status != 200 {
					errs <- fmt.Errorf("tenant %d client %d: status %d", ti, c, status)
					return
				}
				if v, ok := resultOf(evs, "total"); !ok || v.(float64) != a+b {
					errs <- fmt.Errorf("tenant %d client %d: total %v, want %g", ti, c, v, a+b)
				}
			}(ti, c)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestPoisonedTenantDoesNotAffectOthers(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxTenants: 4, Queue: 32, GlobalInflight: 128})
	poison := GraphRequest{Tasks: []TaskWire{
		{Label: "boom", Op: "fail", Arg: json.RawMessage(`"kaput"`), Provide: []string{"p"}},
		{Label: "victim", Op: "pass", Consume: []string{"p"}, Provide: []string{"q"}},
	}}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, evs := postGraph(t, ts.Client(), ts.URL, "bad", poison)
			if status != 200 {
				errs <- fmt.Errorf("bad[%d]: status %d", i, status)
				return
			}
			if !hasType(evs, "error") {
				errs <- fmt.Errorf("bad[%d]: no error event: %+v", i, evs)
			}
			if _, ok := resultOf(evs, "q"); ok {
				errs <- fmt.Errorf("bad[%d]: poisoned task produced a result", i)
			}
		}(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, evs := postGraph(t, ts.Client(), ts.URL, "good", sumGraph(float64(i), 1))
			if status != 200 {
				errs <- fmt.Errorf("good[%d]: status %d", i, status)
				return
			}
			if hasType(evs, "error") {
				errs <- fmt.Errorf("good[%d]: unexpected error event: %+v", i, evs)
			}
			if v, _ := resultOf(evs, "total"); v.(float64) != float64(i)+1 {
				errs <- fmt.Errorf("good[%d]: total %v", i, v)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The poisoned tenant's runtime stays reusable after its failures.
	status, evs := postGraph(t, ts.Client(), ts.URL, "bad", sumGraph(2, 3))
	if status != 200 || hasType(evs, "error") {
		t.Fatalf("bad tenant not reusable: status %d events %+v", status, evs)
	}
	snap := s.Manager().Snapshot()
	if snap["bad"].Failures == 0 {
		t.Error("bad tenant recorded no failures")
	}
	if snap["good"].Failures != 0 {
		t.Errorf("good tenant recorded %d failures", snap["good"].Failures)
	}
}

// spinChain builds n sequentially dependent spin tasks (a long-running
// graph that aborts promptly: unexecuted tasks are skipped).
func spinChain(n, iters int) GraphRequest {
	g := GraphRequest{Tasks: []TaskWire{
		{Label: "spin-0", Op: "spin", Arg: json.RawMessage(fmt.Sprint(iters)), Provide: []string{"s0"}},
	}}
	for i := 1; i < n; i++ {
		g.Tasks = append(g.Tasks, TaskWire{
			Label:   fmt.Sprintf("spin-%d", i),
			Op:      "spin",
			Arg:     json.RawMessage(fmt.Sprint(iters)),
			Consume: []string{fmt.Sprintf("s%d", i-1)},
			Provide: []string{fmt.Sprintf("s%d", i)},
		})
	}
	g.Results = []string{fmt.Sprintf("s%d", n-1)}
	return g
}

// startStreaming posts req and returns once the "accepted" event has
// been read, leaving the stream (and the admission slot) open.
func startStreaming(t *testing.T, ts *httptest.Server, tenant string, req GraphRequest) (cancel context.CancelFunc, done chan struct{}) {
	t.Helper()
	body, _ := json.Marshal(req)
	ctx, cancelFn := context.WithCancel(context.Background())
	hr, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/graphs", bytes.NewReader(body))
	hr.Header.Set("X-Tenant", tenant)
	resp, err := ts.Client().Do(hr)
	if err != nil {
		cancelFn()
		t.Fatalf("post: %v", err)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		cancelFn()
		t.Fatalf("stream closed before accepted event")
	}
	done = make(chan struct{})
	go func() {
		defer close(done)
		defer resp.Body.Close()
		for sc.Scan() {
		}
	}()
	return cancelFn, done
}

func TestQuotaRejectionReturns429(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxTenants: 2, Queue: 1, GlobalInflight: 64})
	cancel, done := startStreaming(t, ts, "busy", spinChain(64, 2_000_000))
	defer func() {
		cancel()
		<-done
	}()
	// The tenant's only admission slot is held by the open stream.
	status, evs := postGraph(t, ts.Client(), ts.URL, "busy", sumGraph(1, 1))
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%+v)", status, evs)
	}
	if !strings.Contains(evs[0].Err, "queue") {
		t.Fatalf("429 body %q does not name the queue quota", evs[0].Err)
	}
	// Another tenant is unaffected by the busy one's quota.
	status, evs = postGraph(t, ts.Client(), ts.URL, "idle", sumGraph(2, 2))
	if status != 200 {
		t.Fatalf("idle tenant: status %d (%+v)", status, evs)
	}
}

func TestGlobalInflightCapReturns429(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxTenants: 4, Queue: 8, GlobalInflight: 1})
	cancel, done := startStreaming(t, ts, "a", spinChain(64, 2_000_000))
	defer func() {
		cancel()
		<-done
	}()
	status, evs := postGraph(t, ts.Client(), ts.URL, "b", sumGraph(1, 1))
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%+v)", status, evs)
	}
	if !strings.Contains(evs[0].Err, "global") {
		t.Fatalf("429 body %q does not name the global cap", evs[0].Err)
	}
}

// waitTenantUsable retries a small graph until the tenant serves it
// correctly: after a disconnect the first request may still find the
// aborted window draining.
func waitTenantUsable(t *testing.T, ts *httptest.Server, tenant string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, evs := postGraph(t, ts.Client(), ts.URL, tenant, sumGraph(3, 4))
		if status == 200 && !hasType(evs, "error") {
			if v, _ := resultOf(evs, "total"); v != 7.0 {
				t.Fatalf("total %v after disconnect", v)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant unusable after disconnect: status %d events %+v", status, evs)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestClientDisconnectAbortsGraph(t *testing.T) {
	s, ts := newTestServer(t, Options{Queue: 4})
	// Long chain: ~64 * several ms of spin. Disconnect right after
	// acceptance; the abort must cut execution short and release the
	// tenant promptly.
	cancel, done := startStreaming(t, ts, "d", spinChain(64, 5_000_000))
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not close after disconnect")
	}
	waitTenantUsable(t, ts, "d")
	snap := s.Manager().Snapshot()["d"]
	if snap.Tasks >= 64 {
		t.Errorf("abort did not cut the chain: %d bodies ran", snap.Tasks)
	}
}

func TestTenantTeardownReleasesWorkers(t *testing.T) {
	s := New(Options{MaxTenants: 8, Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Shutdown()
	base := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		status, evs := postGraph(t, ts.Client(), ts.URL, fmt.Sprintf("gone-%d", i), sumGraph(1, float64(i)))
		if status != 200 {
			t.Fatalf("setup: status %d %+v", status, evs)
		}
	}
	for i := 0; i < 4; i++ {
		req, _ := http.NewRequest("DELETE", fmt.Sprintf("%s/v1/tenants/gone-%d", ts.URL, i), nil)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatalf("delete: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("delete gone-%d: status %d", i, resp.StatusCode)
		}
	}
	// Deleting again is a 404.
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/tenants/gone-0", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("re-delete: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("re-delete: status %d, want 404", resp.StatusCode)
	}
	// Worker goroutines must be gone (allow HTTP conn goroutines to
	// settle).
	ts.CloseClientConnections()
	waitGoroutines(t, base)
	if len(s.Manager().Snapshot()) != 0 {
		t.Fatal("tenants left in pool")
	}
}

func TestObservabilityEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	if status, _ := postGraph(t, ts.Client(), ts.URL, "obs", sumGraph(1, 2)); status != 200 {
		t.Fatal("setup failed")
	}
	get := func(path string) (int, string) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if status, body := get("/metrics"); status != 200 ||
		!strings.Contains(body, "tdgserve_requests_total 1") ||
		!strings.Contains(body, `tdgserve_tenant_tasks_total{tenant="obs"} 3`) {
		t.Errorf("/metrics: status %d body:\n%s", status, body)
	}
	if status, body := get("/graphz"); status != 200 || !strings.Contains(body, `"obs"`) {
		t.Errorf("/graphz: status %d body %s", status, body)
	}
	if status, body := get("/v1/tenants"); status != 200 || !strings.Contains(body, `"submissions": 1`) {
		t.Errorf("/v1/tenants: status %d body %s", status, body)
	}
	// Per-tenant endpoints delegate to the tenant runtime's registry.
	if status, body := get("/v1/tenants/obs/metrics"); status != 200 || !strings.Contains(body, "taskdep_tasks_submitted_total") {
		t.Errorf("/v1/tenants/obs/metrics: status %d body:\n%.400s", status, body)
	}
	if status, body := get("/v1/tenants/obs/graphz"); status != 200 || !strings.Contains(body, `"workers"`) {
		t.Errorf("/v1/tenants/obs/graphz: status %d body %s", status, body)
	}
	if status, _ := get("/v1/tenants/nosuch/metrics"); status != http.StatusNotFound {
		t.Errorf("missing tenant metrics: status %d, want 404", status)
	}
	if status, body := get("/healthz"); status != 200 || body != "ok\n" {
		t.Errorf("/healthz: %d %q", status, body)
	}
}

// runOp parses arg for the operator name and runs one execution of its
// Do on slots holding in; a parse error is the execution's error, as on
// a tenant.
func runOp(name string, arg json.RawMessage, in ...any) (any, error) {
	op := Ops[name]
	var a Arg
	if op.Parse != nil {
		var err error
		if a, err = op.Parse(arg); err != nil {
			return nil, err
		}
	}
	s := values.NewStore()
	hs := make([]values.Handle, len(in))
	for i, v := range in {
		hs[i] = s.Bind(fmt.Sprint("in", i))
		hs[i].SetAny(v)
	}
	r, err := op.Do(&a, hs)
	if r.IsNum {
		return r.Num, err
	}
	return r.Val, err
}

func TestOps(t *testing.T) {
	raw := func(s string) json.RawMessage { return json.RawMessage(s) }
	if v, err := runOp("const", raw(`{"a":1}`)); err != nil || v.(map[string]any)["a"].(float64) != 1 {
		t.Errorf("const: %v %v", v, err)
	}
	if _, err := runOp("const", nil); err == nil {
		t.Error("const without arg should fail")
	}
	if v, _ := runOp("sum", raw("10"), 1.0, 2.0); v.(float64) != 13 {
		t.Errorf("sum: %v", v)
	}
	if _, err := runOp("sum", nil, "nope"); err == nil {
		t.Error("sum of string should fail")
	}
	if v, _ := runOp("mul", nil, 3.0, 4.0); v.(float64) != 12 {
		t.Errorf("mul: %v", v)
	}
	if v, _ := runOp("concat", raw(`"-"`), "a", "b"); v.(string) != "a-b" {
		t.Errorf("concat: %v", v)
	}
	if v, _ := runOp("pass", nil, "x"); v.(string) != "x" {
		t.Errorf("pass: %v", v)
	}
	if _, err := runOp("pass", nil); err == nil {
		t.Error("pass without input should fail")
	}
	if _, err := runOp("spin", raw(fmt.Sprint(spinCap+1))); err == nil {
		t.Error("spin over cap should fail")
	}
	if _, err := runOp("fail", raw(`"msg"`)); err == nil || !strings.Contains(err.Error(), "msg") {
		t.Errorf("fail: %v", err)
	}
}

// TestNullArgIsAbsent: for the numeric operators an argument of null is
// the same as none (the operator's default); for const it is the literal.
// Each row runs on a tenant, so it goes through parse and execution.
func TestNullArgIsAbsent(t *testing.T) {
	const spinDefault = 1000
	for _, tc := range []struct {
		op, arg string // arg "" is absent
		want    any    // the result; an error's text when err
		err     bool
	}{
		{op: "sum", want: 5.0},
		{op: "sum", arg: "null", want: 5.0},
		{op: "sum", arg: " null ", want: 5.0},
		{op: "sum", arg: "2.5", want: 7.5},
		{op: "sum", arg: "-1e1", want: -5.0},
		{op: "sum", arg: `"2"`, err: true, want: "sum: numeric arg: json: cannot unmarshal string into Go value of type float64"},
		{op: "sum", arg: "nul", err: true, want: "sum: numeric arg: invalid character ' ' in literal null (expecting 'l')"},
		{op: "sum", arg: "01", err: true, want: "sum: numeric arg: invalid character '1' after top-level value"},
		{op: "sum", arg: "1e400", err: true, want: "sum: numeric arg: json: cannot unmarshal number 1e400 into Go value of type float64"},
		{op: "mul", want: 5.0},
		{op: "mul", arg: "null", want: 5.0},
		{op: "mul", arg: "3", want: 15.0},
		{op: "mul", arg: "[]", err: true, want: "mul: numeric arg: json: cannot unmarshal array into Go value of type float64"},
		{op: "spin", want: spin(1, spinDefault)},
		{op: "spin", arg: "null", want: spin(1, spinDefault)},
		{op: "spin", arg: "7", want: spin(1, 7)},
		{op: "spin", arg: "-1", err: true, want: "spin: -1 out of range [0,50000000]"},
		{op: "spin", arg: "true", err: true, want: "spin: numeric arg: json: cannot unmarshal bool into Go value of type float64"},
		{op: "const", err: true, want: "const: missing arg"},
		{op: "const", arg: "null", want: nil},
		{op: "const", arg: "4", want: 4.0},
		{op: "const", arg: `{"a":[1]}`, want: map[string]any{"a": []any{1.0}}},
		{op: "const", arg: "{", err: true, want: "const: unexpected end of JSON input"},
	} {
		{
			name := fmt.Sprintf("%s/%q", tc.op, tc.arg)
			tn := newTestTenant(t, Options{})
			task := TaskWire{Label: "op", Op: tc.op, Consume: []string{"x"}, Provide: []string{"out"}}
			if tc.arg != "" {
				task.Arg = json.RawMessage(tc.arg)
			}
			req := GraphRequest{Tasks: []TaskWire{{Op: "const", Arg: json.RawMessage("5"), Provide: []string{"x"}}, task}, Results: []string{"out"}}
			evs, err := runCollect(tn, &req)
			if tc.err {
				if err == nil || !strings.Contains(err.Error(), fmt.Sprint(tc.want)) {
					t.Errorf("%s: error %v, want %q", name, err, tc.want)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			if v, _ := resultOf(evs, "out"); !reflect.DeepEqual(v, tc.want) {
				t.Errorf("%s: out = %#v, want %#v", name, v, tc.want)
			}
		}
	}
}

// TestTenantCriticalPathEndpoint: with Options.CPath every tenant
// runtime carries the online critical-path profiler, and the per-tenant
// summary route serves the last window's report plus the service-level
// classification; without it the route 404s so operators can tell the
// feature is off rather than idle.
func TestTenantCriticalPathEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{CPath: true})
	if status, _ := postGraph(t, ts.Client(), ts.URL, "cpt", sumGraph(1, 2)); status != 200 {
		t.Fatal("setup graph failed")
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/tenants/cpt/criticalpath")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var sum struct {
		Tenant  string `json:"tenant"`
		Enabled bool   `json:"enabled"`
		Report  *struct {
			Tasks int64 `json:"tasks"`
			CPLen int   `json:"cp_len"`
		} `json:"report"`
		Bound             string `json:"bound"`
		DiscoveryImpacted bool   `json:"discovery_impacted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if sum.Tenant != "cpt" || !sum.Enabled {
		t.Fatalf("summary: %+v", sum)
	}
	// Tenants run the production cached clock: sub-tick tasks quantize
	// to zero weight, so only the path's length floor is deterministic.
	if sum.Report == nil || sum.Report.Tasks != 3 || sum.Report.CPLen < 1 {
		t.Fatalf("report: %+v", sum.Report)
	}
	switch sum.Bound {
	case "discovery", "ready-wait", "execute":
	default:
		t.Fatalf("bound classification %q", sum.Bound)
	}

	// Profiling off: the route must 404 for an existing tenant.
	_, tsOff := newTestServer(t, Options{})
	if status, _ := postGraph(t, tsOff.Client(), tsOff.URL, "plain", sumGraph(1, 2)); status != 200 {
		t.Fatal("setup graph failed")
	}
	for _, path := range []string{"/v1/tenants/plain/criticalpath", "/v1/tenants/nosuch/criticalpath"} {
		r2, err := tsOff.Client().Get(tsOff.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, r2.StatusCode)
		}
	}
}
