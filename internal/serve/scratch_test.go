package serve

import (
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
	"unsafe"

	"taskdep/internal/values"
)

// serveWith runs one POST /v1/graphs through the handler's body on a
// scratch the test owns, and returns the response.
func serveWith(s *Server, sc *reqScratch, tenant string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	hr := httptest.NewRequest("POST", "/v1/graphs", bytes.NewReader(body))
	hr.Header.Set("X-Tenant", tenant)
	s.serveGraph(rec, hr, sc)
	return rec
}

// maximalBody is a request at the wire limits that Validate accepts:
// MaxTasks tasks, each providing a slot of its own and consuming the
// eight before it.
func maximalBody() []byte {
	var b bytes.Buffer
	b.WriteString(`{"tasks":[`)
	for i := 0; i < MaxTasks; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"op":"sum","consume":[`)
		for j := max(0, i-8); j < i; j++ {
			if j > max(0, i-8) {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `"slot-%d"`, j)
		}
		fmt.Fprintf(&b, `],"provide":["slot-%d"]}`, i)
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// scratchIsClean reports whether nothing of a request is left in sc,
// over the whole capacity of its buffers.
func scratchIsClean(sc *reqScratch) bool {
	zeroEvent := func(e Event) bool { return reflect.ValueOf(e).IsZero() }
	set := func(s string) bool { return s != "" }
	return !slices.ContainsFunc(sc.names[:cap(sc.names)], set) &&
		!slices.ContainsFunc(sc.stream.labels[:cap(sc.stream.labels)], set) &&
		!slices.ContainsFunc(sc.stream.mbox.labels[:cap(sc.stream.mbox.labels)], set) &&
		!slices.ContainsFunc(sc.tasks[:cap(sc.tasks)], func(t TaskWire) bool { return !zeroTask(t) }) &&
		!slices.ContainsFunc(sc.stream.batch[:cap(sc.stream.batch)], func(e Event) bool { return !zeroEvent(e) }) &&
		!slices.ContainsFunc(sc.stream.mbox.pending[:cap(sc.stream.mbox.pending)], func(e Event) bool { return !zeroEvent(e) }) &&
		len(sc.names) == 0 && len(sc.tasks) == 0 && len(sc.provided) == 0 && len(sc.stream.mbox.labels) == 0 &&
		sc.req.Tasks == nil && sc.req.Results == nil && sc.req.Repeat == 0 && sc.key == nil
}

func zeroTask(t TaskWire) bool {
	return t.Label == "" && t.Op == "" && t.Arg == nil && t.Consume == nil && t.Provide == nil && t.Update == nil
}

// TestScratchReleasedClean: after a request — served, refused by the
// decoder half way, or refused by Validate — release leaves no string,
// task or event in the scratch, and what a replay-sized request grows it
// to (about 225 KB) is under the pooling bound.
func TestScratchReleasedClean(t *testing.T) {
	s := New(Options{})
	defer s.Shutdown()
	replay := latticeBody(16, 32, 8, false)
	for _, tc := range []struct {
		name   string
		body   []byte
		status int
	}{
		{"served", replay, http.StatusOK},
		{"all slots reported", latticeBody(8, 11, 1, true), http.StatusOK},
		{"decoder stops half way", append(slices.Clone(replay[:len(replay)/2]), '!'), http.StatusBadRequest},
		{"duplicate tasks shrink the arena", []byte(`{"tasks":[{"op":"a","label":"l","consume":["x"]},{"op":"b"},{"op":"c"}],"tasks":[{"op":"nope"}]}`), http.StatusBadRequest},
		{"failed graph", []byte(`{"tasks":[{"label":"boom","op":"fail","arg":"no","provide":["x"]},{"op":"pass","consume":["x"],"provide":["y"]}]}`), http.StatusOK},
	} {
		sc := new(reqScratch)
		if rec := serveWith(s, sc, "clean", tc.body); rec.Code != tc.status {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, rec.Code, tc.status, rec.Body)
		}
		if got := sc.footprint(); got > maxPooledScratch {
			t.Errorf("%s: scratch holds %d bytes, pooling bound %d", tc.name, got, maxPooledScratch)
		}
		if tc.status == http.StatusOK && len(sc.provided) == 0 {
			t.Errorf("%s: Validate did not use the scratch's set of provided slots", tc.name)
		}
		sc.release()
		if !scratchIsClean(sc) {
			t.Errorf("%s: released scratch still holds request data: %+v", tc.name, sc)
		}
	}
}

// TestOversizedScratchIsNotPooled: a maximal request outgrows the bound,
// so its scratch is dropped; whatever the pool hands out afterwards is
// under the bound, small requests having run in between or not.
func TestOversizedScratchIsNotPooled(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	body := maximalBody()
	sc := new(reqScratch)
	if rec := serveWith(s, sc, "max", body); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"type":"done"`) {
		t.Fatalf("maximal request: status %d, %.200s", rec.Code, rec.Body)
	}
	if got := sc.footprint(); got <= maxPooledScratch {
		t.Fatalf("a maximal request (%d body bytes) left a scratch of %d bytes: not a test of the bound %d", len(body), got, maxPooledScratch)
	}
	sc.release() // dropped

	// The same through the server's own pool, then small traffic.
	post := func(body []byte) {
		resp, err := ts.Client().Post(ts.URL+"/v1/graphs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	post(body)
	for i := 0; i < 8; i++ {
		post(latticeBody(4, 10, 1, true))
	}
	for i := 0; i < 4*runtime.GOMAXPROCS(0); i++ {
		if got := scratchPool.Get().(*reqScratch); got.footprint() > maxPooledScratch || !scratchIsClean(got) {
			t.Fatalf("pool handed out a scratch of %d bytes, clean = %v", got.footprint(), scratchIsClean(got))
		}
	}
}

// slotGraph is a request whose slots, labels and values all carry id: two
// constants, their sum, and a chain of n passes over it.
func slotGraph(id, n int) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"tasks":[{"op":"const","arg":%[1]d,"provide":["r%[1]d_a"]},{"label":"b%[1]d","op":"const","arg":1000,"provide":["r%[1]d_b"]},`+
		`{"op":"sum","consume":["r%[1]d_a","r%[1]d_b"],"provide":["r%[1]d_0"]}`, id)
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, `,{"op":"pass","consume":["r%[1]d_%[2]d"],"provide":["r%[1]d_%[3]d"]}`, id, i-1, i)
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// TestConcurrentRequestsKeepTheirOwnArenas: 32 requests at a time over 4
// tenants, every body distinct; each stream must report exactly its own
// request's slots with its own values. Run under -race.
func TestConcurrentRequestsKeepTheirOwnArenas(t *testing.T) {
	_, ts := newTestServer(t, Options{Queue: 64})
	const clients, rounds = 32, 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				id, n := c*rounds+round, 5+(c+round)%40
				hr, _ := http.NewRequest("POST", ts.URL+"/v1/graphs", bytes.NewReader(slotGraph(id, n)))
				hr.Header.Set("X-Tenant", fmt.Sprintf("tenant-%d", c%4))
				resp, err := ts.Client().Do(hr)
				if err != nil {
					t.Errorf("request %d: %v", id, err)
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("request %d: status %d: %s", id, resp.StatusCode, raw)
					return
				}
				want := map[string]float64{fmt.Sprintf("r%d_a", id): float64(id), fmt.Sprintf("r%d_b", id): 1000}
				for i := 0; i <= n; i++ {
					want[fmt.Sprintf("r%d_%d", id, i)] = float64(id) + 1000
				}
				labelled := false
				for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
					var e Event
					if err := json.Unmarshal(line, &e); err != nil {
						t.Errorf("request %d: bad record %q", id, line)
						return
					}
					switch e.Type {
					case "error":
						t.Errorf("request %d: %+v", id, e)
					case "task":
						for _, label := range e.Tasks {
							labelled = labelled || label == fmt.Sprintf("b%d", id)
							if strings.HasPrefix(label, "b") && label != fmt.Sprintf("b%d", id) {
								t.Errorf("request %d streamed another request's label %q", id, label)
							}
						}
					case "result":
						if v, ok := want[e.Key]; !ok || e.Value != v {
							t.Errorf("request %d: slot %q = %v, want %v (its own: %v)", id, e.Key, e.Value, v, ok)
						}
						delete(want, e.Key)
					}
				}
				if len(want) != 0 || !labelled {
					t.Errorf("request %d: %d slots unreported, own label seen = %v", id, len(want), labelled)
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestDisconnectedRequestKeepsItsScratch: a request whose client leaves
// while it waits for the tenant still owns its scratch when its turn
// comes; requests served in the meantime must not have been given it.
// Every task's arg is recorded as build hands it to the operator: had the
// scratch been recycled at the disconnect, build would read the later
// requests' tasks.
func TestDisconnectedRequestKeepsItsScratch(t *testing.T) {
	var (
		mu   sync.Mutex
		seen = map[string]int{}
	)
	gate := make(chan struct{})
	registerOp(t, "test-hold", bodyOp(func() (any, error) { <-gate; return 1.0, nil }))
	registerOp(t, "test-probe", &Op{
		Parse: func(arg json.RawMessage) (Arg, error) {
			mu.Lock()
			seen[string(arg)]++
			mu.Unlock()
			return Arg{}, nil
		},
		Do: func(*Arg, []values.Handle) (Arg, error) { return number(1), nil },
	})
	probes := func(who string, n int) GraphRequest {
		var g GraphRequest
		for i := 0; i < n; i++ {
			g.Tasks = append(g.Tasks, TaskWire{Op: "test-probe", Arg: json.RawMessage(fmt.Sprintf(`"%s-%03d"`, who, i)),
				Provide: []string{fmt.Sprintf("%s%d", who, i)}})
		}
		return g
	}
	_, ts := newTestServer(t, Options{Queue: 4})

	// A holds the tenant; B is admitted behind it and its client leaves.
	cancelA, doneA := startStreaming(t, ts, "shared", GraphRequest{Tasks: []TaskWire{{Op: "test-hold", Provide: []string{"h"}}}})
	defer cancelA()
	const n = 200
	cancelB, doneB := startStreaming(t, ts, "shared", probes("B", n))
	cancelB()
	<-doneB
	// Traffic of the same size on other tenants, while B's handler waits.
	const others = 6
	for i := 0; i < others; i++ {
		if status, evs := postGraph(t, ts.Client(), ts.URL, fmt.Sprintf("other-%d", i%2), probes("C", n)); status != 200 || hasType(evs, "error") {
			t.Fatalf("traffic request %d: status %d %+v", i, status, evs)
		}
	}
	close(gate)
	<-doneA
	waitTenantUsable(t, ts, "shared") // B has had its turn by the time a later request is served
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		if b, c := seen[fmt.Sprintf(`"B-%03d"`, i)], seen[fmt.Sprintf(`"C-%03d"`, i)]; b != 1 || c != others {
			t.Fatalf("task %d: built %d times for B and %d times for the others, want 1 and %d", i, b, c, others)
		}
	}
}

// TestWarmStreamAllocatesNoBuffers: on a stream state that has served a
// 513-task request before, the next one allocates neither an event batch,
// nor a label lane, nor an output buffer.
func TestWarmStreamAllocatesNoBuffers(t *testing.T) {
	const tasks = 513
	req := GraphRequest{Tasks: make([]TaskWire, tasks), Results: []string{"out"}}
	st := new(streamState)
	var result any = 42.0
	label := []string{"task-511"}
	run := func() {
		st.reserve(tasks, maxEvents(&req))
		stream(io.Discard, func() {}, st, Event{Type: "accepted", Key: "t"}, func(m *mailbox) {
			for i := 0; i < tasks; i++ {
				m.done(label)
			}
			m.put(Event{Type: "result", Key: "out", Value: result})
			m.put(Event{Type: "done", Iters: 8, Elapsed: 0.0021})
		})
	}
	run()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	// A goroutine and two closures, about 100 bytes (a kilobyte under the
	// race detector); the output buffer, the one a regrowth allocates
	// least for, takes 6 KB for the task record.
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 4<<10 {
		t.Fatalf("a warm %d-task stream allocates %d bytes: it regrew a buffer", tasks, perRun)
	}
	if cap(st.batch) < maxEvents(&req) || cap(st.mbox.pending) < maxEvents(&req) || cap(st.labels) < tasks || cap(st.mbox.labels) < tasks {
		t.Fatalf("batches hold %d and %d events and %d and %d labels, reserved %d and %d",
			cap(st.batch), cap(st.mbox.pending), cap(st.labels), cap(st.mbox.labels), maxEvents(&req), tasks)
	}
}

// TestLimitsOverHTTP: a body over MaxBodyBytes is refused as too
// large, with or without a Content-Length, and counted as a bad request;
// so are a graph of more than MaxTasks tasks and an arg over MaxArgBytes,
// both stopped by the decoder.
func TestLimitsOverHTTP(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	oversize := append(bytes.Repeat([]byte(" "), MaxBodyBytes), `{"tasks":[]}`...)
	for i, tc := range []struct {
		name   string
		body   io.Reader
		status int
		want   string
	}{
		{"oversize body", bytes.NewReader(oversize), http.StatusRequestEntityTooLarge, "request body exceeds 4194304 bytes"},
		{"oversize chunked body", io.MultiReader(bytes.NewReader(oversize)), http.StatusRequestEntityTooLarge, "request body exceeds 4194304 bytes"},
		{"body at the limit", bytes.NewReader(oversize[len(`{"tasks":[]}`):]), http.StatusBadRequest, "empty graph"},
		{"100 000 tasks", bytes.NewReader(manyTasks(100000)), http.StatusBadRequest, "more than 4096 tasks"},
		{"long arg", strings.NewReader(`{"tasks":[{"op":"const","arg":"` + strings.Repeat("a", MaxArgBytes) + `"}]}`), http.StatusBadRequest, "arg exceeds 65536 bytes"},
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/graphs", "application/json", tc.body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var reply struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if resp.StatusCode != tc.status || !strings.Contains(reply.Error, tc.want) {
			t.Errorf("%s: status %d, error %q; want %d mentioning %q", tc.name, resp.StatusCode, reply.Error, tc.status, tc.want)
		}
		if got := s.badRequests.Load(); got != int64(i+1) {
			t.Errorf("%s: %d bad requests counted, want %d", tc.name, got, i+1)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(metrics, []byte("\ntdgserve_bad_requests_total 5\n")) {
		t.Errorf("/metrics does not count the five refusals:\n%s", metrics)
	}
}

// aliases reports whether s is a view of parent's bytes.
func aliases(s, parent string) bool {
	if len(s) == 0 || len(parent) == 0 {
		return false
	}
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(parent)))
	return lo <= p && p < lo+uintptr(len(parent))
}

// TestTenantKeepsNoViewOfTheBody: the decoded request is made of views
// of the body, and nothing the tenant can still reach after Run — the
// store's names, the labels of tasks the runtime remembers — is one, so
// a tenant does not keep the last body it was sent (up to 4 MiB) alive.
func TestTenantKeepsNoViewOfTheBody(t *testing.T) {
	m := NewManager(Options{})
	defer m.CloseAll()
	tn, err := m.Tenant("views")
	if err != nil {
		t.Fatal(err)
	}
	raw := latticeBody(6, 6, 1, true)
	d := decoder{s: string(raw), raw: raw, a: new(arenas)}
	var req GraphRequest
	if err := d.request(&req); err != nil {
		t.Fatal(err)
	}
	last := &req.Tasks[len(req.Tasks)-1]
	arg := bytes.Index(raw, []byte(`"arg":`)) + len(`"arg":`)
	if !aliases(last.Label, d.s) || !aliases(last.Op, d.s) || !aliases(req.Tasks[0].Provide[0], d.s) || &req.Tasks[0].Arg[0] != &raw[arg] {
		t.Fatal("decoded strings are not views of the body: not a test of the lifetime rule")
	}

	g, results, names := tn.build(&req, emitFunc(func(Event) {}))
	for i := range g.tasks {
		if aliases(g.tasks[i].label[0], d.s) {
			t.Errorf("task %d's label %q is a view of the body", i, g.tasks[i].label[0])
		}
	}
	if g.tasks[len(g.tasks)-1].label[0] != "tail" || g.tasks[7].label[0] != "task-7" {
		t.Errorf("labels %q, %q", g.tasks[len(g.tasks)-1].label[0], g.tasks[7].label[0])
	}
	if len(results) != len(names) || len(results) != 37 {
		t.Errorf("%d result slots under %d names, want 37", len(results), len(names))
	}

	var (
		mu     sync.Mutex
		events []Event
	)
	err = tn.Run(context.Background(), &req, func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	if err != nil || len(events) != 37+37 {
		t.Errorf("%d events, want a transition and a result per task (%v)", len(events), err)
	}
	for _, name := range tn.store.Names() {
		if aliases(name, d.s) {
			t.Errorf("the store's name %q is a view of the body", name)
		}
	}
}
