package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"taskdep/internal/values"
)

// recorder is a stream sink that keeps every Write apart and counts the
// flushes; onWrite, when set, runs inside each Write.
type recorder struct {
	mu      sync.Mutex
	writes  [][]byte
	flushes int
	onWrite func(n int)
}

func (r *recorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	r.writes = append(r.writes, append([]byte(nil), p...))
	n := len(r.writes)
	r.mu.Unlock()
	if r.onWrite != nil {
		r.onWrite(n)
	}
	return len(p), nil
}

func (r *recorder) flush() {
	r.mu.Lock()
	r.flushes++
	r.mu.Unlock()
}

// decodeRecords parses NDJSON bytes into events.
func decodeRecords(t *testing.T, b []byte) []Event {
	t.Helper()
	var evs []Event
	for _, line := range bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n")) {
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("bad record %q: %v", line, err)
		}
		evs = append(evs, e)
	}
	return evs
}

func TestMailboxTakesEverythingPending(t *testing.T) {
	var m mailbox
	m.open()
	const n = 100
	for i := 0; i < n; i++ {
		m.put(Event{Type: "result", Iters: i + 1})
		m.done([]string{fmt.Sprint("t", i)})
	}
	batch, labels, closed := m.take(nil, nil)
	if len(batch) != n || len(labels) != n || closed {
		t.Fatalf("take = %d events and %d labels, closed %v; want %d, %d, false", len(batch), len(labels), closed, n, n)
	}
	for i, e := range batch {
		if e.Iters != i+1 || labels[i] != fmt.Sprint("t", i) {
			t.Fatalf("event or label %d out of order: %+v, %q", i, e, labels[i])
		}
	}
	// A lane with nothing else pending wakes the taker as an event does.
	m.done([]string{"last"})
	batch, labels, closed = m.take(batch, labels)
	if len(batch) != 0 || !slices.Equal(labels, []string{"last"}) || closed {
		t.Fatalf("a label alone: take = %+v, %q, closed %v", batch, labels, closed)
	}
	m.put(Event{Type: "done"})
	m.close()
	batch, labels, closed = m.take(batch, labels)
	if len(batch) != 1 || len(labels) != 0 || !closed || batch[0].Type != "done" {
		t.Fatalf("last take = %+v, %q, closed %v", batch, labels, closed)
	}
}

// streamBurst streams accepted, a lone "first" transition, then what
// burst emits into the mailbox while the writer is stuck writing
// "first", and returns what the writer did. `accepted` must be written
// and flushed before the producer starts.
func streamBurst(t *testing.T, burst func(m *mailbox)) *recorder {
	t.Helper()
	inWrite := make(chan struct{})
	release := make(chan struct{})
	rec := &recorder{}
	rec.onWrite = func(n int) {
		if n == 2 { // the write carrying the lone first transition
			close(inWrite)
			<-release
		}
	}
	var flushedBeforeStart int
	stream(rec, rec.flush, new(streamState), Event{Type: "accepted", Key: "t"}, func(m *mailbox) {
		rec.mu.Lock()
		flushedBeforeStart = rec.flushes
		rec.mu.Unlock()
		m.done([]string{"first"})
		<-inWrite // the writer is now stuck in Write; everything below piles up
		burst(m)
		close(release)
	})
	if flushedBeforeStart != 1 {
		t.Fatalf("%d flushes before the producer started, want 1 (accepted)", flushedBeforeStart)
	}
	if len(rec.writes) != 3 || rec.flushes != 3 {
		t.Fatalf("%d writes, %d flushes; want 3 and 3 (accepted, first, burst)", len(rec.writes), rec.flushes)
	}
	evs := decodeRecords(t, bytes.Join(rec.writes, nil))
	for i, e := range evs {
		if e.Seq != i+1 {
			t.Fatalf("record %d carries seq %d", i+1, e.Seq)
		}
	}
	return rec
}

// TestStreamOneFlushPerBurst: events emitted while the writer is busy
// go out in one write and one flush when it comes back, numbered
// contiguously after what was already written, the burst of task
// transitions as one record listing its labels in emission order.
func TestStreamOneFlushPerBurst(t *testing.T) {
	const burst = 200
	var labels, types []string
	for i := 0; i < burst; i++ {
		labels = append(labels, fmt.Sprintf("b%d", i))
	}
	rec := streamBurst(t, func(m *mailbox) {
		for i := range labels {
			m.done(labels[i : i+1])
		}
		m.put(Event{Type: "done", Iters: 1})
	})
	for _, e := range decodeRecords(t, rec.writes[2]) {
		types = append(types, e.Type)
		if e.Type == "task" && !slices.Equal(e.Tasks, labels) {
			t.Fatalf("the burst's task record lists %q, want b0 … b%d in order", e.Tasks, burst-1)
		}
	}
	if want := []string{"task", "done"}; !slices.Equal(types, want) {
		t.Fatalf("burst write carries %q, want %q", types, want)
	}
}

// TestStreamJoinsTaskRunsOfOnePass: the labels a pass drains make one
// task record, written ahead of the pass's other events — the order in
// which a request emits them — and numbered contiguously with them. The
// bytes are what encoding the same records one Event at a time writes.
func TestStreamJoinsTaskRunsOfOnePass(t *testing.T) {
	rec := streamBurst(t, func(m *mailbox) {
		m.done([]string{"a"})
		m.done([]string{"b"})
		m.done([]string{"c"})
		m.put(Event{Type: "result", Key: "x", Value: 1.0})
		m.put(Event{Type: "error", Tasks: []string{"e"}, Err: "boom"})
		m.put(Event{Type: "done", Iters: 1})
	})
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, e := range []Event{
		{Type: "task", Seq: 3, Tasks: []string{"a", "b", "c"}, State: "done"},
		{Type: "result", Seq: 4, Key: "x", Value: 1.0},
		{Type: "error", Seq: 5, Tasks: []string{"e"}, Err: "boom"},
		{Type: "done", Seq: 6, Iters: 1},
	} {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	if got := rec.writes[2]; !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("burst write\n got %s\nwant %s", got, want.Bytes())
	}
}

// registerOp adds a test-only operator for the duration of the test.
func registerOp(t *testing.T, name string, op *Op) {
	t.Helper()
	Ops[name] = op
	t.Cleanup(func() { delete(Ops, name) })
}

// bodyOp is an operator that ignores its argument and inputs and runs
// body, whose result it stores.
func bodyOp(body func() (any, error)) *Op {
	return &Op{Do: func(*Arg, []values.Handle) (Arg, error) {
		v, err := body()
		return Arg{Val: v}, err
	}}
}

// TestStreamLiveness: no event waits for a later one. A task in the
// middle of the graph is held (a spin that lasts exactly as long as the
// test needs); everything emitted before it must reach the client while
// it is still running.
func TestStreamLiveness(t *testing.T) {
	gate := make(chan struct{})
	registerOp(t, "test-hold", bodyOp(func() (any, error) { <-gate; return 1.0, nil }))
	_, ts := newTestServer(t, Options{})
	req := GraphRequest{Tasks: []TaskWire{
		{Label: "a", Op: "const", Arg: json.RawMessage("1"), Provide: []string{"a"}},
		{Label: "b", Op: "sum", Consume: []string{"a"}, Provide: []string{"b"}},
		{Label: "hold", Op: "test-hold", Consume: []string{"b"}, Provide: []string{"h"}},
		{Label: "tail", Op: "sum", Consume: []string{"h"}, Provide: []string{"out"}},
	}, Results: []string{"out"}}
	body, _ := json.Marshal(req)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	hr, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/graphs", bytes.NewReader(body))
	hr.Header.Set("X-Tenant", "live")
	resp, err := ts.Client().Do(hr)
	if err != nil {
		close(gate)
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var (
		first  string
		labels []string
	)
	read := func() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Errorf("bad record %q: %v", sc.Text(), err)
		}
		if first == "" {
			first = e.Type
		}
		labels = append(labels, e.Tasks...)
	}
	for len(labels) < 2 && sc.Scan() { // blocks until the records are on the wire
		read()
	}
	close(gate) // "hold" was still running up to here
	if first != "accepted" || !slices.Equal(labels, []string{"a", "b"}) {
		t.Fatalf("read %q after %q while the held task ran, want a and b after accepted (err %v)", labels, first, sc.Err())
	}
	for sc.Scan() {
		read()
	}
	if !slices.Equal(labels, []string{"a", "b", "hold", "tail"}) {
		t.Fatalf("stream listed %q, want every label once in completion order", labels)
	}
}

// fanGraph is one const feeding n independent spin tasks and a sum tail:
// with several workers, events are emitted concurrently.
func fanGraph(n, iters int) GraphRequest {
	g := GraphRequest{Tasks: []TaskWire{
		{Label: "head", Op: "const", Arg: json.RawMessage("1"), Provide: []string{"head"}},
	}}
	tail := TaskWire{Label: "tail", Op: "sum", Provide: []string{"out"}}
	for i := 0; i < n; i++ {
		slot := fmt.Sprintf("f%d", i)
		g.Tasks = append(g.Tasks, TaskWire{Label: slot, Op: "spin", Arg: json.RawMessage(fmt.Sprint(iters)),
			Consume: []string{"head"}, Provide: []string{slot}})
		tail.Consume = append(tail.Consume, slot)
	}
	g.Tasks = append(g.Tasks, tail)
	g.Results = []string{"out"}
	return g
}

// waitGoroutines fails the test unless the goroutine count settles back
// to base (HTTP connection goroutines take a moment to exit).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d > baseline %d", n, base)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestStreamConcurrentEmittersSlowReaderAndDisconnect: four workers
// emit at once. A slow reader still receives every record, in order; a
// reader that goes away mid-burst aborts the window, the tenant stays
// usable, and nothing is left running once the server is torn down.
func TestStreamConcurrentEmittersSlowReaderAndDisconnect(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Options{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	const fan = 600

	// Slow reader: the server's writes back up, the workers do not.
	body, _ := json.Marshal(fanGraph(fan, 100))
	hr, _ := http.NewRequest("POST", ts.URL+"/v1/graphs", bytes.NewReader(body))
	hr.Header.Set("X-Tenant", "fan")
	resp, err := ts.Client().Do(hr)
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	br := bufio.NewReaderSize(resp.Body, 64)
	n, tasks, records := 0, 0, 0
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			n++
			var e Event
			if uerr := json.Unmarshal(line, &e); uerr != nil || e.Seq != n {
				t.Fatalf("record %d = %q (%v)", n, line, uerr)
			}
			if e.Type == "task" {
				tasks += len(e.Tasks)
				records++
			}
			if n%50 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
		if err != nil {
			break
		}
	}
	resp.Body.Close()
	if tasks != fan+2 || n != records+3 {
		t.Fatalf("slow reader saw %d task labels in %d task records of %d, want %d in all but 3", tasks, records, n, fan+2)
	}

	// Mid-burst disconnect.
	ctx, cancel := context.WithCancel(context.Background())
	body, _ = json.Marshal(fanGraph(fan, 2_000_000))
	hr, _ = http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/graphs", bytes.NewReader(body))
	hr.Header.Set("X-Tenant", "fan")
	resp, err = ts.Client().Do(hr)
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 8 && sc.Scan(); i++ { // accepted, head and a few of the fan
	}
	cancel()
	resp.Body.Close()
	waitTenantUsable(t, ts, "fan")
	// fan+2 of the first graph, 3 of the probe (more if it was retried):
	// anything near 2*fan means the abort did not cut the window.
	if ran := s.Manager().Snapshot()["fan"].Tasks; ran >= 2*fan {
		t.Errorf("abort did not cut the window: %d bodies ran", ran)
	}

	ts.Close()
	s.Shutdown()
	waitGoroutines(t, base)
}

// TestFrozenReplayWithCPathRace is the -race regression test for the
// finish-stamp read: a served graph replayed through the compiled
// schedule with the critical-path profiler on and two workers. The
// finisher used to read Task.FinishAtNs after the release walk, when the
// producer could already be resetting the stamps for the next iteration.
func TestFrozenReplayWithCPathRace(t *testing.T) {
	_, ts := newTestServer(t, Options{CPath: true, Workers: 2})
	req := fanGraph(64, 10)
	req.Repeat = 8
	for i := 0; i < 10; i++ {
		status, evs := postGraph(t, ts.Client(), ts.URL, "cp", req)
		if status != 200 || hasType(evs, "error") {
			t.Fatalf("request %d: status %d events %+v", i, status, evs)
		}
	}
}

// TestBadArgFailsAtExecution: arguments are parsed when the graph is
// built, but a bad one is still a task failure on the stream, not a
// rejected request.
func TestBadArgFailsAtExecution(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, evs := postGraph(t, ts.Client(), ts.URL, "arg", GraphRequest{Tasks: []TaskWire{
		{Label: "ok", Op: "const", Arg: json.RawMessage("1"), Provide: []string{"x"}},
		{Label: "bad", Op: "sum", Arg: json.RawMessage(`"seven"`), Consume: []string{"x"}, Provide: []string{"y"}},
	}})
	if status != 200 {
		t.Fatalf("status %d, want 200: %+v", status, evs)
	}
	const want = "sum: numeric arg: json: cannot unmarshal string into Go value of type float64"
	found := false
	for _, e := range evs {
		if e.Type == "error" && slices.Equal(e.Tasks, []string{"bad"}) && e.Err == want {
			found = true
		}
	}
	if !found || evs[len(evs)-1].Type != "done" {
		t.Fatalf("no %q error for task bad: %+v", want, evs)
	}
}

// TestLoweredBodyAllocs: executing a built sum task allocates nothing —
// no argument parse, no input slice, no box for its float64 result.
func TestLoweredBodyAllocs(t *testing.T) {
	m := NewManager(Options{})
	defer m.CloseAll()
	tn, err := m.Tenant("allocs")
	if err != nil {
		t.Fatal(err)
	}
	req := sumGraph(20, 22)
	req.Tasks[2].Arg = json.RawMessage("0.5")
	g, results, _ := tn.build(&req, emitFunc(func(Event) {}))
	for i := range g.tasks { // the first execution also emits the task event
		if err := runWireTask(&g.tasks[i]); err != nil {
			t.Fatal(err)
		}
	}
	sum := &g.tasks[2]
	if allocs := testing.AllocsPerRun(200, func() { _ = runWireTask(sum) }); allocs != 0 {
		t.Fatalf("sum body allocates %.0f times per execution, want none", allocs)
	}
	if v := results[0].Any(); v != 42.5 {
		t.Fatalf("total = %v, want 42.5", v)
	}
}

// TestColdConcatLatticeAllocs: a cold window of operators that return
// no number allocates, beyond what the operators themselves make (their
// parsed arguments and their results), the same number of objects at any
// task count — build carves the graph from a fixed number of
// allocations, and a task's first execution allocates what its later
// ones do: no input buffer.
func TestColdConcatLatticeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("concat's fmt and the arguments' encoding/json allocate at random under the race detector")
	}
	tn := newTestTenant(t, Options{})
	lattice := func(w, d int) GraphRequest {
		slot := func(row, col int) string { return fmt.Sprintf("v%d_%d", row, col) }
		var g GraphRequest
		for c := 0; c < w; c++ {
			g.Tasks = append(g.Tasks, TaskWire{Op: "const", Arg: json.RawMessage(fmt.Sprintf(`"c%d"`, c)), Provide: []string{slot(0, c)}})
		}
		for row := 1; row < d; row++ {
			for c := 0; c < w; c++ {
				g.Tasks = append(g.Tasks, TaskWire{Op: "concat", Arg: json.RawMessage(`"-"`),
					Consume: []string{slot(row-1, c), slot(row-1, (c+1)%w)}, Provide: []string{slot(row, c)}})
			}
		}
		return g
	}
	// beyond returns the fewest objects, over a few tries, that building
	// the lattice and running every task once allocates beyond parsing
	// the arguments and running every task a second time.
	beyond := func(w, d int) uint64 {
		req := lattice(w, d)
		tn.build(&req, emitFunc(func(Event) {})) // binds the names
		parses := uint64(testing.AllocsPerRun(5, func() {
			for i := range req.Tasks {
				_, _ = Ops[req.Tasks[i].Op].Parse(req.Tasks[i].Arg)
			}
		}))
		fewest := uint64(math.MaxUint64)
		for try := 0; try < 3; try++ {
			var m0, m1, m2 runtime.MemStats
			runtime.ReadMemStats(&m0)
			g, _, _ := tn.build(&req, emitFunc(func(Event) {}))
			for i := range g.tasks {
				if err := runWireTask(&g.tasks[i]); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&m1)
			for i := range g.tasks {
				_ = runWireTask(&g.tasks[i])
			}
			runtime.ReadMemStats(&m2)
			fewest = min(fewest, m1.Mallocs-m0.Mallocs-parses-(m2.Mallocs-m1.Mallocs))
		}
		return fewest
	}
	small, large := beyond(6, 4), beyond(24, 4)
	t.Logf("building and a first run allocate %d objects beyond parsing and a second run at 24 tasks, %d at 96", small, large)
	if small != large {
		t.Fatalf("a cold concat lattice allocates %d objects beyond its operators' at 24 tasks and %d at 96: something is allocated per task", small, large)
	}
}

// eventShapes are the records the server writes, and the corners of the
// encoder: escapes, exponent forms, nested and refused values.
var eventShapes = []Event{
	{Type: "accepted", Seq: 1, Key: "default"},
	{Type: "task", Seq: 2, Tasks: []string{"task-0"}, State: "done"},
	{Type: "task", Seq: 2, Tasks: []string{"a", "", `quo"te\`, "<b>&", "\x00\x1f\u2028é\xff", "task-512"}, State: "done"},
	{Type: "task", Tasks: []string{}},
	{Type: "result", Seq: 3, Key: "out", Value: 42.0},
	{Type: "result", Seq: 4, Key: "zero", Value: 0.0},
	{Type: "result", Seq: 5, Key: "s", Value: "a-b"},
	{Type: "result", Seq: 6, Key: "nested", Value: map[string]any{"b": []any{1.0, "x", nil, true}, "a": map[string]any{"<k>": 1e21}}},
	{Type: "result", Seq: 7, Key: "unset"},
	{Type: "result", Seq: 8, Key: "bool", Value: false},
	{Type: "error", Seq: 9, Tasks: []string{`quo"te\`}, Err: "fail: <b>&amp;\n\t\x00\x7f  é \xff"},
	{Type: "done", Seq: 516, Iters: 8, Elapsed: 0.003812},
	{Type: "done", Seq: -1, Iters: -3, Elapsed: 1.5e-7},
	{Type: "done", Elapsed: 1e-9},
	{Type: "done", Elapsed: 1e21},
	{Type: "done", Elapsed: 123456789012345680000},
	{Type: "done", Elapsed: math.Copysign(0, -1)},
	{Type: "done", Elapsed: -2.5e-10},
	{Type: "result", Value: 1e-7},
	{Type: "result", Value: math.MaxFloat64},
	{Type: "result", Value: math.SmallestNonzeroFloat64},
	{Type: "result", Value: math.NaN()},
	{Type: "result", Value: math.Inf(-1)},
	{Type: "result", Value: []any{math.Inf(1)}},
	{Type: "done", Elapsed: math.NaN()},
	{Type: "result", Value: math.NaN(), Elapsed: 1},
	{},
}

// checkAppendEvent asserts appendEvent(e) is what json.Encoder.Encode(e)
// writes: the marshalled event and a newline, or nothing where
// encoding/json refuses the event.
func checkAppendEvent(t *testing.T, e Event) {
	t.Helper()
	var want []byte
	if raw, err := json.Marshal(e); err == nil {
		want = append(raw, '\n')
	}
	prefix := []byte("earlier\n")
	got := appendEvent(prefix, &e)
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("appendEvent(%+v)\n got %q\nwant %q", e, got[len(prefix):], want)
	}
}

func TestAppendEventMatchesEncodingJSON(t *testing.T) {
	for _, e := range eventShapes {
		checkAppendEvent(t, e)
	}
}

// labelSep separates the labels of FuzzAppendEvent's task list.
const labelSep = "\x1e"

func FuzzAppendEvent(f *testing.F) {
	for _, e := range eventShapes {
		var value []byte
		var num float64
		kind := uint8(0)
		switch v := e.Value.(type) {
		case float64:
			kind, num = 1, v
		case nil:
		default:
			kind = 3
			value, _ = json.Marshal(v)
		}
		f.Add(e.Type, e.Seq, e.Tasks != nil, strings.Join(e.Tasks, labelSep), e.State, e.Key, e.Err, e.Iters, e.Elapsed, kind, num, string(value))
	}
	f.Fuzz(func(t *testing.T, typ string, seq int, listed bool, tasks, state, key, errText string, iters int, elapsed float64,
		kind uint8, num float64, text string) {
		e := Event{Type: typ, Seq: seq, State: state, Key: key, Err: errText, Iters: iters, Elapsed: elapsed}
		if listed {
			e.Tasks = strings.Split(tasks, labelSep)
		}
		switch kind % 5 {
		case 1:
			e.Value = num
		case 2:
			e.Value = text
		case 3: // whatever a const task can produce
			if json.Unmarshal([]byte(text), &e.Value) != nil {
				e.Value = nil
			}
		case 4:
			e.Value = []any{text, map[string]any{text: num}}
		}
		checkAppendEvent(t, e)
	})
}
