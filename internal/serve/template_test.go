package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// newTestTenant is a tenant of a manager of its own.
func newTestTenant(t testing.TB, opt Options) *Tenant {
	t.Helper()
	m := NewManager(opt)
	t.Cleanup(m.CloseAll)
	tn, err := m.Tenant("t")
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

// runCollect runs req on tn and returns the events, in emission order.
func runCollect(tn *Tenant, req *GraphRequest) ([]Event, error) {
	var (
		mu  sync.Mutex
		evs []Event
	)
	err := tn.Run(context.Background(), req, func(e Event) {
		mu.Lock()
		evs = append(evs, e)
		mu.Unlock()
	})
	return evs, err
}

func mustDecode(t testing.TB, body []byte) GraphRequest {
	t.Helper()
	req, err := decodeDirect(body)
	if err == nil {
		err = req.Validate()
	}
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// arm is what a request did to the tenant's counters.
type arm struct{ hits, misses, templates, tasks int64 }

func armOf(tn *Tenant) arm {
	return arm{tn.templateHits.Load(), tn.templateMisses.Load(), tn.templates.Load(), tn.templateTasks.Load()}
}

// ---- the differential test ----

// diffShape is the structure of a generated request: everything but the
// constants and repeat. Every family writes into the same few slot names
// (the lattice's), so that different shapes reuse each other's slots.
type diffShape struct {
	family  int // 0 lattice, 1 chain with updates, 2 labelled diamond
	w, d    int
	all     bool // report every slot
	variant int  // distinguishes shapes of one family and size by a label
}

// render builds the request of shape sh with constants from r. bad, when
// not negative, makes the constant argument of one task malformed, so that
// the task fails at execution: an absent const literal, a string where sum
// wants a number.
func (sh diffShape) render(r *rand.Rand, repeat, bad int) GraphRequest {
	num := func() json.RawMessage { return json.RawMessage(fmt.Sprint(r.Intn(100))) }
	slot := func(row, col int) string { return fmt.Sprintf("v%d_%d", row, col) }
	var g GraphRequest
	switch sh.family {
	case 0:
		for c := 0; c < sh.w; c++ {
			g.Tasks = append(g.Tasks, TaskWire{Op: "const", Arg: num(), Provide: []string{slot(0, c)}})
		}
		for row := 1; row < sh.d; row++ {
			for c := 0; c < sh.w; c++ {
				g.Tasks = append(g.Tasks, TaskWire{Op: "sum", Arg: num(),
					Consume: []string{slot(row-1, (c+sh.w-1)%sh.w), slot(row-1, c)}, Provide: []string{slot(row, c)}})
			}
		}
		tail := TaskWire{Label: fmt.Sprintf("tail-%d", sh.variant), Op: "sum", Provide: []string{"out"}}
		for c := 0; c < sh.w; c++ {
			tail.Consume = append(tail.Consume, slot(sh.d-1, c))
		}
		g.Tasks = append(g.Tasks, tail)
	case 1:
		g.Tasks = append(g.Tasks, TaskWire{Op: "const", Arg: num(), Provide: []string{slot(0, 0)}})
		for i := 1; i < sh.d; i++ {
			if i%2 == 1 {
				g.Tasks = append(g.Tasks, TaskWire{Op: "sum", Arg: num(), Update: []string{slot(0, 0)}})
			} else {
				g.Tasks = append(g.Tasks, TaskWire{Op: "mul", Arg: num(), Consume: []string{slot(0, 0)}, Provide: []string{slot(0, i%sh.w)}})
			}
		}
		g.Tasks = append(g.Tasks, TaskWire{Label: fmt.Sprintf("end-%d", sh.variant), Op: "pass", Consume: []string{slot(0, 0)}, Provide: []string{"out"}})
	case 2:
		g.Tasks = []TaskWire{
			{Label: "left", Op: "const", Arg: num(), Provide: []string{slot(0, 0)}},
			{Label: "right", Op: "const", Arg: num(), Provide: []string{slot(0, 1)}},
			{Label: fmt.Sprintf("join-%d", sh.variant), Op: "sum", Arg: num(), Consume: []string{slot(0, 0), slot(0, 1)}, Provide: []string{slot(1, 0), "out"}},
			{Label: "bump", Op: "sum", Arg: num(), Consume: []string{slot(1, 0)}, Update: []string{"out"}},
			{Label: "side", Op: "concat", Arg: json.RawMessage(`"-"`), Consume: []string{slot(0, 0), slot(0, 1)}, Provide: []string{slot(1, 1)}},
		}
	}
	if !sh.all {
		g.Results = []string{"out"}
	}
	g.Repeat = repeat
	if bad >= 0 {
		w := &g.Tasks[bad%len(g.Tasks)]
		switch w.Op {
		case "const":
			w.Arg = nil
		case "sum", "mul":
			w.Arg = json.RawMessage(`"seven"`)
		default:
			g.Tasks[0].Arg = nil
		}
	}
	return g
}

// genSequence draws n requests: shapes that come back with other
// constants and other repeat counts, fresh shapes in between, and now and
// then a malformed argument on a shape that has been seen.
func genSequence(seed int64, n int) []GraphRequest {
	r := rand.New(rand.NewSource(seed))
	var (
		known []diffShape
		out   []GraphRequest
	)
	repeats := []int{0, 1, 1, 2, 3, 6}
	for len(out) < n {
		var sh diffShape
		bad := -1
		if len(known) > 0 && r.Intn(10) < 8 {
			// Mostly one of the last few shapes, as a client's working set
			// would be; now and then one the cache has long let go.
			sh = known[len(known)-1-r.Intn(min(len(known), 5))]
			if r.Intn(8) == 0 {
				sh = known[r.Intn(len(known))]
			}
			if r.Intn(6) == 0 {
				bad = r.Intn(64)
			}
		} else {
			sh = diffShape{family: r.Intn(3), w: 2 + r.Intn(4), d: 2 + r.Intn(5), all: r.Intn(2) == 0, variant: len(known)}
			known = append(known, sh)
		}
		out = append(out, sh.render(r, repeats[r.Intn(len(repeats))], bad))
	}
	return out
}

// streamRecord is what two streams of one request must agree on: every
// field of an event but seq (which follows the order) and elapsed.
type streamRecord struct {
	Type, Task, State, Key string
	Value                  any
	Err                    string
	Iters                  int
}

// canonical reduces a stream to what is determined by the request: the
// records in order, a task record cut into one record per label, except
// that a run of task transitions — which workers emit as they finish, and
// the writer groups as they pile up — is sorted by label.
func canonical(evs []Event) []streamRecord {
	var out []streamRecord
	for _, e := range evs {
		r := streamRecord{e.Type, "", e.State, e.Key, e.Value, e.Err, e.Iters}
		if len(e.Tasks) == 0 {
			out = append(out, r)
		}
		for _, label := range e.Tasks {
			r.Task = label
			out = append(out, r)
		}
	}
	for i := 0; i < len(out); {
		j := i
		for j < len(out) && out[j].Type == "task" {
			j++
		}
		sort.Slice(out[i:j], func(a, b int) bool { return out[i+a].Task < out[i+b].Task })
		i = j + 1
	}
	return out
}

// TestTemplatesAgreeWithFreshTenants is the differential test of the
// template cache: a seeded sequence of requests is served by one
// long-lived tenant, which takes all three arms, and by a tenant made for
// each request, which can only ever take the cold and the record arm; the
// two streams of every request must agree record for record. In the
// middle of the sequence a client disconnects from the long-lived tenant
// in the middle of a hit; the hits after it must be as clean as before.
func TestTemplatesAgreeWithFreshTenants(t *testing.T) {
	var (
		hold    atomic.Bool // the held body waits for release
		entered = make(chan struct{})
		release = make(chan struct{})
	)
	registerOp(t, "diff-hold", bodyOp(func() (any, error) {
		if hold.Load() {
			entered <- struct{}{}
			<-release
		}
		return 1.0, nil
	}))
	held := GraphRequest{Tasks: []TaskWire{
		{Label: "first", Op: "const", Arg: json.RawMessage("1"), Provide: []string{"v0_0"}},
		{Label: "hold", Op: "diff-hold", Consume: []string{"v0_0"}, Provide: []string{"v0_1"}},
		{Label: "last", Op: "sum", Consume: []string{"v0_1"}, Provide: []string{"out"}},
	}, Results: []string{"out"}, Repeat: 2}

	for _, seed := range []int64{1, 2, 3} {
		long, longTS := newTestServer(t, Options{Workers: 2})
		fresh, freshTS := newTestServer(t, Options{Workers: 2})
		const tenant = "diff"
		both := func(i int, req GraphRequest) {
			t.Helper()
			ls, lev := postGraph(t, longTS.Client(), longTS.URL, tenant, req)
			fs, fev := postGraph(t, freshTS.Client(), freshTS.URL, tenant, req)
			fresh.Manager().Close(tenant)
			if ls != 200 || fs != 200 {
				t.Fatalf("seed %d request %d: status %d and %d: %+v", seed, i, ls, fs, lev)
			}
			if l, f := canonical(lev), canonical(fev); !reflect.DeepEqual(l, f) {
				body, _ := json.Marshal(req)
				t.Fatalf("seed %d request %d: streams differ\nlong-lived %+v\nfresh      %+v\nrequest %s", seed, i, l, f, body)
			}
		}
		seq := genSequence(seed, 120)
		for i, req := range seq[:60] {
			both(i, req)
		}

		// The held shape: recorded, hit, then a hit its client leaves.
		both(-1, held)
		both(-2, held)
		tn, _ := long.Manager().Lookup(tenant)
		before := armOf(tn)
		hold.Store(true)
		cancel, done := startStreaming(t, longTS, tenant, held)
		<-entered
		cancel()
		for deadline := time.Now().Add(10 * time.Second); !tn.Runtime().Aborted(); {
			if time.Now().After(deadline) {
				t.Fatal("the disconnect never reached the runtime")
			}
			time.Sleep(time.Millisecond)
		}
		hold.Store(false)
		release <- struct{}{}
		<-done
		both(-3, held) // waits for the aborted request to leave the tenant
		after := armOf(tn)
		if after.hits != before.hits+1 || after.misses != before.misses+1 || after.templates != before.templates {
			t.Fatalf("seed %d: the left hit and the request after it moved the cache from %+v to %+v: want one hit whose template is dropped, then one recording", seed, before, after)
		}
		both(-4, held)
		if got := armOf(tn); got.hits != after.hits+1 {
			t.Fatalf("seed %d: the shape was not a hit again after its re-recording: %+v then %+v", seed, after, got)
		}

		for i, req := range seq[60:] {
			both(60+i, req)
		}
		// Not a test of the cache unless all three arms ran.
		got := armOf(tn)
		t.Logf("seed %d: long-lived tenant ended at %+v", seed, got)
		if got.hits < 40 || got.misses < 20 || got.templates != maxTemplates {
			t.Fatalf("seed %d: long-lived tenant ended at %+v: the sequence did not exercise the cache", seed, got)
		}
		if f := fresh.Manager().Snapshot(); len(f) != 0 {
			t.Fatalf("fresh side kept tenants: %v", f)
		}
	}
}

// ---- the cache's own rules ----

// wideGraph is n independent constants under names of their own, every
// one reported; tag keeps shapes of the same size apart.
func wideGraph(tag string, n, base int) GraphRequest {
	g := GraphRequest{Tasks: make([]TaskWire, n)}
	for i := range g.Tasks {
		g.Tasks[i] = TaskWire{Op: "const", Arg: json.RawMessage(fmt.Sprint(base + i)), Provide: []string{fmt.Sprintf("%s%d", tag, i)}}
	}
	return g
}

// checkWide asserts evs report exactly wideGraph(tag, n, base)'s slots.
func checkWide(t *testing.T, evs []Event, err error, tag string, n, base int) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	results := 0
	for _, e := range evs {
		if e.Type != "result" {
			continue
		}
		var i int
		if _, serr := fmt.Sscanf(e.Key, tag+"%d", &i); serr != nil || e.Value != float64(base+i) {
			t.Fatalf("%s: slot %q = %v, want %s<i> = %d+i", tag, e.Key, e.Value, tag, base)
		}
		results++
	}
	if results != n {
		t.Fatalf("%s: %d slots reported, want %d", tag, results, n)
	}
}

// TestTemplateArms: the first sighting of a shape with repeat 1 is not
// recorded, the second is, the third is a hit; repeat > 1 records at
// once; what differs only in arg or repeat is the same shape, what
// differs in anything else is not.
func TestTemplateArms(t *testing.T) {
	tn := newTestTenant(t, Options{})
	run := func(req GraphRequest, want float64) arm {
		t.Helper()
		evs, err := runCollect(tn, &req)
		if v, ok := resultOf(evs, "total"); err != nil || !ok || v != want {
			t.Fatalf("total = %v, want %v (%v)", v, want, err)
		}
		return armOf(tn)
	}
	if got := run(sumGraph(1, 2), 3); got != (arm{0, 1, 0, 0}) {
		t.Fatalf("first sighting: %+v, want a miss and nothing cached", got)
	}
	if got := run(sumGraph(3, 4), 7); got != (arm{0, 2, 1, 3}) {
		t.Fatalf("second sighting: %+v, want a miss and a template of 3 tasks", got)
	}
	if got := run(sumGraph(5, 6), 11); got != (arm{1, 2, 1, 3}) {
		t.Fatalf("third sighting: %+v, want a hit", got)
	}
	again := sumGraph(7, 8)
	again.Repeat = 5
	if got := run(again, 15); got != (arm{2, 2, 1, 3}) {
		t.Fatalf("same shape, repeat 5: %+v, want a hit", got)
	}
	if ran := tn.tasksRun.Load(); ran != 3+3+3+15 {
		t.Fatalf("%d bodies ran, want 24: a hit replays repeat iterations", ran)
	}

	// One name moved from consume to update, a label, an operator, the
	// result list: each is another shape.
	moved := sumGraph(1, 2)
	moved.Tasks[2].Consume, moved.Tasks[2].Update = []string{"x"}, []string{"y"}
	moved.Tasks[2].Provide = []string{"total"}
	relabelled := sumGraph(1, 2)
	relabelled.Tasks[0].Label = "a2"
	otherOp := sumGraph(1, 2)
	otherOp.Tasks[2].Op = "mul"
	allSlots := sumGraph(1, 2)
	allSlots.Results = nil
	misses := armOf(tn).misses
	for i, tc := range []struct {
		req  GraphRequest
		want float64
	}{{moved, 3}, {relabelled, 3}, {otherOp, 2}, {allSlots, 3}} {
		tc.req.Repeat = 2
		if got := run(tc.req, tc.want); got.hits != 2 || got.misses != misses+int64(i)+1 || got.templates != int64(i)+2 {
			t.Fatalf("variant %d: %+v, want a miss that is recorded", i, got)
		}
	}
}

// TestTemplateHashCollisionIsAMiss: a template filed under another shape's
// hash is not that shape's template. The request runs its own graph.
func TestTemplateHashCollisionIsAMiss(t *testing.T) {
	tn := newTestTenant(t, Options{})
	a := wideGraph("a", 5, 100)
	a.Repeat = 2
	evs, err := runCollect(tn, &a)
	checkWide(t, evs, err, "a", 5, 100)
	b := wideGraph("b", 5, 200)
	hashB, found := tn.tpl.lookup(&b)
	if found != nil || len(tn.tpl.templates) != 1 {
		t.Fatalf("setup: %d templates, b found = %v", len(tn.tpl.templates), found != nil)
	}
	tn.tpl.templates[0].hash = hashB

	before := armOf(tn)
	evs, err = runCollect(tn, &b)
	checkWide(t, evs, err, "b", 5, 200)
	if got := armOf(tn); got.hits != before.hits || got.misses != before.misses+1 {
		t.Fatalf("a colliding hash was taken for a hit: %+v then %+v", before, got)
	}
}

// TestTemplateEvictionKeepsBothBounds: the cache never holds more than
// maxTemplates templates or maxTemplateTasks tasks, and what it lets go
// is what was hit longest ago.
func TestTemplateEvictionKeepsBothBounds(t *testing.T) {
	tn := newTestTenant(t, Options{})
	record := func(tag string, n int) {
		t.Helper()
		g := wideGraph(tag, n, 0)
		g.Repeat = 2
		evs, err := runCollect(tn, &g)
		checkWide(t, evs, err, tag, n, 0)
		if got := armOf(tn); got.templates > maxTemplates || got.tasks > maxTemplateTasks ||
			got.templates != int64(len(tn.tpl.templates)) || got.tasks != int64(tn.tpl.tasks) {
			t.Fatalf("after %s: %+v (cache holds %d templates, %d tasks)", tag, got, len(tn.tpl.templates), tn.tpl.tasks)
		}
	}
	isHit := func(tag string, n int) bool {
		t.Helper()
		g := wideGraph(tag, n, 7)
		before := armOf(tn).hits
		evs, err := runCollect(tn, &g)
		checkWide(t, evs, err, tag, n, 7)
		return armOf(tn).hits == before+1
	}
	for i := 0; i < maxTemplates; i++ {
		record(fmt.Sprintf("s%d_", i), 4)
	}
	if !isHit("s0_", 4) { // s1_ is now the least recently hit
		t.Fatal("s0_ not cached")
	}
	record("s8_", 4)
	if got := armOf(tn); got.templates != maxTemplates {
		t.Fatalf("%d templates after the ninth shape", got.templates)
	}
	if !isHit("s0_", 4) || !isHit("s2_", 4) || !isHit("s8_", 4) {
		t.Fatal("eviction took a recently hit template")
	}
	if isHit("s1_", 4) {
		t.Fatal("the least recently hit template survived")
	}

	// The task bound: three graphs of 3 000 tasks do not fit in 8 192.
	record("big0_", 3000)
	record("big1_", 3000)
	if !isHit("big0_", 3000) {
		t.Fatal("big0_ not cached")
	}
	record("big2_", 3000)
	if got := armOf(tn); got.tasks > maxTemplateTasks || got.tasks < 6000 {
		t.Fatalf("%d tasks cached, want the two large graphs that fit", got.tasks)
	}
	if !isHit("big0_", 3000) || !isHit("big2_", 3000) || isHit("big1_", 3000) {
		t.Fatal("the task bound evicted the wrong template")
	}
}

// shapeGraph is one of three shapes over the same slot names: two
// constants, their sum, and k+2 passes over it, every slot reported.
func shapeGraph(k int, val float64, repeat int) ([]byte, map[string]float64) {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"tasks":[{"op":"const","arg":%g,"provide":["a"]},{"op":"const","arg":1000,"provide":["b"]},{"op":"sum","consume":["a","b"],"provide":["r0"]}`, val)
	want := map[string]float64{"a": val, "b": 1000, "r0": val + 1000}
	for i := 1; i <= k+2; i++ {
		fmt.Fprintf(&b, `,{"op":"pass","consume":["r%d"],"provide":["r%d"]}`, i-1, i)
		want[fmt.Sprintf("r%d", i)] = val + 1000
	}
	fmt.Fprintf(&b, `],"repeat":%d}`, repeat)
	return b.Bytes(), want
}

// TestConcurrentClientsOnCachedShapes: 32 clients over 4 tenants, each
// cycling through the same three shapes with constants of its own, so
// that nearly every request replays a graph another client's request
// recorded, over slots another shape also uses. Every stream must report
// exactly its request's slots with its request's values. Run under -race.
func TestConcurrentClientsOnCachedShapes(t *testing.T) {
	s, ts := newTestServer(t, Options{Queue: 64, Workers: 2})
	const clients, rounds = 32, 9
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				id := c*rounds + round
				body, want := shapeGraph((c+round)%3, float64(id), 1+2*(round%2))
				hr, _ := http.NewRequest("POST", ts.URL+"/v1/graphs", bytes.NewReader(body))
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
				tasks := 0
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
						tasks += len(e.Tasks)
					case "result":
						if v, ok := want[e.Key]; !ok || e.Value != v {
							t.Errorf("request %d: slot %q = %v, want %v (its own: %v)", id, e.Key, e.Value, v, ok)
						}
						delete(want, e.Key)
					}
				}
				if len(want) != 0 || tasks != 5+(c+round)%3 {
					t.Errorf("request %d: %d slots unreported, %d task labels", id, len(want), tasks)
				}
			}
		}(c)
	}
	wg.Wait()
	for name, snap := range s.Manager().Snapshot() {
		if snap.TemplateHits+snap.TemplateMisses != clients/4*rounds || snap.TemplateHits < clients/4*rounds-9 || snap.Templates != 3 {
			t.Errorf("%s: %d hits, %d misses, %d templates: want all but the first sightings and recordings of 3 shapes to hit",
				name, snap.TemplateHits, snap.TemplateMisses, snap.Templates)
		}
	}
}

// aliasesBytes is aliases for a byte slice.
func aliasesBytes(b []byte, parent string) bool {
	return len(b) > 0 && aliases(unsafe.String(&b[0], len(b)), parent)
}

// TestTemplateKeepsNoViewOfTheBody extends the lifetime rule of
// TestTenantKeepsNoViewOfTheBody from "after Run" to "while cached": a
// template outlives its request by design, and nothing reachable from it
// — shape, labels, result names, handles' names — is a view of the body
// that recorded it, nor of the bodies that hit it.
func TestTemplateKeepsNoViewOfTheBody(t *testing.T) {
	tn := newTestTenant(t, Options{})
	var bodies []string
	for i := 0; i < 3; i++ { // cold, record, hit
		raw := latticeBody(6, 6, 1, true)
		d := decoder{s: string(raw), raw: raw, a: new(arenas)}
		var req GraphRequest
		if err := d.request(&req); err != nil {
			t.Fatal(err)
		}
		if !aliases(req.Tasks[len(req.Tasks)-1].Label, d.s) || !aliases(req.Tasks[0].Provide[0], d.s) {
			t.Fatal("decoded strings are not views of the body: not a test of the lifetime rule")
		}
		if _, err := runCollect(tn, &req); err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, d.s)
	}
	if got := armOf(tn); got != (arm{1, 2, 1, 37}) {
		t.Fatalf("cache at %+v, want one template of 37 tasks, hit once", got)
	}
	tp := tn.tpl.templates[0]
	for _, body := range bodies {
		if aliasesBytes(tp.shape, body) || aliasesBytes(tn.tpl.shape, body) {
			t.Error("a shape is a view of a body")
		}
		for i := range tp.g.tasks {
			if aliases(tp.g.tasks[i].label[0], body) {
				t.Errorf("cached task %d's label %q is a view of a body", i, tp.g.tasks[i].label[0])
			}
		}
		for _, n := range tp.resultNames {
			if aliases(n, body) {
				t.Errorf("cached result name %q is a view of a body", n)
			}
		}
		for _, n := range tn.store.Names() {
			if aliases(n, body) {
				t.Errorf("the store's name %q is a view of a body", n)
			}
		}
	}
	if tp.g.emit != nil {
		t.Error("a cached graph still holds a request's stream")
	}
	if len(tp.resultNames) != 37 || len(tp.results) != 37 || tp.resultNames[36] != "out" {
		t.Errorf("cached results: %d names, %d handles", len(tp.resultNames), len(tp.results))
	}

	// Over HTTP a template also keeps a byte key: a copy, not a view of
	// the pooled body it was cut from. And a byte hit leaves nothing of its
	// body in the template: its arguments are parsed anew, its stream let go.
	s := New(Options{})
	defer s.Shutdown()
	sc := new(reqScratch)
	const graph = `{"tasks":[{"op":"const","arg":%q,"provide":["a"]},{"op":"const","arg":{"k":[%q]},"provide":["o"]},` +
		`{"op":"concat","arg":%q,"consume":["a","a"],"provide":["b"]}],"repeat":2}`
	if rec := serveWith(s, sc, "views", []byte(fmt.Sprintf(graph, "abc", "v", "-"))); rec.Code != 200 || sc.key != nil {
		t.Fatalf("recording: status %d, byte hit %v", rec.Code, sc.key != nil)
	}
	htn, _ := s.Manager().Lookup("views")
	key := htn.tpl.templates[0].key
	if key == nil || aliasesBody(key.fixed, sc.body[:cap(sc.body)]) {
		t.Fatalf("the byte key is missing or a view of the pooled body (key %v)", key != nil)
	}
	sc.release()
	rec := serveWith(s, sc, "views", []byte(fmt.Sprintf(graph, "xyz", "w", "+")))
	if rec.Code != 200 || sc.key == nil || !strings.Contains(rec.Body.String(), `"key":"b","value":"xyz+xyz"`) {
		t.Fatalf("byte hit: status %d, by bytes %v: %s", rec.Code, sc.key != nil, rec.Body)
	}
	hitBody := unsafe.String(&sc.body[0], cap(sc.body))
	var viewOf func(v any) bool
	viewOf = func(v any) bool {
		switch v := v.(type) {
		case string:
			return aliases(v, hitBody)
		case []any:
			return slices.ContainsFunc(v, viewOf)
		case map[string]any:
			for k, e := range v {
				if aliases(k, hitBody) || viewOf(e) {
					return true
				}
			}
		}
		return false
	}
	if !viewOf([]any{hitBody[2:7]}) {
		t.Fatal("viewOf does not see a view: not a test of the lifetime rule")
	}
	tp = key.tp
	for i := range tp.g.tasks {
		if w := &tp.g.tasks[i]; viewOf(w.arg.Val) || w.arg.Val == nil {
			t.Errorf("task %d's argument %#v is a view of the body that hit it, or was not parsed", i, w.arg.Val)
		}
	}
	if tp.g.emit != nil {
		t.Error("a template hit by bytes still holds the request's stream")
	}
	sc.release()
}

// TestWarmHitAllocatesNoGraph: a hit on the warm 513-task lattice
// allocates what parsing its arguments allocates (nothing, for numbers),
// and a fixed handful for the window — no wireGraph, no handle or input
// arena, no task, successor block or key state, no result box. The
// recording arm allocates hundreds of kilobytes.
func TestWarmHitAllocatesNoGraph(t *testing.T) {
	tn := newTestTenant(t, Options{})
	req := mustDecode(t, latticeBody(16, 32, 1, false))
	emit := func(Event) {}
	run := func() {
		if err := tn.Run(context.Background(), &req, emit); err != nil {
			t.Fatal(err)
		}
	}
	run()
	run()
	run()
	if got := armOf(tn); got != (arm{1, 2, 1, 513}) {
		t.Fatalf("warm-up left the cache at %+v", got)
	}
	parses := testing.AllocsPerRun(20, func() {
		for i := range req.Tasks {
			_, _ = Ops[req.Tasks[i].Op].Parse(req.Tasks[i].Arg)
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	hit := testing.AllocsPerRun(20, run)
	runtime.ReadMemStats(&after)
	t.Logf("a hit allocates %.0f times, parsing its arguments %.0f", hit, parses)
	if limit := parses + 64; hit > limit {
		t.Fatalf("a hit allocates %.0f times; parsing its %d arguments %.0f and 64 make %.0f", hit, len(req.Tasks), parses, limit)
	}
	perHit := (after.TotalAlloc - before.TotalAlloc) / 21
	t.Logf("a hit allocates %d bytes", perHit)
	if perHit > 48<<10 {
		t.Fatalf("a hit allocates %d bytes: it built something", perHit)
	}
	if got := armOf(tn); got.hits != 22 || got.misses != 2 {
		t.Fatalf("the measured runs were not hits: %+v", got)
	}
}

// TestTemplateHitAllocs: what a hit allocates does not grow with the
// work it replays. Template hits of the 16×32 sum lattice at repeat 8
// and at repeat 64 allocate the same number of objects per request: no
// box per execution, and (the lattice's arguments being numbers) no
// body or parsed value per task either.
func TestTemplateHitAllocs(t *testing.T) {
	tn := newTestTenant(t, Options{})
	body := latticeBody(16, 32, 8, false)
	req8 := mustDecode(t, body)
	req64 := mustDecode(t, body)
	req64.Repeat = 64
	emit := func(Event) {}
	run := func(req *GraphRequest) func() {
		return func() {
			if err := tn.Run(context.Background(), req, emit); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(&req8)() // recorded
	before := armOf(tn)
	// The fewest of a few measurements: a stray runtime allocation (a
	// timer, a goroutine's stack) must not read as the hit's.
	fewest := func(req *GraphRequest) float64 {
		n := math.Inf(1)
		for i := 0; i < 3; i++ {
			n = min(n, testing.AllocsPerRun(10, run(req)))
		}
		return n
	}
	a8, a64 := fewest(&req8), fewest(&req64)
	t.Logf("a hit allocates %.0f objects at repeat 8, %.0f at repeat 64", a8, a64)
	if a8 != a64 {
		t.Fatalf("a hit allocates %.0f objects at repeat 8 and %.0f at repeat 64: something is allocated per execution", a8, a64)
	}
	if got := armOf(tn); got.hits != before.hits+2*3*11 || got.misses != before.misses {
		t.Fatalf("the measured runs were not all hits: %+v then %+v", before, got)
	}
}

// TestStoreIsSwappedWhenItOutgrowsItsBound: a client that brings fresh
// slot names with every request does not grow the tenant for ever. The
// store (and the runtime's key table behind it) is replaced when it
// passes maxStoreSlots, results stay correct across the swap, and a
// shape cached before it is recorded again, not replayed on handles into
// the old store.
func TestStoreIsSwappedWhenItOutgrowsItsBound(t *testing.T) {
	tn := newTestTenant(t, Options{})
	cached := func(a, b float64, want arm) {
		t.Helper()
		req := sumGraph(a, b)
		req.Repeat = 2
		evs, err := runCollect(tn, &req)
		if v, _ := resultOf(evs, "total"); err != nil || v != a+b {
			t.Fatalf("total = %v, want %v (%v)", v, a+b, err)
		}
		if got := armOf(tn); got != want {
			t.Fatalf("cache at %+v, want %+v", got, want)
		}
	}
	cached(1, 2, arm{0, 1, 1, 3})
	cached(3, 4, arm{1, 1, 1, 3})

	const requests, names = 2000, 64
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var atHalf uint64
	swaps, last := 0, tn.store
	for i := 0; i < requests; i++ {
		tag := fmt.Sprintf("f%d_", i)
		g := wideGraph(tag, names, i)
		evs, err := runCollect(tn, &g)
		checkWide(t, evs, err, tag, names, i)
		if tn.store != last {
			swaps, last = swaps+1, tn.store
		}
		if got := tn.store.Len(); got > maxStoreSlots+names {
			t.Fatalf("request %d: the store holds %d names", i, got)
		}
		if i == requests/2 {
			atHalf = heap()
		}
	}
	if swaps != requests*names/maxStoreSlots {
		t.Fatalf("%d swaps over %d names, want one per %d", swaps, requests*names, maxStoreSlots)
	}
	// Request 1000 sits just before the swap, the last one 62 000 names
	// after it: what a tenant holds is bounded by the store's bound, not by
	// its history.
	end := heap()
	t.Logf("heap: %d KB at %d names, %d KB at %d names after the swap", atHalf>>10, requests/2*names, end>>10, tn.store.Len())
	if end > atHalf+atHalf/4+(4<<20) {
		t.Fatalf("heap %d KB after %d requests, %d KB after %d: the tenant keeps growing", end>>10, requests, atHalf>>10, requests/2)
	}
	// The swap dropped the template: its handles were slots of the old store.
	if got := armOf(tn); got.templates != 0 || got.hits != 1 {
		t.Fatalf("cache at %+v after the swap, want it empty", got)
	}
	cached(5, 6, arm{1, 2 + requests, 1, 3})
	cached(7, 8, arm{2, 2 + requests, 1, 3})
}

// TestTemplateMetrics: the cache's counters and gauges are served per
// tenant on /metrics and in the tenant snapshot.
func TestTemplateMetrics(t *testing.T) {
	s := New(Options{})
	defer s.Shutdown()
	h := s.Handler()
	get := func(path string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
		return rec.Body.String()
	}
	body, _ := json.Marshal(sumGraph(1, 2))
	for i := 0; i < 4; i++ { // cold, recorded, hit, hit
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest("POST", "/v1/graphs", bytes.NewReader(body))
		hr.Header.Set("X-Tenant", "m")
		h.ServeHTTP(rec, hr)
		if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"key":"total","value":3`) {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	metrics := get("/metrics")
	for _, want := range []string{
		`tdgserve_tenant_template_hits_total{tenant="m"} 2`,
		`tdgserve_tenant_template_misses_total{tenant="m"} 2`,
		`tdgserve_tenant_templates{tenant="m"} 1`,
		`tdgserve_tenant_template_tasks{tenant="m"} 3`,
	} {
		if !strings.Contains(metrics, want+"\n") {
			t.Errorf("/metrics lacks %q:\n%s", want, metrics)
		}
	}
	var tenants map[string]TenantSnap
	if err := json.Unmarshal([]byte(get("/v1/tenants")), &tenants); err != nil {
		t.Fatal(err)
	}
	if got := tenants["m"]; got.TemplateHits != 2 || got.TemplateMisses != 2 || got.Templates != 1 || got.TemplateTasks != 3 {
		t.Errorf("/v1/tenants: %+v", got)
	}
	if !strings.Contains(get("/v1/tenants"), `"template_hits": 2`) {
		t.Error("/v1/tenants does not name template_hits")
	}
	// A torn-down tenant takes its templates with it.
	tn, _ := s.Manager().Lookup("m")
	s.Manager().Close("m")
	if got := armOf(tn); got.templates != 0 || got.tasks != 0 || len(tn.tpl.templates) != 0 {
		t.Errorf("a closed tenant still caches: %+v", got)
	}
}

// BenchmarkTenantRun is the serve layer's share of a serve_replay request
// — Tenant.Run on the 513-task lattice, no HTTP, no decode — by arm:
// "cold" is a first sighting with repeat 1 (build, discovery, one
// execution), "record" a first sighting with repeat 8 (build, recording,
// compile, seven compiled iterations) and "hit" the same request on a
// warm template (eight compiled iterations). Cold and record get a shape
// of their own each time by a label; the slots stay the same.
func BenchmarkTenantRun(b *testing.B) {
	body := func(repeat int) GraphRequest { return mustDecode(b, latticeBody(16, 32, repeat, false)) }
	emit := func(Event) {}
	bench := func(name string, req GraphRequest, fresh bool) {
		b.Run(name, func(b *testing.B) {
			tn := newTestTenant(b, Options{})
			run := func(i int) {
				if fresh {
					req.Tasks[0].Label = fmt.Sprint("shape-", i)
				}
				if err := tn.Run(context.Background(), &req, emit); err != nil {
					b.Fatal(err)
				}
			}
			run(-2)
			run(-1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(i)
			}
			b.StopTimer()
			if hits := tn.templateHits.Load(); fresh == (hits != 0) {
				b.Fatalf("%s: %d hits over %d runs", name, hits, b.N+2)
			}
		})
	}
	bench("cold", body(1), true)
	bench("record", body(8), true)
	bench("hit", body(8), false)
}
