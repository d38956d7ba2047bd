package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// templateByteSeeds are the bodies FuzzTemplateBytes cuts byte keys from:
// lattices, arguments of every kind, null arguments, duplicated and
// case-folded members, escapes and white space. Each one decodes, and
// Validate accepts it.
var templateByteSeeds = []struct{ name, body string }{
	{"lattice", string(latticeBody(4, 3, 8, false))},
	{"lattice-all-slots", string(latticeBody(3, 3, 1, true))},
	{"arg-kinds", `{"tasks":[{"op":"const","arg":-1.5e3,"provide":["n"]},{"op":"const","arg":"sé\"","provide":["s"]},` +
		`{"op":"const","arg":{"k":[1,true,null]},"provide":["o"]},{"op":"const","arg":[false,"x",[[]]],"provide":["a"]},` +
		`{"op":"const","arg":true,"provide":["b"]},{"op":"const","arg":null,"provide":["z"]},{"op":"sum","arg":2,"consume":["n"],"provide":["m"]},` +
		`{"op":"concat","arg":"-","consume":["s","n"],"provide":["c"]},{"op":"spin","arg":10,"provide":["w"]},` +
		`{"op":"fail","arg":"boom","provide":["f"]},{"op":"pass","consume":["m"],"provide":["p"]}],"repeat":2}`},
	{"null-args", `{"tasks":[{"op":"sum","arg":null,"provide":["x"]},{"op":"mul","arg":null,"consume":["x"],"provide":["y"]}],"results":["y"]}`},
	{"duplicated-members", `{"repeat":3,"tasks":[{"op":"const","arg":1,"arg":2,"provide":["x"]}],` +
		`"tasks":[{"op":"const","arg":"a","provide":["x"],"arg":7},{"op":"sum","consume":["x"],"provide":["y"],"arg":1,"arg":null}],"repeat":4,"repeat":null}`},
	{"case-folded", `{"TASKS":[{"OP":"const","Arg":3,"PROVIDE":["x"]},{"Op":"sum","ARG":1,"aRg":2,"Consume":["x"],"Provide":["y"]}],"RePeat":5,"Results":["y"]}`},
	{"escapes", `{"tasks":[{"label":"té\"1","op":"const","arg":"\nA\\","provide":["s\\1","é"]},` +
		`{"label":"😀","op":"concat","arg":"\/","consume":["s\\1","é"],"provide":["c"]}]}`},
	{"white-space", " \n{ \"tasks\" : [ { \"op\" : \"const\" , \"arg\" : 4 , \"provide\" : [ \"x\" ] } ,\n\t" +
		"{ \"op\":\"sum\", \"arg\" :\r\n 5\t, \"consume\":[\"x\"], \"provide\":[\"y\"] } ] , \"repeat\" : 2 }\n "},
	{"unknown-members", `{"x":{"arg":1,"repeat":2},"tasks":[{"op":"const","arg":1,"extra":[1,{"arg":2}],"provide":["x"]}],"results":null,"repeat":0}`},
	{"repeat-first", `{"repeat":1024,"tasks":[{"op":"const","arg":0,"provide":["x"]}]}`},
	{"no-args", `{"tasks":[{"op":"sum","provide":["x"]},{"op":"pass","consume":["x"],"provide":["y"]}]}`},
}

// seedKey is a seed's byte key and what a body that matches it must
// decode to.
type seedKey struct {
	key   *byteKey
	shape []byte
}

// keyOf decodes body, validates it and cuts its byte key, as a recording
// over HTTP does, onto a template of the right size.
func keyOf(t testing.TB, body []byte) seedKey {
	t.Helper()
	var (
		req GraphRequest
		a   arenas
	)
	raw := bytes.Clone(body)
	if err := decodeRequest(&req, raw, &a); err != nil {
		t.Fatal(err)
	}
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	tp := &template{g: &wireGraph{tasks: make([]wireTask, len(req.Tasks))}}
	k := newByteKey(tp, raw, &req, &a)
	if k == nil {
		t.Fatalf("no byte key for a %d-byte body", len(body))
	}
	return seedKey{k, appendShape(nil, &req)}
}

// checkByteMatch holds a byte match of data against k to what the
// handler relies on when it skips decode and validate: the body decodes,
// Validate accepts it, its shape is the key's, and the spans and repeat
// the match found are the ones the decoder reads.
func checkByteMatch(t *testing.T, k seedKey, data []byte) bool {
	t.Helper()
	spans, repeat, ok := k.key.match(data, nil)
	if !ok {
		return false
	}
	var (
		req GraphRequest
		a   arenas
	)
	if err := decodeRequest(&req, bytes.Clone(data), &a); err != nil {
		t.Fatalf("a body that matched a byte key does not decode: %v\ninput %.300q", err, data)
	}
	if err := req.Validate(); err != nil {
		t.Fatalf("a body that matched a byte key is not valid: %v\ninput %.300q", err, data)
	}
	if !bytes.Equal(appendShape(nil, &req), k.shape) {
		t.Fatalf("a body that matched a byte key has another shape\ninput %.300q", data)
	}
	if repeat != req.Repeat {
		t.Fatalf("match read repeat %d, the decoder %d\ninput %.300q", repeat, req.Repeat, data)
	}
	if len(spans) != len(req.Tasks) {
		t.Fatalf("match found %d spans for %d tasks", len(spans), len(req.Tasks))
	}
	for i, s := range spans {
		arg := req.Tasks[i].Arg
		if s == (span{}) {
			if arg != nil || a.argAt[i] >= 0 {
				t.Fatalf("task %d: match found no arg, the decoder %q\ninput %.300q", i, arg, data)
			}
			continue
		}
		if s.start != a.argAt[i] || !bytes.Equal(data[s.start:s.end], arg) {
			t.Fatalf("task %d: match found arg %q at %d, the decoder %q at %d\ninput %.300q", i, data[s.start:s.end], s.start, arg, a.argAt[i], data)
		}
	}
	return true
}

// FuzzTemplateBytes searches for a body that matches a seed's byte key
// and yet is not, to the decoder and Validate, a request of that seed's
// shape with the arguments and repeat the match read. Plain `go test`
// replays the committed corpus (testdata/fuzz/FuzzTemplateBytes): the
// seeds and variants of them that match or nearly match.
func FuzzTemplateBytes(f *testing.F) {
	keys := make([]seedKey, len(templateByteSeeds))
	for i, sd := range templateByteSeeds {
		keys[i] = keyOf(f, []byte(sd.body))
		if _, _, ok := keys[i].key.match([]byte(sd.body), nil); !ok {
			f.Fatalf("%s: the body does not match its own byte key", sd.name)
		}
		f.Add([]byte(sd.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, k := range keys {
			checkByteMatch(t, k, data)
		}
	})
}

// TestTemplateByteKeyCuts: a key is its body without the literals of the
// args the decoder kept and of the repeat that set Repeat, so that other
// literals there match and any other byte does not.
func TestTemplateByteKeyCuts(t *testing.T) {
	for _, tc := range []struct {
		name, body, fixed string
		match, miss       []string
	}{
		{"lattice", `{"tasks":[{"op":"const","arg":1,"provide":["x"]}],"repeat":2}`,
			`{"tasks":[{"op":"const","arg":,"provide":["x"]}],"repeat":}`,
			[]string{`{"tasks":[{"op":"const","arg":"long string","provide":["x"]}],"repeat":1024}`, `{"tasks":[{"op":"const","arg":null,"provide":["x"]}],"repeat":0}`},
			[]string{`{"tasks":[{"op":"const","arg":1,"provide":["x"]}],"repeat":null}`, `{"tasks":[{"op":"const","arg": 1,"provide":["x"]}],"repeat":2}`}},
		{"duplicates keep the last", `{"repeat":3,"tasks":[{"op":"const","arg":1,"arg":2,"provide":["x"]}],"repeat":null}`,
			`{"repeat":,"tasks":[{"op":"const","arg":1,"arg":,"provide":["x"]}],"repeat":null}`,
			[]string{`{"repeat":7,"tasks":[{"op":"const","arg":1,"arg":[3],"provide":["x"]}],"repeat":null}`},
			[]string{`{"repeat":3,"tasks":[{"op":"const","arg":2,"arg":2,"provide":["x"]}],"repeat":null}`}},
	} {
		k := keyOf(t, []byte(tc.body))
		if string(k.key.fixed) != tc.fixed {
			t.Errorf("%s: fixed bytes %s, want %s", tc.name, k.key.fixed, tc.fixed)
		}
		for _, m := range tc.match {
			if !checkByteMatch(t, k, []byte(m)) {
				t.Errorf("%s: %s does not match", tc.name, m)
			}
		}
		for _, m := range tc.miss {
			if _, _, ok := k.key.match([]byte(m), nil); ok {
				t.Errorf("%s: %s matches", tc.name, m)
			}
		}
	}
	// A body whose fixed bytes are over the bound gets no key.
	req := wideGraph(strings.Repeat("n", 100), 2500, 0)
	body, _ := json.Marshal(req)
	var a arenas
	raw := bytes.Clone(body)
	if err := decodeRequest(&req, raw, &a); err != nil {
		t.Fatal(err)
	}
	if k := newByteKey(&template{g: &wireGraph{tasks: make([]wireTask, 2500)}}, raw, &req, &a); k != nil || len(body) < maxKeyBytes {
		t.Errorf("a %d-byte body got a key", len(body))
	}
}

// postTo runs one POST /v1/graphs through s's handler on a scratch of its
// own, and returns the response and whether the body was a byte hit.
func postTo(s *Server, tenant string, body []byte) (*httptest.ResponseRecorder, bool) {
	sc := new(reqScratch)
	rec := serveWith(s, sc, tenant, body)
	byBytes := sc.key != nil
	sc.release()
	return rec, byBytes
}

// TestTemplateByteNearMisses: on a tenant with a warm template, a body
// that differs from one that byte-matches in an invalid literal, an
// over-long arg, a repeat out of range, trailing or missing bytes, or
// one byte of a name gets exactly the answer a server without templates
// gives it, and is not a hit. A reformatted body is a hit by shape.
func TestTemplateByteNearMisses(t *testing.T) {
	warm := New(Options{})
	defer warm.Shutdown()
	base := latticeBody(4, 4, 2, false)
	const tenant = "near"
	if rec, _ := postTo(warm, tenant, base); rec.Code != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", rec.Code, rec.Body)
	}
	tn, _ := warm.Manager().Lookup(tenant)
	hit := bytes.Replace(base, []byte(`"arg":0,`), []byte(`"arg":9.5,`), 1)
	if rec, byBytes := postTo(warm, tenant, hit); rec.Code != http.StatusOK || !byBytes || tn.templateHits.Load() != 1 {
		t.Fatalf("other args: status %d, byte hit %v, %d hits: not a test of near misses", rec.Code, byBytes, tn.templateHits.Load())
	}

	arg := func(lit string) []byte { return bytes.Replace(base, []byte(`"arg":0,`), []byte(`"arg":`+lit+`,`), 1) }
	repeat := func(lit string) []byte { return bytes.Replace(base, []byte(`"repeat":2`), []byte(`"repeat":`+lit), 1) }
	const (
		none    = iota // a miss
		byShape        // a hit after a decode
		byBytes        // a hit without one
	)
	for _, tc := range []struct {
		name   string
		body   []byte
		status int
		want   string // in the error, or in the stream
		hit    int
	}{
		{"leading zero", arg("01"), 400, "want ',' or '}'", none},
		{"empty exponent", arg("1e"), 400, "want a digit in the exponent", none},
		{"unterminated string", append(slices.Clone(base[:bytes.Index(base, []byte(`"arg":`))+6]), `"0`...), 400, "unterminated string", none},
		{"arg over MaxArgBytes", arg(`"` + strings.Repeat("a", MaxArgBytes-1) + `"`), 400, "arg exceeds 65536 bytes", none},
		{"repeat 1025", repeat("1025"), 400, "repeat 1025 out of range [0,1024]", none},
		{"repeat -1", repeat("-1"), 400, "repeat -1 out of range [0,1024]", none},
		{"repeat 1.5", repeat("1.5"), 400, "1.5 is not an integer that fits int", none},
		{"trailing garbage", append(slices.Clone(base), 'x'), 400, "data after the request", none},
		{"truncated", base[:len(base)-1], 400, "want ',' or '}'", none},
		{"one byte more in a slot name", bytes.Replace(base, []byte(`"provide":["v0_0"]`), []byte(`"provide":["v0_0x"]`), 1), 400, `consumes \"v0_0\" which no earlier task provides`, none},
		{"one byte more in the result", bytes.Replace(base, []byte(`"results":["out"]`), []byte(`"results":["outx"]`), 1), 400, `result slot \"outx\" is never provided`, none},
		{"one byte more in a label", bytes.Replace(base, []byte(`"label":"tail"`), []byte(`"label":"tailx"`), 1), 200, `"tailx"`, none},
		{"repeat null", repeat("null"), 200, `"type":"done"`, byShape},
		{"trailing space", append(slices.Clone(base), ' '), 200, `"type":"done"`, byShape},
		{"reformatted", bytes.ReplaceAll(hit, []byte(`,{"op"`), []byte(", {\n\"op\"")), 200, `"value":`, byShape},
		{"arg at MaxArgBytes", arg(`"` + strings.Repeat("a", MaxArgBytes-2) + `"`), 200, "sum: input 0 is string, not a number", byBytes},
	} {
		if rec, _ := postTo(warm, tenant, base); rec.Code != http.StatusOK || tn.keys.Load() == nil {
			t.Fatalf("%s: the template is not warm: status %d", tc.name, rec.Code)
		}
		fresh := New(Options{})
		want, _ := postTo(fresh, tenant, tc.body)
		fresh.Shutdown()
		before := armOf(tn)
		got, bytesHit := postTo(warm, tenant, tc.body)
		if got.Code != tc.status || want.Code != tc.status || !strings.Contains(got.Body.String(), tc.want) {
			t.Errorf("%s: status %d (%d without templates), want %d mentioning %q: %.300s", tc.name, got.Code, want.Code, tc.status, tc.want, got.Body)
			continue
		}
		hits := armOf(tn).hits - before.hits
		if bytesHit != (tc.hit == byBytes) || hits != int64(min(tc.hit, 1)) {
			t.Errorf("%s: %d hits, by bytes %v; want hit kind %d", tc.name, hits, bytesHit, tc.hit)
		}
		if got.Code != http.StatusOK {
			if got.Body.String() != want.Body.String() {
				t.Errorf("%s: answered %q, without templates %q", tc.name, got.Body, want.Body)
			}
			continue
		}
		// A window's errors come in the order its tasks failed in.
		split := func(b []byte) (rest, errs []streamRecord) {
			for _, r := range canonical(decodeRecords(t, b)) {
				if r.Type == "error" {
					errs = append(errs, r)
				} else {
					rest = append(rest, r)
				}
			}
			slices.SortFunc(errs, func(a, b streamRecord) int { return strings.Compare(a.Task, b.Task) })
			return rest, errs
		}
		gr, ge := split(got.Body.Bytes())
		wr, we := split(want.Body.Bytes())
		if g, w := append(gr, ge...), append(wr, we...); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: streams differ\nwarm  %+v\nfresh %+v", tc.name, g, w)
		}
	}
}

// shapeResults checks evs against shapeGraph's want.
func shapeResults(evs []Event, want map[string]float64) error {
	got := 0
	for _, e := range evs {
		switch e.Type {
		case "error":
			return fmt.Errorf("%+v", e)
		case "result":
			if v, ok := want[e.Key]; !ok || e.Value != v {
				return fmt.Errorf("slot %q = %v, want %v", e.Key, e.Value, v)
			}
			got++
		}
	}
	if got != len(want) {
		return fmt.Errorf("%d slots reported, want %d", got, len(want))
	}
	return nil
}

// streamResults is shapeResults of an NDJSON stream; it reports a bad
// record as an error, so that a client goroutine can call it.
func streamResults(b []byte, want map[string]float64) error {
	var evs []Event
	for _, line := range bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n")) {
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return fmt.Errorf("bad record %q: %v", line, err)
		}
		evs = append(evs, e)
	}
	return shapeResults(evs, want)
}

// TestTemplateDroppedAfterByteMatch: a body matched a template's byte key,
// and the template went before the request reached the tenant — a store
// swap, or an eviction by eight other shapes. The request decodes its body
// after all and returns its own results. The concurrent form runs a
// client of byte hits against one that keeps evicting and swapping; run
// it under -race.
func TestTemplateDroppedAfterByteMatch(t *testing.T) {
	const tenant = "drop"
	recordOthers := func(t *testing.T, s *Server, round int) {
		for j := 0; j < maxTemplates; j++ {
			g := wideGraph(fmt.Sprintf("e%d_", j), 4, round)
			g.Repeat = 2
			body, _ := json.Marshal(g)
			if rec, _ := postTo(s, tenant, body); rec.Code != http.StatusOK {
				t.Errorf("shape %d: status %d: %s", j, rec.Code, rec.Body)
			}
		}
	}
	for _, tc := range []struct {
		name string
		drop func(t *testing.T, s *Server, tn *Tenant)
	}{
		{"store swap", func(t *testing.T, s *Server, tn *Tenant) {
			tn.prodMu.Lock()
			for i := 0; tn.store.Len() <= maxStoreSlots; i++ {
				tn.store.Bind(fmt.Sprint("pad-", i))
			}
			tn.prodMu.Unlock()
		}},
		{"eviction", func(t *testing.T, s *Server, tn *Tenant) {
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // another client
				defer wg.Done()
				recordOthers(t, s, 0)
			}()
			wg.Wait()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Options{})
			defer s.Shutdown()
			body, _ := shapeGraph(1, 1, 3)
			if rec, _ := postTo(s, tenant, body); rec.Code != http.StatusOK {
				t.Fatalf("recording: status %d: %s", rec.Code, rec.Body)
			}
			tn, _ := s.Manager().Lookup(tenant)
			sc := new(reqScratch)
			defer sc.release()
			body, want := shapeGraph(1, 42, 3)
			sc.body = body
			if !sc.match(tn.keys.Load()) {
				t.Fatal("the body does not match its shape's byte key")
			}
			tc.drop(t, s, tn)
			before := armOf(tn)
			evs, err := runWith(tn, sc)
			if err != nil {
				t.Fatal(err)
			}
			if err := shapeResults(evs, want); err != nil {
				t.Fatal(err)
			}
			if got := armOf(tn); got.hits != before.hits || got.misses != before.misses+1 {
				t.Fatalf("cache %+v then %+v: want a miss", before, got)
			}
			// Recorded again from this body: the next one is a byte hit.
			body, want = shapeGraph(1, 7, 3)
			rec, byBytes := postTo(s, tenant, body)
			if err := streamResults(rec.Body.Bytes(), want); err != nil || !byBytes {
				t.Fatalf("after the re-recording: byte hit %v, %v", byBytes, err)
			}
		})
	}

	// The other client records eight other shapes and then a graph of
	// MaxTasks fresh names, every round: a store swap every 16th round,
	// while the first client's bodies keep matching by bytes. A swap
	// clears the cache at the start of a window and the snapshot is
	// replaced at its end, so a body matched meanwhile finds its template
	// gone (about one request per swap).
	t.Run("concurrent", func(t *testing.T) {
		s := New(Options{Workers: 2})
		defer s.Shutdown()
		const rounds = 20
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds*4; i++ {
				body, want := shapeGraph(2, float64(i), 2)
				rec, _ := postTo(s, tenant, body)
				if rec.Code != http.StatusOK {
					t.Errorf("request %d: status %d: %s", i, rec.Code, rec.Body)
					return
				}
				if err := streamResults(rec.Body.Bytes(), want); err != nil {
					t.Errorf("request %d: %v", i, err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				recordOthers(t, s, i)
				body, _ := json.Marshal(wideGraph(fmt.Sprintf("w%d_", i), MaxTasks, i))
				if rec, _ := postTo(s, tenant, body); rec.Code != http.StatusOK {
					t.Errorf("fresh names %d: status %d", i, rec.Code)
				}
			}
		}()
		wg.Wait()
		tn, _ := s.Manager().Lookup(tenant)
		tn.prodMu.Lock()
		names := tn.store.Len()
		tn.prodMu.Unlock()
		if names >= rounds*MaxTasks {
			t.Fatalf("the store holds %d names: it was never swapped", names)
		}
	})
}

// runWith runs the request in sc on tn as the handler does, and returns
// the events.
func runWith(tn *Tenant, sc *reqScratch) ([]Event, error) {
	var (
		mu  sync.Mutex
		evs []Event
	)
	req := &sc.req
	if sc.key != nil {
		req = nil
	}
	err := tn.run(context.Background(), req, sc, emitFunc(func(e Event) {
		mu.Lock()
		evs = append(evs, e)
		mu.Unlock()
	}))
	return evs, err
}

// discardResponse is an http.ResponseWriter that keeps nothing, so that
// what a request allocates is the server's alone.
type discardResponse struct {
	h    http.Header
	code int
}

func (w *discardResponse) Header() http.Header         { return w.h }
func (w *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardResponse) WriteHeader(code int)        { w.code = code }

// warmByteHit records body on tenant through the handler, on sc, and
// returns a post that serves body again as a byte hit on the warm
// template.
func warmByteHit(t *testing.T, s *Server, sc *reqScratch, tenant string, body []byte) (post func()) {
	t.Helper()
	w := &discardResponse{h: make(http.Header)}
	hr := httptest.NewRequest("POST", "/v1/graphs", nil)
	hr.Header.Set("X-Tenant", tenant)
	rd := new(bytes.Reader)
	hr.Body, hr.ContentLength = io.NopCloser(rd), int64(len(body))
	post = func() {
		rd.Reset(body)
		s.serveGraph(w, hr, sc)
		if w.code != http.StatusOK {
			t.Fatalf("status %d", w.code)
		}
		if sc.key == nil {
			t.Fatal("not a byte hit")
		}
		sc.release()
	}
	rd.Reset(body)
	s.serveGraph(w, hr, sc) // recorded
	sc.release()
	post()
	return post
}

// TestServeHitAllocatesNoBodyCopy: a warm byte hit on the 35 KB,
// 513-task lattice, through the handler on a warm scratch, allocates no
// buffer the size of its body (the decoder's copy of it was one), nor a
// graph: a few small objects for the window and the stream.
func TestServeHitAllocatesNoBodyCopy(t *testing.T) {
	s := New(Options{})
	defer s.Shutdown()
	body := latticeBody(16, 32, 8, false)
	post := warmByteHit(t, s, new(reqScratch), "allocs", body)
	tn, _ := s.Manager().Lookup("allocs")
	// The fewest bytes of a few measurements: a stray runtime allocation
	// must not read as the hit's.
	const runs = 20
	perHit := math.MaxInt
	for m := 0; m < 3; m++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			post()
		}
		runtime.ReadMemStats(&after)
		perHit = min(perHit, int((after.TotalAlloc-before.TotalAlloc)/runs))
	}
	t.Logf("a warm hit through the handler allocates %d bytes; the body is %d", perHit, len(body))
	if got := armOf(tn); got.hits != 3*runs+1 {
		t.Fatalf("the measured requests were not hits: %+v", got)
	}
	if perHit > len(body)/8 {
		t.Fatalf("a warm hit allocates %d bytes, more than an eighth of its %d-byte body", perHit, len(body))
	}
}

// TestServeHitEmitsWithoutAllocating: a warm byte hit through the
// handler allocates as many objects on a 128-task lattice as on a
// 512-task one: a task's transition event, its put in the mailbox and
// its label in the stream's task record allocate nothing.
func TestServeHitEmitsWithoutAllocating(t *testing.T) {
	s := New(Options{})
	defer s.Shutdown()
	sc := new(reqScratch)
	allocs := func(depth int) float64 {
		post := warmByteHit(t, s, sc, fmt.Sprintf("emit-%d", depth), latticeBody(16, depth, 8, false))
		// The fewest of a few measurements: a stray runtime allocation
		// must not read as the hit's.
		n := math.Inf(1)
		for i := 0; i < 3; i++ {
			n = min(n, testing.AllocsPerRun(10, post))
		}
		return n
	}
	small, large := allocs(8), allocs(32)
	t.Logf("a warm hit allocates %.0f objects at 128 tasks, %.0f at 512", small, large)
	if small != large {
		t.Fatalf("a warm hit allocates %.0f objects at 128 tasks and %.0f at 512: something is allocated per task", small, large)
	}
}

// BenchmarkServeHit is a warm hit on the 513-task lattice through the
// whole handler — read, match (or decode, validate and look up by
// shape), admit, replay eight iterations, stream — into a recorder.
func BenchmarkServeHit(b *testing.B) {
	s := New(Options{})
	defer s.Shutdown()
	h := s.Handler()
	body := latticeBody(16, 32, 8, false)
	post := func() {
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest("POST", "/v1/graphs", bytes.NewReader(body))
		hr.Header.Set("X-Tenant", "bench")
		h.ServeHTTP(rec, hr)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	post() // recorded (repeat 8)
	post()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
	b.StopTimer()
	tn, _ := s.Manager().Lookup("bench")
	if hits := tn.templateHits.Load(); hits != int64(b.N)+1 {
		b.Fatalf("%d hits over %d requests after the recording", hits, b.N+1)
	}
}

// aliasesBody reports whether b is a view of body.
func aliasesBody(b, body []byte) bool {
	return len(body) > 0 && aliasesBytes(b, unsafe.String(&body[0], len(body)))
}
