package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// shadowRequest has GraphRequest's fields and none of its methods, so
// encoding/json decodes it by reflection: the reference the decoder is
// checked against.
type shadowRequest GraphRequest

// decodeDirect is what the handler does with a body.
func decodeDirect(data []byte) (GraphRequest, error) {
	var req GraphRequest
	err := decodeRequest(&req, append([]byte(nil), data...), new(arenas))
	return req, err
}

// repeatsMember reports whether some object in data has two member
// names that encoding/json would resolve to the same field. False for
// anything that is not valid JSON.
func repeatsMember(data []byte) bool {
	type frame struct {
		object, wantKey bool
		keys            []string
	}
	var stack []frame
	valueDone := func() {
		if n := len(stack); n > 0 && stack[n-1].object {
			stack[n-1].wantKey = true
		}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch v := tok.(type) {
		case json.Delim:
			switch v {
			case '{':
				stack = append(stack, frame{object: true, wantKey: true})
			case '[':
				stack = append(stack, frame{})
			default:
				stack = stack[:len(stack)-1]
				valueDone()
			}
		case string:
			if n := len(stack); n > 0 && stack[n-1].wantKey {
				top := &stack[n-1]
				for _, k := range top.keys {
					if strings.EqualFold(k, v) {
						return true
					}
				}
				top.keys = append(top.keys, v)
				top.wantKey = false
				continue
			}
			valueDone()
		default:
			valueDone()
		}
	}
}

// overLimits reports whether a request decoded by reflection is one the
// decoder refuses for its size.
func overLimits(req *shadowRequest) bool {
	if len(req.Tasks) > MaxTasks {
		return true
	}
	for i := range req.Tasks {
		if len(req.Tasks[i].Arg) > MaxArgBytes {
			return true
		}
	}
	return false
}

// checkDecode holds the decoder to its rule on data, and returns what it
// made of it. Going through encoding/json (UnmarshalJSON) must give the
// same answer as decoding the body directly; Validate must survive
// whatever is accepted.
func checkDecode(t *testing.T, data []byte) (GraphRequest, error) {
	t.Helper()
	got, err := decodeDirect(data)
	var via GraphRequest
	if verr := json.Unmarshal(data, &via); (verr == nil) != (err == nil) {
		t.Fatalf("direct decode: %v, through encoding/json: %v\ninput %.200q", err, verr, data)
	} else if err == nil && !reflect.DeepEqual(got, via) {
		t.Fatalf("direct decode %+v\nthrough encoding/json %+v\ninput %.200q", got, via, data)
	}
	if err == nil {
		checkShape(t, &got, data)
	}
	var want shadowRequest
	werr := json.Unmarshal(data, &want)
	differs := ""
	switch {
	case err != nil && werr == nil && overLimits(&want):
	case (err == nil) != (werr == nil):
		differs = fmt.Sprintf("decoder: %v, encoding/json: %v", err, werr)
	case err == nil && !reflect.DeepEqual(got, GraphRequest(want)):
		differs = fmt.Sprintf("decoder %+v\nencoding/json %+v", got, GraphRequest(want))
	}
	if differs != "" && !repeatsMember(data) {
		t.Fatalf("%s\ninput %.200q", differs, data)
	}
	if err == nil && werr == nil && differs == "" {
		if shadow := GraphRequest(want); !bytes.Equal(appendShape(nil, &got), appendShape(nil, &shadow)) {
			t.Fatalf("the decoded request and its encoding/json shadow differ in shape\ninput %.200q", data)
		}
	}
	return got, err
}

// shapeVerdicts remembers, for the shapes checkShape has seen, what
// Validate makes of a request of that shape.
var shapeVerdicts struct {
	sync.Mutex
	m map[string]string
}

// checkShape holds Validate and the template cache's shape (template.go)
// to what a hit relies on: Validate looks at nothing outside the shape
// but repeat and the size of the arguments (which the decoder has bounded
// already), so req and req with repeat 1 and no arguments get the same
// verdict, unless req's repeat is what is wrong with it; and the shape
// leaves out nothing Validate looks at, so two accepted inputs of equal
// shape get the same verdict, whatever their constants.
func checkShape(t *testing.T, req *GraphRequest, data []byte) {
	t.Helper()
	errString := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	bare := GraphRequest{Tasks: slices.Clone(req.Tasks), Repeat: 1, Results: req.Results}
	for i := range bare.Tasks {
		bare.Tasks[i].Arg = nil
	}
	shape := appendShape(nil, req)
	if !bytes.Equal(shape, appendShape(nil, &bare)) {
		t.Fatalf("arguments or repeat are part of the shape\ninput %.200q", data)
	}
	verdict := errString(bare.Validate())
	if got := errString(req.Validate()); got != verdict && 0 <= req.Repeat && req.Repeat <= MaxRepeat {
		t.Fatalf("Validate says %q, and %q without the arguments and repeat\ninput %.200q", got, verdict, data)
	}
	shapeVerdicts.Lock()
	defer shapeVerdicts.Unlock()
	if shapeVerdicts.m == nil || len(shapeVerdicts.m) > 4096 {
		shapeVerdicts.m = make(map[string]string)
	}
	if seen, ok := shapeVerdicts.m[string(shape)]; ok && seen != verdict {
		t.Fatalf("two inputs of one shape, two verdicts: %q and %q\ninput %.200q", seen, verdict, data)
	}
	shapeVerdicts.m[string(shape)] = verdict
}

// latticeBody renders the benchmark's request shape: w const tasks, then
// d-1 rows of w sums over the three upper neighbours, then a labelled
// tail over the last row. 16x32 with repeat 8 and one result is the
// 35 KB serve_replay body; small ones with every slot reported are
// serve_small's.
func latticeBody(w, d, repeat int, allResults bool) []byte {
	var b bytes.Buffer
	b.WriteString(`{"tasks":[`)
	for c := 0; c < w; c++ {
		if c > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"op":"const","arg":%d,"provide":["v0_%d"]}`, (c*7)%10, c)
	}
	for row := 1; row < d; row++ {
		for c := 0; c < w; c++ {
			fmt.Fprintf(&b, `,{"op":"sum","consume":["v%[1]d_%[2]d","v%[1]d_%[3]d","v%[1]d_%[4]d"],"provide":["v%[5]d_%[3]d"]}`,
				row-1, (c+w-1)%w, c, (c+1)%w, row)
		}
	}
	b.WriteString(`,{"label":"tail","op":"sum","consume":[`)
	for c := 0; c < w; c++ {
		if c > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `"v%d_%d"`, d-1, c)
	}
	b.WriteString(`],"provide":["out"]}]`)
	if repeat > 1 {
		fmt.Fprintf(&b, `,"repeat":%d`, repeat)
	}
	if !allResults {
		b.WriteString(`,"results":["out"]`)
	}
	b.WriteByte('}')
	return b.Bytes()
}

// nested is a one-task request whose arg is depth arrays inside one
// another; the arg's innermost array is then 3+depth containers deep.
func nested(depth int) []byte {
	return []byte(`{"tasks":[{"op":"const","arg":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `,"provide":["x"]}]}`)
}

// manyTasks is a request of n empty tasks.
func manyTasks(n int) []byte {
	return []byte(`{"tasks":[{}` + strings.Repeat(`,{}`, n-1) + `]}`)
}

// decodeCases pins the decoder's rule case by case; every one is also
// held to the differential rule, served over HTTP (hostile input is a
// 4xx, never a panic) and seeds the fuzzer.
var decodeCases = []struct {
	name string
	in   []byte
	ok   bool
	// check inspects an accepted request.
	check func(*GraphRequest) bool
}{
	{"minimal", []byte(`{"tasks":[{"op":"const","arg":2,"provide":["x"]}]}`), true, func(g *GraphRequest) bool {
		return len(g.Tasks) == 1 && g.Tasks[0].Op == "const" && string(g.Tasks[0].Arg) == "2" &&
			reflect.DeepEqual(g.Tasks[0].Provide, []string{"x"}) && g.Tasks[0].Consume == nil && g.Results == nil
	}},
	{"white space", []byte(" \t\r\n{ \"tasks\" : [ { \"op\" : \"pass\" , \"consume\" : [ \"a\" , \"b\" ] } ] , \"repeat\" : 3 } \n"), true, func(g *GraphRequest) bool {
		return g.Repeat == 3 && reflect.DeepEqual(g.Tasks[0].Consume, []string{"a", "b"})
	}},
	{"replay body", latticeBody(16, 32, 8, false), true, func(g *GraphRequest) bool {
		return len(g.Tasks) == 513 && g.Repeat == 8 && g.Tasks[512].Label == "tail" && len(g.Tasks[512].Consume) == 16
	}},
	{"small body", latticeBody(5, 9, 1, true), true, func(g *GraphRequest) bool { return len(g.Tasks) == 46 && g.Results == nil }},
	// Three inputs for the shape property (checkShape): the second has the
	// first's shape and other constants, the third one name moved from
	// consume to update, which is another graph.
	{"sum graph", []byte(`{"tasks":[{"label":"a","op":"const","arg":1,"provide":["x"]},{"label":"b","op":"const","arg":2,"provide":["y"]},{"label":"add","op":"sum","consume":["x","y"],"provide":["total"]}],"results":["total"]}`), true, func(g *GraphRequest) bool {
		// A count, then per task two strings and three lists, then the result
		// list, every string and list behind a one-byte length here.
		return len(appendShape(nil, g)) == 1+13+13+21+7
	}},
	{"sum graph, other constants", []byte(`{"tasks":[{"label":"a","op":"const","arg":7,"provide":["x"]},{"label":"b","op":"const","arg":-1.5e2,"provide":["y"]},{"label":"add","op":"sum","arg":0.5,"consume":["x","y"],"provide":["total"]}],"repeat":4,"results":["total"]}`), true, func(g *GraphRequest) bool {
		base, _ := decodeDirect([]byte(`{"tasks":[{"label":"a","op":"const","arg":1,"provide":["x"]},{"label":"b","op":"const","arg":2,"provide":["y"]},{"label":"add","op":"sum","consume":["x","y"],"provide":["total"]}],"results":["total"]}`))
		return g.Repeat == 4 && bytes.Equal(appendShape(nil, g), appendShape(nil, &base))
	}},
	{"sum graph, a name moved to update", []byte(`{"tasks":[{"label":"a","op":"const","arg":1,"provide":["x"]},{"label":"b","op":"const","arg":2,"provide":["y"]},{"label":"add","op":"sum","consume":["x"],"update":["y"],"provide":["total"]}],"results":["total"]}`), true, func(g *GraphRequest) bool {
		base, _ := decodeDirect([]byte(`{"tasks":[{"label":"a","op":"const","arg":1,"provide":["x"]},{"label":"b","op":"const","arg":2,"provide":["y"]},{"label":"add","op":"sum","consume":["x","y"],"provide":["total"]}],"results":["total"]}`))
		return !bytes.Equal(appendShape(nil, g), appendShape(nil, &base))
	}},
	{"empty object", []byte(`{}`), true, func(g *GraphRequest) bool { return g.Tasks == nil }},
	{"top-level null", []byte(`null`), true, func(g *GraphRequest) bool { return g.Tasks == nil }},
	{"top-level array", []byte(`[]`), false, nil},
	{"top-level string", []byte(`"tasks"`), false, nil},
	{"empty body", nil, false, nil},
	{"only white space", []byte("  \n"), false, nil},

	{"exact then folded names", []byte(`{"Tasks":[{"OP":"const","Arg":1,"PROVIDE":["x"]}],"REPEAT":2,"rEsUlTs":["x"]}`), true, func(g *GraphRequest) bool {
		return len(g.Tasks) == 1 && g.Tasks[0].Op == "const" && g.Repeat == 2 && len(g.Results) == 1
	}},
	{"TASKS", []byte(`{"TASKS":[{"op":"pass"}]}`), true, func(g *GraphRequest) bool { return len(g.Tasks) == 1 }},
	{"kelvin sign folds to k", []byte("{\"tas\u212as\":[{\"op\":\"pass\"}]}"), true, func(g *GraphRequest) bool { return len(g.Tasks) == 1 }},
	{"escaped member name", []byte(`{"t\u0061sks":[{"\u006fp":"pass"}]}`), true, func(g *GraphRequest) bool {
		return len(g.Tasks) == 1 && g.Tasks[0].Op == "pass"
	}},
	{"unknown members skipped", []byte(`{"version":[1,{"a":null}],"tasks":[{"op":"pass","priority":1e9,"meta":{"k":[true,false]}}],"x":"y"}`), true, func(g *GraphRequest) bool {
		return len(g.Tasks) == 1 && g.Tasks[0].Op == "pass"
	}},
	{"unknown member with bad syntax", []byte(`{"version":[1,],"tasks":[]}`), false, nil},
	{"unknown member with bad number", []byte(`{"version":01,"tasks":[]}`), false, nil},

	{"nulls", []byte(`{"tasks":[null,{"label":null,"op":null,"arg":null,"consume":null,"provide":[null,"x"],"update":[]}],"repeat":null,"results":null}`), true, func(g *GraphRequest) bool {
		t := g.Tasks[1]
		return len(g.Tasks) == 2 && reflect.DeepEqual(g.Tasks[0], TaskWire{}) && t.Label == "" && t.Op == "" &&
			string(t.Arg) == "null" && t.Consume == nil && reflect.DeepEqual(t.Provide, []string{"", "x"}) &&
			t.Update != nil && len(t.Update) == 0 && g.Repeat == 0 && g.Results == nil
	}},
	{"tasks null", []byte(`{"tasks":null}`), true, func(g *GraphRequest) bool { return g.Tasks == nil }},
	{"tasks empty", []byte(`{"tasks":[]}`), true, func(g *GraphRequest) bool { return g.Tasks != nil && len(g.Tasks) == 0 }},
	{"arg keeps its bytes", []byte(`{"tasks":[{"arg": {"a" : [1, 2.5e-3, "s\n"]} }]}`), true, func(g *GraphRequest) bool {
		return string(g.Tasks[0].Arg) == `{"a" : [1, 2.5e-3, "s\n"]}`
	}},

	{"repeat negative zero", []byte(`{"repeat":-0}`), true, func(g *GraphRequest) bool { return g.Repeat == 0 }},
	{"repeat negative", []byte(`{"repeat":-12}`), true, func(g *GraphRequest) bool { return g.Repeat == -12 }},
	{"repeat max int64", []byte(`{"repeat":9223372036854775807}`), strconv.IntSize == 64, nil},
	{"repeat 1.0", []byte(`{"repeat":1.0}`), false, nil},
	{"repeat 1e1", []byte(`{"repeat":1e1}`), false, nil},
	{"repeat overflow", []byte(`{"repeat":9223372036854775808}`), false, nil},
	{"repeat string", []byte(`{"repeat":"3"}`), false, nil},
	{"repeat leading zero", []byte(`{"repeat":03}`), false, nil},
	{"repeat lone minus", []byte(`{"repeat":-}`), false, nil},
	{"repeat true", []byte(`{"repeat":true}`), false, nil},

	{"tasks object", []byte(`{"tasks":{}}`), false, nil},
	{"task number", []byte(`{"tasks":[1]}`), false, nil},
	{"op number", []byte(`{"tasks":[{"op":1}]}`), false, nil},
	{"label array", []byte(`{"tasks":[{"label":[]}]}`), false, nil},
	{"consume string", []byte(`{"tasks":[{"consume":"x"}]}`), false, nil},
	{"consume number element", []byte(`{"tasks":[{"consume":[1]}]}`), false, nil},
	{"results object", []byte(`{"results":{}}`), false, nil},

	{"trailing data", []byte(`{"tasks":[]} {"tasks":[]}`), false, nil},
	{"trailing garbage", []byte(`{"tasks":[]}x`), false, nil},
	{"trailing comma in object", []byte(`{"tasks":[],}`), false, nil},
	{"trailing comma in array", []byte(`{"tasks":[{},]}`), false, nil},
	{"missing colon", []byte(`{"tasks" []}`), false, nil},
	{"missing comma", []byte(`{"tasks":[] "repeat":1}`), false, nil},
	{"unquoted name", []byte(`{tasks:[]}`), false, nil},
	{"unterminated object", []byte(`{"tasks":[{"op":"pass"}]`), false, nil},
	{"unterminated array", []byte(`{"tasks":[{"op":"pass"}`), false, nil},
	{"unterminated string", []byte(`{"tasks":[{"op":"pas`), false, nil},
	{"unterminated escape", []byte(`{"tasks":[{"op":"pas\`), false, nil},
	{"unterminated name", []byte(`{"tas`), false, nil},
	{"control character in string", []byte("{\"tasks\":[{\"op\":\"pa\nss\"}]}"), false, nil},
	{"control character in arg", []byte("{\"tasks\":[{\"arg\":\"\x01\"}]}"), false, nil},
	{"bad escape", []byte(`{"tasks":[{"op":"\q"}]}`), false, nil},
	{"short \\u", []byte(`{"tasks":[{"op":"\u12"}]}`), false, nil},
	{"bad \\u in arg", []byte(`{"tasks":[{"arg":"\u12g4"}]}`), false, nil},
	{"bad literal", []byte(`{"tasks":[{"arg":nul}]}`), false, nil},
	{"bad number in arg", []byte(`{"tasks":[{"arg":1.}]}`), false, nil},
	{"bad exponent in arg", []byte(`{"tasks":[{"arg":1e+}]}`), false, nil},
	{"plus sign", []byte(`{"tasks":[{"arg":+1}]}`), false, nil},

	{"escapes in a label", []byte(`{"tasks":[{"label":"a\"b\\c\/d\b\f\n\r\té","op":"pass"}]}`), true, func(g *GraphRequest) bool {
		return g.Tasks[0].Label == "a\"b\\c/d\b\f\n\r\té"
	}},
	{"surrogate pair", []byte(`{"tasks":[{"provide":["\ud83d\ude00"]}]}`), true, func(g *GraphRequest) bool {
		return g.Tasks[0].Provide[0] == "\U0001F600"
	}},
	{"lone surrogate", []byte(`{"tasks":[{"provide":["a\ud83db"]}]}`), true, func(g *GraphRequest) bool {
		return g.Tasks[0].Provide[0] == "a\ufffdb"
	}},
	{"non-ASCII name", []byte(`{"tasks":[{"provide":["é"]}]}`), true, func(g *GraphRequest) bool { return g.Tasks[0].Provide[0] == "é" }},
	{"invalid UTF-8 in a slot name", []byte("{\"tasks\":[{\"provide\":[\"a\xffb\"]}]}"), true, func(g *GraphRequest) bool {
		return g.Tasks[0].Provide[0] == "a\ufffdb"
	}},

	{"duplicate tasks: last wins", []byte(`{"tasks":[{"op":"a","label":"first"},{"op":"b"}],"tasks":[{"op":"c"}]}`), true, func(g *GraphRequest) bool {
		return len(g.Tasks) == 1 && g.Tasks[0].Op == "c" && g.Tasks[0].Label == ""
	}},
	{"duplicate by case", []byte(`{"repeat":1,"Repeat":2,"tasks":[{"consume":["a","b"],"Consume":[null]}]}`), true, func(g *GraphRequest) bool {
		return g.Repeat == 2 && reflect.DeepEqual(g.Tasks[0].Consume, []string{""})
	}},

	{"nesting at the bound", nested(maxNesting - 3), true, nil},
	{"nesting past the bound", nested(maxNesting - 2), false, nil},
	{"unknown member nested past the bound", []byte(`{"x":` + strings.Repeat("[", maxNesting) + strings.Repeat("]", maxNesting) + `}`), false, nil},
	{"4 MiB of [", bytes.Repeat([]byte("["), MaxBodyBytes), false, nil},
	{"4 MiB of [ as an arg", append([]byte(`{"tasks":[{"arg":`), bytes.Repeat([]byte("["), MaxBodyBytes-17)...), false, nil},
	{"4 MiB of {\"a\":", bytes.Repeat([]byte(`{"a":`), MaxBodyBytes/5), false, nil},

	{"MaxTasks tasks", manyTasks(MaxTasks), true, func(g *GraphRequest) bool { return len(g.Tasks) == MaxTasks }},
	{"one task too many", manyTasks(MaxTasks + 1), false, nil},
	{"100 000 tasks", manyTasks(100000), false, nil},
	{"arg at the limit", []byte(`{"tasks":[{"arg":"` + strings.Repeat("a", MaxArgBytes-2) + `"}]}`), true, nil},
	{"arg past the limit", []byte(`{"tasks":[{"arg":"` + strings.Repeat("a", MaxArgBytes-1) + `"}]}`), false, nil},
}

func TestDecodeRequestCases(t *testing.T) {
	for _, tc := range decodeCases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := checkDecode(t, tc.in)
			switch {
			case (err == nil) != tc.ok:
				t.Fatalf("decode error %v, want accepted = %v", err, tc.ok)
			case err == nil && tc.check != nil && !tc.check(&req):
				t.Fatalf("decoded %+v", req)
			case err != nil && !strings.HasPrefix(err.Error(), "serve: decode: offset "):
				t.Fatalf("error %q does not say where", err)
			}
		})
	}
}

// TestDecodeRejectsWithoutLargeAllocation: refusing hostile input costs
// the copy of the body and an error, not memory in proportion to what
// the input pretends to hold, and no stack in proportion to its depth
// beyond the nesting bound.
func TestDecodeRejectsWithoutLargeAllocation(t *testing.T) {
	for _, tc := range decodeCases {
		if tc.ok || len(tc.in) < 1<<20 {
			continue
		}
		var req GraphRequest
		a := new(arenas)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decodeRequest(&req, tc.in, a)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(tc.in)+1<<20); got > limit {
			t.Errorf("%s: refusing %d bytes allocated %d", tc.name, len(tc.in), got)
		}
	}
}

// TestDecodeCasesOverHTTP: the handler answers every refused case with a
// 400 and counts it, and decodes every accepted one (Validate may still
// refuse it: also a 400, or it runs).
func TestDecodeCasesOverHTTP(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	bad := int64(0)
	for _, tc := range decodeCases {
		resp, err := ts.Client().Post(ts.URL+"/v1/graphs", "application/json", bytes.NewReader(tc.in))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var reply struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if resp.StatusCode == http.StatusBadRequest {
			bad++
		}
		if !tc.ok {
			if resp.StatusCode != http.StatusBadRequest || !strings.HasPrefix(reply.Error, "serve: decode: ") {
				t.Errorf("%s: status %d, error %q; want a 400 from the decoder", tc.name, resp.StatusCode, reply.Error)
			}
		} else if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d", tc.name, resp.StatusCode)
		}
	}
	if got := s.badRequests.Load(); got != bad {
		t.Errorf("tdgserve_bad_requests_total = %d after %d 400s", got, bad)
	}
}

// TestUnmarshalJSONResetsTheRequest: decoding replaces the request, it
// does not merge into what was there.
func TestUnmarshalJSONResetsTheRequest(t *testing.T) {
	req := sumGraph(1, 2)
	req.Repeat = 7
	if err := json.Unmarshal([]byte(`{"tasks":[{"op":"pass"}]}`), &req); err != nil {
		t.Fatal(err)
	}
	if len(req.Tasks) != 1 || req.Tasks[0].Label != "" || req.Repeat != 0 || req.Results != nil {
		t.Fatalf("decoded into a used request: %+v", req)
	}
	// A decoder stream still yields one request per value.
	dec := json.NewDecoder(strings.NewReader(`{"repeat":1} {"repeat":2}`))
	for want := 1; want <= 2; want++ {
		if err := dec.Decode(&req); err != nil || req.Repeat != want {
			t.Fatalf("value %d of a stream: %+v, %v", want, req, err)
		}
	}
}

// FuzzDecodeRequest searches for an input on which the decoder breaks
// its rule (see decode.go) or Validate panics. The committed corpus
// under testdata/fuzz holds the table's cases and the two benchmark
// bodies, so plain `go test` replays them.
func FuzzDecodeRequest(f *testing.F) {
	for _, tc := range decodeCases {
		if len(tc.in) <= 1<<16 {
			f.Add(tc.in)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
	})
}

// BenchmarkDecodeRequest is the decode layer on the 35 KB serve_replay
// body: "direct" as the handler calls it, arenas warm; "json" as a
// caller of encoding/json reaches it, which adds the library's own scan
// of the body and fresh arenas; "reflect" is the library decoding the
// same struct by reflection, what the handler did before.
func BenchmarkDecodeRequest(b *testing.B) {
	body := latticeBody(16, 32, 8, false)
	b.Run("direct", func(b *testing.B) {
		var req GraphRequest
		a := new(arenas)
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a.names = a.names[:0]
			if err := decodeRequest(&req, body, a); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req GraphRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reflect", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req shadowRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
