package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"taskdep/internal/fault"
)

// FuzzArgNumber holds scanNumber, the fast path of numeric arguments, to
// encoding/json on every input: json.Unmarshal into a *float64 and
// scanNumber read the same float64 bits, or both read null, or both
// refuse. argNumber, which falls back on encoding/json for what the fast
// path refuses, must then say what the library says. The committed
// corpus under testdata/fuzz/FuzzArgNumber holds the grammar's corners,
// so plain `go test` replays them.
func FuzzArgNumber(f *testing.F) {
	for _, s := range []string{"0", "-0", "1.5e-3", " 7 ", "null", "1e400", "01", `"1"`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		n, k := scanNumber(b)
		var p *float64
		err := json.Unmarshal(b, &p)
		switch {
		case err != nil:
			if k != numNot {
				t.Fatalf("%q: encoding/json refuses (%v), the fast path reads %v (kind %d)", b, err, n, k)
			}
		case p == nil:
			if k != numNull {
				t.Fatalf("%q: encoding/json reads null, the fast path %v (kind %d)", b, n, k)
			}
		default:
			if k != numIs || math.Float64bits(n) != math.Float64bits(*p) {
				t.Fatalf("%q: encoding/json reads %v (%#x), the fast path %v (%#x, kind %d)", b, *p, math.Float64bits(*p), n, math.Float64bits(n), k)
			}
		}
		if len(b) == 0 {
			return // an absent argument: the operator's default, not JSON
		}
		const def = 42
		got, gerr := argNumber(b, def)
		switch {
		case err != nil:
			var f float64
			want := "numeric arg: " + json.Unmarshal(b, &f).Error()
			if gerr == nil || gerr.Error() != want {
				t.Fatalf("%q: argNumber says %v, want %s", b, gerr, want)
			}
		case gerr != nil:
			t.Fatalf("%q: argNumber refuses (%v) what encoding/json reads", b, gerr)
		case p == nil && got != def, p != nil && math.Float64bits(got) != math.Float64bits(*p):
			t.Fatalf("%q: argNumber reads %v", b, got)
		}
	})
}

// TestScanNumberAllocatesNothing: the fast path converts in place.
func TestScanNumberAllocatesNothing(t *testing.T) {
	for _, s := range []string{"7", "-12.625e-3", " null ", "123456789012345678901234567890.5e7"} {
		b := []byte(s)
		if n := testing.AllocsPerRun(100, func() { scanNumber(b) }); n != 0 {
			t.Errorf("scanNumber(%q) allocates %.0f times", s, n)
		}
	}
}

// ---- the template arms over slots of every kind ----

// kindShape is the structure of a generated lattice: a row of consts,
// then rows of registry operators over the row above, then a tail that
// passes one slot on as "out". Every shape writes the same slot names,
// so different shapes (and different constants of one shape) leave
// numbers, strings, null and nested values in the same slots.
type kindShape struct {
	w, d int
	ops  [][]string // ops[row-1][col]
	cons [][][]int  // the columns of the row above each task consumes
	upd  [][]bool   // the task also updates its own slot of the row above
}

var kindOps = []string{"sum", "sum", "mul", "pass", "concat", "spin", "fail", "const"}

func newKindShape(r *rand.Rand) kindShape {
	sh := kindShape{w: 2 + r.Intn(3), d: 2 + r.Intn(3)}
	for row := 1; row < sh.d; row++ {
		var ops []string
		var cons [][]int
		var upd []bool
		for c := 0; c < sh.w; c++ {
			op := kindOps[r.Intn(len(kindOps))]
			if op == "fail" && r.Intn(4) > 0 {
				op = "sum" // fewer failures, so that results get reported
			}
			ops = append(ops, op)
			cons = append(cons, r.Perm(sh.w)[:r.Intn(sh.w+1)])
			upd = append(upd, r.Intn(4) == 0)
		}
		sh.ops, sh.cons, sh.upd = append(sh.ops, ops), append(sh.cons, cons), append(sh.upd, upd)
	}
	return sh
}

// numArgs and otherArgs are the literals a const takes: numbers of
// every form, and strings, null and nested JSON.
var (
	numArgs   = []string{"0", "-0", "1", "2.5", "-7", "1e300", "5e-324", "123456789.125", " 4 "}
	otherArgs = []string{`"s"`, `"1"`, "null", `{"a":[1,"x",null]}`, "[1,2.5]", "true"}
)

// render builds the request of shape sh with arguments from r.
func (sh kindShape) render(r *rand.Rand, repeat int) GraphRequest {
	slot := func(row, col int) string { return fmt.Sprintf("v%d_%d", row, col) }
	pick := func(s ...string) json.RawMessage {
		if a := s[r.Intn(len(s))]; a != "" {
			return json.RawMessage(a)
		}
		return nil
	}
	constArg := func() json.RawMessage {
		if r.Intn(5) == 0 {
			return pick(otherArgs...)
		}
		return pick(numArgs...)
	}
	var g GraphRequest
	for c := 0; c < sh.w; c++ {
		g.Tasks = append(g.Tasks, TaskWire{Op: "const", Arg: constArg(), Provide: []string{slot(0, c)}})
	}
	for row := 1; row < sh.d; row++ {
		for c := 0; c < sh.w; c++ {
			t := TaskWire{Op: sh.ops[row-1][c], Provide: []string{slot(row, c)}}
			for _, in := range sh.cons[row-1][c] {
				t.Consume = append(t.Consume, slot(row-1, in))
			}
			if sh.upd[row-1][c] {
				t.Update = []string{slot(row-1, c)}
			}
			switch t.Op {
			case "const":
				t.Arg = constArg()
			case "sum", "mul":
				t.Arg = pick("", "null", "3", "-0.5", "1e-3", "3", "-0.5", "1e-3", "", `"x"`)
			case "spin":
				t.Arg = pick("", "null", "0", "17")
			case "concat":
				t.Arg = pick("", `"-"`)
			case "fail":
				t.Arg = pick("", `"boom"`)
			}
			g.Tasks = append(g.Tasks, t)
		}
	}
	g.Tasks = append(g.Tasks, TaskWire{Label: "tail", Op: "pass", Consume: []string{slot(sh.d-1, 0)}, Provide: []string{"out"}})
	g.Repeat = repeat
	return g
}

// sameBits reports whether a and b are the same value, float64s
// compared bit for bit (so -0 is not 0, and a NaN is itself).
func sameBits(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !sameBits(x[i], y[i]) {
				return false
			}
		}
		return true
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			if w, ok := y[k]; !ok || !sameBits(v, w) {
				return false
			}
		}
		return true
	}
	return a == b
}

// outcome is what a request's run is determined by: the tasks that
// completed, the result values in order, and every task failure, sorted
// (which failure the runtime saw first is up to the schedule).
type outcome struct {
	done    []string
	results []Event
	err     []string
}

func outcomeOf(evs []Event, err error) outcome {
	var o outcome
	for _, e := range evs {
		switch e.Type {
		case "task":
			o.done = append(o.done, e.Tasks...)
		case "result":
			o.results = append(o.results, e)
		}
	}
	sort.Strings(o.done)
	var te *fault.TaskError
	if errors.As(err, &te) {
		o.err = append(o.err, te.Label+": "+te.Cause.Error())
		if joined, ok := te.Siblings.(interface{ Unwrap() []error }); ok {
			for _, sib := range joined.Unwrap() {
				if errors.As(sib, &te) {
					o.err = append(o.err, te.Label+": "+te.Cause.Error())
				} else {
					o.err = append(o.err, sib.Error())
				}
			}
		}
	} else if err != nil {
		o.err = append(o.err, err.Error())
	}
	sort.Strings(o.err)
	return o
}

func (o outcome) same(p outcome) bool {
	if !reflect.DeepEqual(o.done, p.done) || !reflect.DeepEqual(o.err, p.err) || len(o.results) != len(p.results) {
		return false
	}
	for i := range o.results {
		if o.results[i].Key != p.results[i].Key || !sameBits(o.results[i].Value, p.results[i].Value) {
			return false
		}
	}
	return true
}

// serialResults evaluates req one task after another, in request order,
// on boxed values, with every argument read by encoding/json: the
// reference the served lattices are held to. It returns the reported
// slots and their values, as Run reports them, and false when a task
// fails (which failures a window reports first is up to its schedule).
func serialResults(req *GraphRequest) ([]Event, bool) {
	slots := map[string]any{}
	var order []string
	for i := range req.Tasks {
		for _, n := range req.Tasks[i].Provide {
			if _, ok := slots[n]; !ok {
				slots[n] = nil
				order = append(order, n)
			}
		}
	}
	clear(slots)
	// numArg reads an optional numeric argument, def when absent or null.
	numArg := func(arg json.RawMessage, def float64) (float64, bool) {
		if len(arg) == 0 {
			return def, true
		}
		var p *float64
		if json.Unmarshal(arg, &p) != nil {
			return 0, false
		}
		if p == nil {
			return def, true
		}
		return *p, true
	}
	for it := 0; it < max(req.Repeat, 1); it++ {
		for i := range req.Tasks {
			w := &req.Tasks[i]
			var in []any
			for _, n := range append(append([]string(nil), w.Consume...), w.Update...) {
				in = append(in, slots[n])
			}
			var v any
			switch w.Op {
			case "const":
				if len(w.Arg) == 0 || json.Unmarshal(w.Arg, &v) != nil {
					return nil, false
				}
			case "sum", "mul":
				acc, ok := numArg(w.Arg, map[string]float64{"sum": 0, "mul": 1}[w.Op])
				for _, x := range in {
					f, isNum := x.(float64)
					if !ok || !isNum {
						return nil, false
					}
					if w.Op == "sum" {
						acc += f
					} else {
						acc *= f
					}
				}
				if !ok {
					return nil, false
				}
				v = acc
			case "pass":
				if len(in) == 0 {
					return nil, false
				}
				v = in[0]
			case "concat":
				sep := ""
				if len(w.Arg) > 0 && json.Unmarshal(w.Arg, &sep) != nil {
					return nil, false
				}
				parts := make([]string, len(in))
				for j, x := range in {
					parts[j] = fmt.Sprint(x)
				}
				v = strings.Join(parts, sep)
			case "spin":
				n, ok := numArg(w.Arg, 1000)
				if !ok || int(n) < 0 || int(n) > spinCap {
					return nil, false
				}
				v = spin(len(in), int(n))
			default:
				return nil, false
			}
			for _, n := range append(append([]string(nil), w.Update...), w.Provide...) {
				slots[n] = v
			}
		}
	}
	names := req.Results
	if len(names) == 0 {
		names = order
	}
	evs := make([]Event, len(names))
	for i, n := range names {
		evs[i] = Event{Type: "result", Key: n, Value: slots[n]}
	}
	return evs, true
}

// TestTemplateArmsAgreeAcrossSlotKinds is the differential test of the
// slots' two lanes: a seeded sequence of generated lattices is run by one
// long-lived tenant, which takes the cold, record and hit arms, and by a
// tenant made for each request. Every request must complete the same
// tasks, report bit-identical values and fail with the same errors on
// both, and a request that serialResults runs without a failure must
// report its values, bit for bit. Shapes recur with other constants, and
// a task may update a slot with a value of another kind than its
// provider's, so slots switch between numbers, strings, null and objects
// within a request and from one to the next; a kind left behind, or an
// argument a hit parsed wrongly, shows as a difference.
func TestTemplateArmsAgreeAcrossSlotKinds(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		long := newTestTenant(t, Options{Workers: 2})
		r := rand.New(rand.NewSource(seed))
		var shapes []kindShape
		clean, kinds := 0, map[string]bool{}
		for i := 0; i < 150; i++ {
			if len(shapes) == 0 || r.Intn(5) == 0 {
				shapes = append(shapes, newKindShape(r))
			}
			req := shapes[len(shapes)-1-r.Intn(min(len(shapes), 3))].render(r, []int{0, 1, 1, 2, 3}[r.Intn(5)])
			levs, lerr := runCollect(long, &req)
			m := NewManager(Options{Workers: 2})
			fresh, err := m.Tenant("t")
			if err != nil {
				t.Fatal(err)
			}
			fevs, ferr := runCollect(fresh, &req)
			m.CloseAll()
			l := outcomeOf(levs, lerr)
			if f := outcomeOf(fevs, ferr); !l.same(f) {
				body, _ := json.Marshal(req)
				t.Fatalf("seed %d request %d: the tenants disagree\nlong-lived %+v\nfresh      %+v\nrequest %s", seed, i, l, f, body)
			}
			want, ok := serialResults(&req)
			if ok != (lerr == nil) || ok && !l.same(outcome{done: l.done, results: want}) {
				body, _ := json.Marshal(req)
				t.Fatalf("seed %d request %d: served %+v (%v), serially %+v (ok %v)\nrequest %s", seed, i, l.results, lerr, want, ok, body)
			}
			if ok {
				clean++
				for _, e := range want {
					kinds[fmt.Sprintf("%T", e.Value)] = true
				}
			}
		}
		if a := armOf(long); a.hits == 0 || a.templates == 0 || a.misses <= a.templates || clean < 30 || len(kinds) < 4 {
			t.Fatalf("seed %d: the long-lived tenant ended at %+v, %d requests without a failure reporting %v: want hits, recordings, cold runs and results of four kinds", seed, a, clean, kinds)
		}
		t.Logf("seed %d: %+v, %d requests without a failure, reporting %v", seed, armOf(long), clean, kinds)
	}
}
