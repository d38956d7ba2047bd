package serve

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"unsafe"

	"taskdep/internal/values"
)

// Op is a server-side operator: Parse turns a task's JSON argument into
// the task's data, and Do runs one execution of the task on that data.
//
// Clients submit data, not code, so the executable surface is this
// fixed registry; it is deliberately small but covers literals,
// arithmetic reductions, string assembly, synthetic load and failure
// injection — enough to express the benchmark graphs and to exercise
// every runtime path the native API reaches.
type Op struct {
	// Parse reads a task's argument into an Arg, once per request: when
	// the graph is built, and again for each later request that replays
	// it from the template cache (its arguments are the replay's
	// firstprivate data). It is not called per execution: a repeat:n
	// graph executes every task n times. A non-nil error is what every
	// execution of the task then returns, so a bad argument surfaces as a
	// task failure, not a rejected request. arg is a view of the request
	// body, valid during the call only: keep what was parsed from it, not
	// the bytes. A nil Parse ignores the argument.
	Parse func(arg json.RawMessage) (Arg, error)
	// Do runs one execution: it receives the parsed argument and the
	// handles of the task's Consume slots followed by its Update slots,
	// and returns the value stored into every Provide and Update slot —
	// a number (IsNum) unboxed, anything else as Val. A non-nil error
	// aborts the task and poisons its consumer cone, exactly like a
	// failing Spec.Do. Do reads its inputs through the handles
	// (Handle.Float reads a number without boxing it) and must not retain
	// in, nor write to arg. Do may be nil only when Parse always fails
	// (fail).
	Do func(arg *Arg, in []values.Handle) (Arg, error)
}

// Arg is a value as an operator holds it: a number in Num (IsNum set),
// any other value in Val. A task's parsed argument is one, held on the
// task, so a request that replays a cached graph parses its arguments
// without allocating anything per task; so is a result, so that a number
// reaches the store without being boxed.
type Arg struct {
	Val   any
	Num   float64
	IsNum bool
}

// number is the Arg of the number x.
func number(x float64) Arg { return Arg{Num: x, IsNum: true} }

// Ops is the operator registry keyed by TaskWire.Op.
var Ops = map[string]*Op{
	"const":  {Parse: parseConst, Do: doConst},
	"sum":    {Parse: numberOr("sum", 0), Do: doSum},
	"mul":    {Parse: numberOr("mul", 1), Do: doMul},
	"concat": {Parse: parseConcat, Do: doConcat},
	"pass":   {Do: doPass},
	"spin":   {Parse: parseSpin, Do: doSpin},
	"fail":   {Parse: parseFail},
}

// parseConst decodes its argument as a JSON value; null is the literal,
// not an absent argument.
func parseConst(arg json.RawMessage) (Arg, error) {
	if len(arg) == 0 {
		return Arg{}, fmt.Errorf("const: missing arg")
	}
	switch n, k := scanNumber(arg); k {
	case numIs:
		return number(n), nil
	case numNull:
		return Arg{}, nil
	}
	var v any
	if err := json.Unmarshal(arg, &v); err != nil {
		return Arg{}, fmt.Errorf("const: %w", err)
	}
	return Arg{Val: v}, nil
}

// doConst returns the literal.
func doConst(a *Arg, _ []values.Handle) (Arg, error) { return *a, nil }

// numberOr parses the optional numeric argument of the operator name,
// def when absent or null.
func numberOr(name string, def float64) func(json.RawMessage) (Arg, error) {
	return func(arg json.RawMessage) (Arg, error) {
		n, err := argNumber(arg, def)
		if err != nil {
			return Arg{}, fmt.Errorf("%s: %w", name, err)
		}
		return number(n), nil
	}
}

// notNumber is the error of the operator name whose input i, h, holds
// something other than a number.
func notNumber(name string, i int, h values.Handle) error {
	return fmt.Errorf("%s: input %d is %T, not a number", name, i, h.Any())
}

// doSum adds its numeric inputs to the argument.
func doSum(a *Arg, in []values.Handle) (Arg, error) {
	s := a.Num
	for i, h := range in {
		x, ok := h.Float()
		if !ok {
			return Arg{}, notNumber("sum", i, h)
		}
		s += x
	}
	return number(s), nil
}

// doMul multiplies the argument by its numeric inputs.
func doMul(a *Arg, in []values.Handle) (Arg, error) {
	p := a.Num
	for i, h := range in {
		x, ok := h.Float()
		if !ok {
			return Arg{}, notNumber("mul", i, h)
		}
		p *= x
	}
	return number(p), nil
}

// parseConcat reads the separator, a string argument.
func parseConcat(arg json.RawMessage) (Arg, error) {
	sep := ""
	if len(arg) > 0 {
		if err := json.Unmarshal(arg, &sep); err != nil {
			return Arg{}, fmt.Errorf("concat: %w", err)
		}
	}
	return Arg{Val: sep}, nil
}

// doConcat joins the inputs' string forms with the separator.
func doConcat(a *Arg, in []values.Handle) (Arg, error) {
	parts := make([]string, len(in))
	for i, h := range in {
		parts[i] = fmt.Sprint(h.Any())
	}
	return Arg{Val: strings.Join(parts, a.Val.(string))}, nil
}

// doPass forwards its first input unchanged (a rename/fan-out node).
func doPass(_ *Arg, in []values.Handle) (Arg, error) {
	if len(in) == 0 {
		return Arg{}, fmt.Errorf("pass: no input")
	}
	if x, ok := in[0].Float(); ok {
		return number(x), nil
	}
	return Arg{Val: in[0].Any()}, nil
}

// spinCap bounds synthetic work per task so a hostile client cannot
// pin a tenant's worker indefinitely with one task.
const spinCap = 50_000_000

// parseSpin reads the iteration count, 1 000 when absent or null.
func parseSpin(arg json.RawMessage) (Arg, error) {
	n, err := argNumber(arg, 1000)
	if err != nil {
		return Arg{}, fmt.Errorf("spin: %w", err)
	}
	iters := int(n)
	if iters < 0 || iters > spinCap {
		return Arg{}, fmt.Errorf("spin: %d out of range [0,%d]", iters, spinCap)
	}
	return number(float64(iters)), nil
}

// doSpin burns the argument's iterations of integer work — synthetic
// load for benchmarks and for holding a tenant busy in tests.
func doSpin(a *Arg, in []values.Handle) (Arg, error) {
	return number(spin(len(in), int(a.Num))), nil
}

// spin returns the folded value of iters steps, so the loop cannot be
// optimized away.
func spin(inputs, iters int) float64 {
	acc := uint64(inputs + 1)
	for i := 0; i < iters; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	return float64(acc % 1e9)
}

// parseFail returns the error carrying the (string) argument that every
// execution fails with — the client-reachable way to poison a consumer
// cone.
func parseFail(arg json.RawMessage) (Arg, error) {
	msg := "injected failure"
	if len(arg) > 0 {
		if err := json.Unmarshal(arg, &msg); err != nil {
			return Arg{}, fmt.Errorf("fail: bad arg: %w", err)
		}
	}
	return Arg{}, fmt.Errorf("fail: %s", msg)
}

// argNumber decodes an optional numeric argument: def when it is absent
// or null. A number takes scanNumber's path; anything else goes to
// encoding/json, which says why it is not one (FuzzArgNumber holds that
// it refuses whatever scanNumber does).
func argNumber(arg json.RawMessage, def float64) (float64, error) {
	if len(arg) == 0 {
		return def, nil
	}
	switch n, k := scanNumber(arg); k {
	case numIs:
		return n, nil
	case numNull:
		return def, nil
	}
	var n float64
	if err := json.Unmarshal(arg, &n); err != nil {
		return 0, fmt.Errorf("numeric arg: %w", err)
	}
	return n, nil
}

// numKind is what scanNumber read.
type numKind uint8

const (
	numNot  numKind = iota // anything else, or a number a float64 cannot hold
	numIs                  // a number
	numNull                // null
)

// scanNumber reads b as JSON text that is a number or null: exactly RFC
// 8259's number grammar, with white space around it, converted as
// encoding/json converts it (strconv.ParseFloat, refused on overflow).
// FuzzArgNumber holds it to json.Unmarshal into a *float64: the same
// bits, the same null, or both refuse.
func scanNumber(b []byte) (float64, numKind) {
	isSpace := func(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
	for len(b) > 0 && isSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && isSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	if string(b) == "null" {
		return 0, numNull
	}
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(i + 1)
	default:
		return 0, numNot
	}
	if i < len(b) && b[i] == '.' {
		if j := digits(i + 1); j > i+1 {
			i = j
		} else {
			return 0, numNot
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := digits(i); j > i {
			i = j
		} else {
			return 0, numNot
		}
	}
	if i != len(b) {
		return 0, numNot
	}
	// A view, not a copy: ParseFloat keeps nothing of its input past the
	// call but in its error, which is dropped here.
	n, err := strconv.ParseFloat(unsafe.String(&b[0], len(b)), 64)
	if err != nil {
		return 0, numNot
	}
	return n, numIs
}
