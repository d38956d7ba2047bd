package serve

import (
	"encoding/json"
	"fmt"
	"strings"
)

// OpBody is one task's executable body: it receives the values of the
// task's Consume slots followed by its Update slots, and returns the
// value stored into every Provide and Update slot. A non-nil error
// aborts the task and poisons its consumer cone, exactly like a failing
// Spec.Do. in is reused between executions of the task: a body must not
// retain the slice.
type OpBody func(in []any) (any, error)

// OpFunc is a server-side operator: given a task's JSON argument it
// returns the task's body. The argument is parsed here, once per task,
// not on each execution (a repeat:n graph executes every body n times);
// a bad argument yields a body that fails with the parse error, so it
// still surfaces as a task failure at execution. arg is a view of the
// request body, valid during the call only: keep what was parsed from
// it, not the bytes.
//
// Clients submit data, not code, so the executable surface is this
// fixed registry; it is deliberately small but covers literals,
// arithmetic reductions, string assembly, synthetic load and failure
// injection — enough to express the benchmark graphs and to exercise
// every runtime path the native API reaches.
type OpFunc func(arg json.RawMessage) OpBody

// Ops is the operator registry keyed by TaskWire.Op.
var Ops = map[string]OpFunc{
	"const":  opConst,
	"sum":    opSum,
	"mul":    opMul,
	"concat": opConcat,
	"pass":   opPass,
	"spin":   opSpin,
	"fail":   opFail,
}

// failing is the body of a task that always fails with err.
func failing(err error) OpBody {
	return func([]any) (any, error) { return nil, err }
}

// opConst returns its argument decoded as a JSON value.
func opConst(arg json.RawMessage) OpBody {
	if len(arg) == 0 {
		return failing(fmt.Errorf("const: missing arg"))
	}
	var v any
	if err := json.Unmarshal(arg, &v); err != nil {
		return failing(fmt.Errorf("const: %w", err))
	}
	return func([]any) (any, error) { return v, nil }
}

func numeric(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	case nil:
		return 0, false
	}
	return 0, false
}

// opSum adds its numeric inputs plus an optional numeric arg.
func opSum(arg json.RawMessage) OpBody {
	base, err := argNumber(arg, 0)
	if err != nil {
		return failing(fmt.Errorf("sum: %w", err))
	}
	return func(in []any) (any, error) {
		s := base
		for i, v := range in {
			n, ok := numeric(v)
			if !ok {
				return nil, fmt.Errorf("sum: input %d is %T, not a number", i, v)
			}
			s += n
		}
		return s, nil
	}
}

// opMul multiplies its numeric inputs (and the optional numeric arg).
func opMul(arg json.RawMessage) OpBody {
	base, err := argNumber(arg, 1)
	if err != nil {
		return failing(fmt.Errorf("mul: %w", err))
	}
	return func(in []any) (any, error) {
		p := base
		for i, v := range in {
			n, ok := numeric(v)
			if !ok {
				return nil, fmt.Errorf("mul: input %d is %T, not a number", i, v)
			}
			p *= n
		}
		return p, nil
	}
}

// opConcat joins the inputs' string forms; a string arg is the
// separator.
func opConcat(arg json.RawMessage) OpBody {
	sep := ""
	if len(arg) > 0 {
		if err := json.Unmarshal(arg, &sep); err != nil {
			return failing(fmt.Errorf("concat: %w", err))
		}
	}
	return func(in []any) (any, error) {
		parts := make([]string, len(in))
		for i, v := range in {
			parts[i] = fmt.Sprint(v)
		}
		return strings.Join(parts, sep), nil
	}
}

// opPass forwards its first input unchanged (a rename/fan-out node).
func opPass(json.RawMessage) OpBody {
	return func(in []any) (any, error) {
		if len(in) == 0 {
			return nil, fmt.Errorf("pass: no input")
		}
		return in[0], nil
	}
}

// spinCap bounds synthetic work per task so a hostile client cannot
// pin a tenant's worker indefinitely with one task.
const spinCap = 50_000_000

// opSpin burns arg iterations of integer work — synthetic load for
// benchmarks and for holding a tenant busy in tests. Returns the
// folded value so the loop cannot be optimized away.
func opSpin(arg json.RawMessage) OpBody {
	n, err := argNumber(arg, 1000)
	if err != nil {
		return failing(fmt.Errorf("spin: %w", err))
	}
	iters := int(n)
	if iters < 0 || iters > spinCap {
		return failing(fmt.Errorf("spin: %d out of range [0,%d]", iters, spinCap))
	}
	return func(in []any) (any, error) {
		acc := uint64(len(in) + 1)
		for i := 0; i < iters; i++ {
			acc = acc*6364136223846793005 + 1442695040888963407
		}
		return float64(acc % 1e9), nil
	}
}

// opFail returns an error carrying the (string) argument — the
// client-reachable way to poison a consumer cone.
func opFail(arg json.RawMessage) OpBody {
	msg := "injected failure"
	if len(arg) > 0 {
		if err := json.Unmarshal(arg, &msg); err != nil {
			return failing(fmt.Errorf("fail: bad arg: %w", err))
		}
	}
	return failing(fmt.Errorf("fail: %s", msg))
}

// argNumber decodes an optional numeric argument, defaulting when
// absent.
func argNumber(arg json.RawMessage, def float64) (float64, error) {
	if len(arg) == 0 {
		return def, nil
	}
	var n float64
	if err := json.Unmarshal(arg, &n); err != nil {
		return 0, fmt.Errorf("numeric arg: %w", err)
	}
	return n, nil
}
