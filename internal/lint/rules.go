package lint

// rules.go implements the taskdep API-misuse rules over
// go/ast + go/types. Type information is best-effort: imports resolve
// through a stub importer (no module loading, no new dependencies),
// which is enough for the rules here — they need object identity and
// scope for identifiers of the linted package, not cross-package
// signatures. The dep-coverage dataflow rules live in depcoverage.go.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// isTaskdepPath reports whether path imports the taskdep module root
// (whose NewRuntime produces a runtime the use-after-close rule tracks).
func isTaskdepPath(path string) bool {
	return path == "taskdep" || path == "taskdep/internal/rt" ||
		strings.HasSuffix(path, "/taskdep")
}

// --- Spec literal helpers ---

// isSpecLit matches composite literals of type Spec / pkg.Spec.
func isSpecLit(lit *ast.CompositeLit) bool {
	switch t := lit.Type.(type) {
	case *ast.Ident:
		return t.Name == "Spec"
	case *ast.SelectorExpr:
		return t.Sel.Name == "Spec"
	}
	return false
}

// specFields returns the keyed fields of a Spec literal.
func specFields(lit *ast.CompositeLit) map[string]ast.Expr {
	out := map[string]ast.Expr{}
	for _, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				out[id.Name] = kv.Value
			}
		}
	}
	return out
}

// specIsDetached reports whether the literal statically declares
// Detached: true. A non-literal Detached value counts as detached
// (unknown: do not flag).
func specIsDetached(fields map[string]ast.Expr) bool {
	v, ok := fields["Detached"]
	if !ok {
		return false
	}
	if id, ok := v.(*ast.Ident); ok {
		return id.Name != "false"
	}
	return true // dynamic value: assume the author knows
}

// objOf resolves an identifier to its object (use or definition).
func (l *pkgLint) objOf(id *ast.Ident) types.Object {
	if o := l.info.Uses[id]; o != nil {
		return o
	}
	return l.info.Defs[id]
}

// varOf resolves an identifier to a *types.Var, nil otherwise.
func (l *pkgLint) varOf(id *ast.Ident) *types.Var {
	v, _ := l.objOf(id).(*types.Var)
	return v
}

// --- rule: loop-capture ---

// checkLoopCapture flags Body/Do/DetachedBody closures that capture a
// variable an enclosing loop writes while the body can still run. Go
// 1.22 made loop-declared variables per-iteration, so two shapes are
// left. A variable declared OUTSIDE the loop and written anywhere in
// it: the body runs concurrently with later iterations overwriting it.
// A variable declared INSIDE the loop and written after the Spec is
// built: the runtime may run the body at any point after submission
// (the executor's depth-first hand-over often runs it at once on the
// finishing worker), so it observes either value.
func (l *pkgLint) checkLoopCapture(lit *ast.CompositeLit, stack []ast.Node) {
	if !l.on(RuleLoopCapture) {
		return
	}
	fields := specFields(lit)
	for _, name := range []string{"Body", "Do", "DetachedBody"} {
		fn, ok := fields[name].(*ast.FuncLit)
		if !ok {
			continue
		}
		for _, obj := range l.capturedVars(fn) {
			for i := len(stack) - 1; i >= 0; i-- {
				loop := stack[i]
				switch loop.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
				default:
					continue
				}
				local := obj.Pos() >= loop.Pos() && obj.Pos() < loop.End()
				after := token.NoPos
				if local {
					after = lit.End()
				}
				if !l.mutatedIn(loop, obj, after, fn) {
					continue
				}
				if local {
					l.report(lit.Pos(), RuleLoopCapture,
						"task %s captures loop-local %q, which the iteration reassigns after the Spec is built; the body may run before or after that write and observe either value — finish the writes first, or copy the value",
						name, obj.Name())
				} else {
					l.report(lit.Pos(), RuleLoopCapture,
						"task %s captures %q, which the enclosing loop mutates; the body runs concurrently with later iterations (copy it into a loop-local first)",
						name, obj.Name())
				}
				break
			}
		}
	}
}

// capturedVars lists the free variables of fn (identifiers resolving to
// variables declared outside the closure), deduplicated, in first-use
// order.
func (l *pkgLint) capturedVars(fn *ast.FuncLit) []*types.Var {
	seen := map[*types.Var]bool{}
	var out []*types.Var
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v := l.varOf(id)
		if v == nil || v.IsField() || seen[v] {
			return true
		}
		if v.Pos() >= fn.Pos() && v.Pos() < fn.End() {
			return true // declared within the closure (params, locals)
		}
		seen[v] = true
		out = append(out, v)
		return true
	})
	return out
}

// mutatedIn reports whether obj is assigned in the loop node at a
// source position after `after` (token.NoPos: anywhere), excluding the
// submitted closure itself. Loop-header post statements (i++) sit
// before the body in source order, so a per-iteration index written
// only there never counts as written after the Spec.
func (l *pkgLint) mutatedIn(loop ast.Node, obj *types.Var, after token.Pos, exclude *ast.FuncLit) bool {
	found := false
	hit := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok && l.varOf(id) == obj && id.Pos() > after {
			found = true
		}
	}
	ast.Inspect(loop, func(n ast.Node) bool {
		if found || n == exclude {
			return false
		}
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				return true // := declares new objects, never mutates obj
			}
			for _, lhs := range s.Lhs {
				hit(lhs)
			}
		case *ast.IncDecStmt:
			hit(s.X)
		case *ast.RangeStmt:
			if s.Tok == token.ASSIGN {
				hit(s.Key)
				hit(s.Value)
			}
		}
		return !found
	})
	return found
}

// --- rule: dropped-error ---

// checkDroppedError flags a Do closure that discards a call result via
// a trailing blank assignment while every return statement (outside
// nested closures) is literally `return nil`: the error-returning form
// was chosen, but no failure can ever reach the runtime. The fix is to
// return the discarded error (so a failure poisons the task's cone) —
// or to use Body, the zero-overhead form for work that cannot fail.
func (l *pkgLint) checkDroppedError(lit *ast.CompositeLit) {
	if !l.on(RuleDroppedError) {
		return
	}
	fn, ok := specFields(lit)["Do"].(*ast.FuncLit)
	if !ok {
		return
	}
	alwaysNil := true
	discards := 0
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false // nested closures have their own error discipline
		case *ast.ReturnStmt:
			if len(s.Results) == 0 {
				// Naked return of a named result: value unknown, assume
				// the author threads errors through it.
				alwaysNil = false
				return true
			}
			for _, r := range s.Results {
				if id, isIdent := r.(*ast.Ident); !isIdent || id.Name != "nil" {
					alwaysNil = false
				}
			}
		case *ast.AssignStmt:
			// `_ = f()` and `v, _ := f()` both throw away f's trailing
			// result — for a multi-valued call, conventionally the error.
			if len(s.Rhs) != 1 {
				return true
			}
			if _, isCall := s.Rhs[0].(*ast.CallExpr); !isCall {
				return true
			}
			if id, isIdent := s.Lhs[len(s.Lhs)-1].(*ast.Ident); isIdent && id.Name == "_" {
				discards++
			}
		}
		return true
	})
	if alwaysNil && discards > 0 {
		l.report(lit.Pos(), RuleDroppedError,
			"Do body blank-discards a call result but every return is nil — the task can never fail; return the error so the failure poisons the cone, or use Body for work that cannot fail")
	}
}

// rootIdent unwraps index/selector/star/paren chains to the base
// identifier of an assignable expression.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// --- sequential rules: use-after-close, fulfill-nil-event ---

// seqLint walks one function body in source order, tracking runtime
// variables (created by taskdep.NewRuntime / rt.NewRuntime), their Close
// calls, and variables holding the nil Event a non-detached Submit
// returns. Nested closures get their own close/event context (they
// execute at a different time) but share the runtime set.
func (l *pkgLint) seqLint(body *ast.BlockStmt, runtimes map[types.Object]bool) {
	if !l.on(RuleUseAfterClose) && !l.on(RuleFulfillNil) {
		return
	}
	closed := map[types.Object]token.Pos{}
	nilEv := map[types.Object]token.Pos{}

	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.DeferStmt:
			// defer rt.Close() is the idiom, and deferred calls run at
			// return: exclude the whole subtree from ordering checks.
			return false
		case *ast.FuncLit:
			l.seqLint(s.Body, runtimes)
			return false
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := l.objOf(id)
				if obj == nil {
					continue
				}
				// Any reassignment revives the variable.
				delete(closed, obj)
				delete(nilEv, obj)
				// One call assigning several variables (r, err :=
				// NewRuntime(...)) gives its first result to the first.
				rhs := s.Rhs[0]
				if len(s.Rhs) == len(s.Lhs) {
					rhs = s.Rhs[i]
				} else if i > 0 {
					continue
				}
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				if l.isRuntimeNew(call) {
					runtimes[obj] = true
				}
				if l.isNonDetachedSubmit(call) {
					nilEv[obj] = s.Pos()
				}
			}
		case *ast.CallExpr:
			sel, ok := s.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// Chained rt.Submit(Spec{...}).Fulfill().
			if sel.Sel.Name == "Fulfill" {
				if inner, ok := sel.X.(*ast.CallExpr); ok && l.isNonDetachedSubmit(inner) {
					l.report(s.Pos(), RuleFulfillNil,
						"Fulfill on the result of a non-detached Submit — Submit returns a nil *Event unless the Spec sets Detached: true")
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok {
					if obj := l.objOf(id); obj != nil {
						if _, bad := nilEv[obj]; bad {
							l.report(s.Pos(), RuleFulfillNil,
								"Fulfill on %q, which holds the nil *Event of a non-detached Submit (set Detached: true in the Spec)", id.Name)
						}
					}
				}
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			obj := l.objOf(id)
			if obj == nil || !runtimes[obj] {
				return true
			}
			switch sel.Sel.Name {
			case "Close":
				if _, already := closed[obj]; !already {
					closed[obj] = s.Pos()
				}
			case "Submit", "SubmitBatch", "TaskLoop", "Taskwait", "Abort",
				"Persistent", "Record", "Replay":
				if pos, bad := closed[obj]; bad {
					l.report(s.Pos(), RuleUseAfterClose,
						"%s on %q after its Close at %s — the workers are gone; move the Close after the last use (or defer it)",
						sel.Sel.Name, id.Name, l.fset.Position(pos))
				}
			}
		}
		return true
	})
}

// --- rule: span-no-end ---

// spanState tracks one variable assigned from a BeginSpan call.
type spanState struct {
	begin    token.Pos // position of the Begin assignment
	ended    bool      // an x.End() call was seen after the Begin
	deferred bool      // a defer x.End() covers every exit
	leakyRet token.Pos // first return between Begin and End, if any
	hasLeak  bool
}

// checkSpanNoEnd walks one function body in source order and flags
// variables holding a BeginSpan result that are never End()ed, or that
// leak past a return statement with no deferred End. The zero-Span
// idiom (`var sp obs.Span; if sampled { sp = BeginSpan(...) };
// sp.End()`) is fine: End on the zero Span is a no-op, and the
// unconditional End closes the sampled case. Nested closures get their
// own context — they execute at a different time.
func (l *pkgLint) checkSpanNoEnd(body *ast.BlockStmt) {
	if !l.on(RuleSpanNoEnd) {
		return
	}
	spans := map[types.Object]*spanState{}

	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.DeferStmt:
			// defer sp.End() closes the span on every exit path.
			if sel, ok := s.Call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "End" {
				if id, ok := sel.X.(*ast.Ident); ok {
					if st := spans[l.objOf(id)]; st != nil {
						st.deferred = true
					}
				}
			}
			return false
		case *ast.FuncLit:
			l.checkSpanNoEnd(s.Body)
			return false
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := l.objOf(id)
				if obj == nil {
					continue
				}
				rhs := ast.Expr(nil)
				if len(s.Rhs) == len(s.Lhs) {
					rhs = s.Rhs[i]
				} else if len(s.Rhs) == 1 {
					rhs = s.Rhs[0]
				}
				call, isBegin := rhs.(*ast.CallExpr)
				isBegin = isBegin && isBeginSpanCall(call)
				if st := spans[obj]; st != nil && !st.ended && !st.deferred {
					// Overwritten while open: the old span is lost.
					l.report(st.begin, RuleSpanNoEnd,
						"span %q is reassigned before End() — the open span never reaches the trace", id.Name)
					delete(spans, obj)
				}
				if isBegin {
					// A fresh Begin (or a re-Begin of a closed variable)
					// starts a new tracking window.
					spans[obj] = &spanState{begin: s.Pos()}
				}
			}
		case *ast.ReturnStmt:
			for _, st := range spans {
				if !st.ended && !st.deferred && !st.hasLeak {
					st.hasLeak = true
					st.leakyRet = s.Pos()
				}
			}
		case *ast.CallExpr:
			if sel, ok := s.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "End" {
				if id, ok := sel.X.(*ast.Ident); ok {
					if st := spans[l.objOf(id)]; st != nil {
						st.ended = true
					}
				}
			}
		}
		return true
	})

	for _, st := range spans {
		switch {
		case st.deferred:
		case !st.ended:
			l.report(st.begin, RuleSpanNoEnd,
				"BeginSpan result is never End()ed — the span never reaches the trace export (call End, or defer it)")
		case st.hasLeak:
			l.report(st.leakyRet, RuleSpanNoEnd,
				"return between BeginSpan and End() — the span leaks on this path (defer sp.End() instead)")
		}
	}
}

// isBeginSpanCall matches <expr>.BeginSpan(...) on any receiver.
func isBeginSpanCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "BeginSpan"
}

// isRuntimeNew matches taskdep.NewRuntime(...) / rt.NewRuntime(...)
// where the qualifier is an import of the taskdep module (path-checked
// when type info resolves it).
func (l *pkgLint) isRuntimeNew(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "NewRuntime" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := l.objOf(id).(*types.PkgName)
	if !ok {
		return false
	}
	return isTaskdepPath(pn.Imported().Path())
}

// isNonDetachedSubmit matches <recv>.Submit(Spec{...}) whose literal is
// statically not detached.
func (l *pkgLint) isNonDetachedSubmit(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Submit" || len(call.Args) != 1 {
		return false
	}
	lit, ok := call.Args[0].(*ast.CompositeLit)
	if !ok || !isSpecLit(lit) {
		return false
	}
	return !specIsDetached(specFields(lit))
}
