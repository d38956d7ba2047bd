package lint

// effects.go computes the effect set of a task-body closure: which
// captured (or package-level) state the body reads, writes, or passes
// into calls that may mutate it, each resolved to a symbolic
// (base-path, index-expression-tuple) form so it can be cross-checked
// against the Spec's declared dependence keys.
//
// The model is deliberately intraprocedural and syntactic:
//
//   - an access path is a chain of selectors, index expressions and
//     projection calls rooted at a variable declared outside the
//     closure: `a[i]`, `m.Tile(i, k)`, `s.rbuf`, `pkgVar[j]`;
//   - a simple alias map resolves locals defined by a single `x := expr`
//     back to the expression, so `t := m.Tile(i, j); t[0] = v` is a
//     write to (m.Tile, [i j 0]);
//   - a method call on captured state whose result is discarded is an
//     opaque mutation — the receiver may change in ways we cannot
//     resolve, so the body's effect set is marked opaque and stale-dep
//     (which needs a complete effect set) stands down;
//   - calling a captured func-typed variable is likewise opaque.
//
// Index expressions are normalized to source strings; two tuples match
// when one is a prefix, suffix or exact copy of the other (see
// keys.go). Anything the resolver cannot express degrades toward
// silence, never toward a false report.

import (
	"go/ast"
	"go/token"
	"go/types"
)

type accessKind uint8

const (
	accRead    accessKind = iota // value read
	accWrite                     // direct assignment target
	accMutCall                   // mutable state passed to a call: read or write unknown
)

func (k accessKind) String() string {
	switch k {
	case accWrite:
		return "writes"
	case accMutCall:
		return "passes to a call (potential write)"
	}
	return "reads"
}

// access is one resolved touch of shared state.
type access struct {
	kind     accessKind
	path     string   // rendered base path, e.g. "m.Tile", "table"
	idx      []string // normalized index/argument expressions along the path
	at       token.Pos
	pkgLevel bool // rooted at a package-level variable, of this package or another
	mutRoot  bool // the root variable's type can alias shared state
}

// effects is the computed effect set of one closure.
type effects struct {
	list   []access
	opaque bool // an unresolvable mutation of captured state exists
}

// pathInfo is the symbolic resolution of an access expression.
type pathInfo struct {
	ok       bool
	root     *types.Var
	path     string
	idx      []string
	pkgQual  bool // rooted at an imported package's qualifier
	viaAlias bool
}

// scopeCtx carries per-function-scope resolution state: the alias map
// and the set of locals whose aliases are untrustworthy (reassigned, or
// defined from multi-value expressions).
type scopeCtx struct {
	l        *pkgLint
	parent   *scopeCtx
	alias    map[*types.Var]ast.Expr
	poisoned map[*types.Var]bool
	// fieldMutated marks variables whose struct fields are assigned
	// after initialization (deps.Out = ... on a Spec-holding var).
	fieldMutated map[types.Object]bool
	// specVars maps a Spec composite literal to the variable it was
	// bound to with :=, if any.
	specVars map[*ast.CompositeLit]types.Object
}

// newScopeCtx scans one function body (excluding nested function
// literals) and records single-definition aliases plus field-mutation
// poisoning.
func newScopeCtx(l *pkgLint, parent *scopeCtx, body *ast.BlockStmt) *scopeCtx {
	sc := &scopeCtx{
		l:            l,
		parent:       parent,
		alias:        map[*types.Var]ast.Expr{},
		poisoned:     map[*types.Var]bool{},
		fieldMutated: map[types.Object]bool{},
		specVars:     map[*ast.CompositeLit]types.Object{},
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false // nested scopes build their own context
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE && len(s.Lhs) == len(s.Rhs) {
				for i, lhs := range s.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					v, _ := l.objOf(id).(*types.Var)
					if v == nil {
						continue
					}
					if _, dup := sc.alias[v]; dup || sc.poisoned[v] {
						sc.poisoned[v] = true
						continue
					}
					sc.alias[v] = s.Rhs[i]
					if lit, ok := s.Rhs[i].(*ast.CompositeLit); ok && isSpecLit(lit) {
						sc.specVars[lit] = v
					}
				}
			} else {
				// Reassignment (or multi-value define) poisons the
				// targets; a field assignment poisons the holder.
				for _, lhs := range s.Lhs {
					switch t := lhs.(type) {
					case *ast.Ident:
						if v, _ := l.objOf(t).(*types.Var); v != nil {
							sc.poisoned[v] = true
						}
					case *ast.SelectorExpr:
						if id, ok := t.X.(*ast.Ident); ok {
							if o := l.objOf(id); o != nil {
								sc.fieldMutated[o] = true
							}
						}
					}
				}
			}
		}
		return true
	})
	return sc
}

// aliasOf resolves v through this and enclosing scopes.
func (sc *scopeCtx) aliasOf(v *types.Var) (ast.Expr, bool) {
	for s := sc; s != nil; s = s.parent {
		if s.poisoned[v] {
			return nil, false
		}
		if e, ok := s.alias[v]; ok {
			return e, true
		}
	}
	return nil, false
}

// specFieldsMutated reports whether the variable holding lit had
// dependence fields assigned after the literal (deps.Out = ...), which
// makes the literal's declared key set unknowable.
func (sc *scopeCtx) specFieldsMutated(lit *ast.CompositeLit) bool {
	for s := sc; s != nil; s = s.parent {
		if v, ok := s.specVars[lit]; ok {
			for t := sc; t != nil; t = t.parent {
				if t.fieldMutated[v] {
					return true
				}
			}
		}
	}
	return false
}

// resolvePath resolves an access expression to its symbolic form. The
// depth guard bounds alias-chain recursion.
func (sc *scopeCtx) resolvePath(e ast.Expr, depth int) pathInfo {
	if depth > 8 {
		return pathInfo{}
	}
	switch x := e.(type) {
	case *ast.Ident:
		if pn, ok := sc.l.objOf(x).(*types.PkgName); ok && pn != nil {
			return pathInfo{ok: true, path: x.Name, pkgQual: true}
		}
		v := sc.l.varOf(x)
		if v == nil {
			return pathInfo{}
		}
		if ae, ok := sc.aliasOf(v); ok {
			if p := sc.resolvePath(ae, depth+1); p.ok {
				p.viaAlias = true
				return p
			}
		}
		return pathInfo{ok: true, root: v, path: x.Name}
	case *ast.ParenExpr:
		return sc.resolvePath(x.X, depth)
	case *ast.StarExpr:
		return sc.resolvePath(x.X, depth)
	case *ast.TypeAssertExpr:
		return sc.resolvePath(x.X, depth)
	case *ast.SelectorExpr:
		p := sc.resolvePath(x.X, depth)
		if !p.ok {
			return pathInfo{}
		}
		p.path += "." + x.Sel.Name
		return p
	case *ast.IndexExpr:
		p := sc.resolvePath(x.X, depth)
		if !p.ok {
			return pathInfo{}
		}
		p.idx = append(append([]string{}, p.idx...), renderExpr(x.Index))
		return p
	case *ast.IndexListExpr:
		p := sc.resolvePath(x.X, depth)
		if !p.ok {
			return pathInfo{}
		}
		for _, ix := range x.Indices {
			p.idx = append(append([]string{}, p.idx...), renderExpr(ix))
		}
		return p
	case *ast.CallExpr:
		// Projection call: m.Tile(i, k) — a method on captured state
		// whose result names a piece of that state, indexed by the
		// arguments.
		sel, ok := x.Fun.(*ast.SelectorExpr)
		if !ok {
			return pathInfo{}
		}
		p := sc.resolvePath(sel.X, depth)
		if !p.ok || p.pkgQual {
			return pathInfo{}
		}
		p.path += "." + sel.Sel.Name
		idx := append([]string{}, p.idx...)
		for _, a := range x.Args {
			idx = append(idx, renderExpr(a))
		}
		p.idx = idx
		return p
	}
	return pathInfo{}
}

// collectEffects walks one task-body closure and returns its effect
// set relative to the given scope.
func (l *pkgLint) collectEffects(sc *scopeCtx, fn *ast.FuncLit) *effects {
	eff := &effects{}
	ec := &effectCollector{l: l, sc: sc, fn: fn, eff: eff}
	ec.stmtList(fn.Body.List)
	return eff
}

type effectCollector struct {
	l   *pkgLint
	sc  *scopeCtx
	fn  *ast.FuncLit
	eff *effects
}

// tracked reports whether v is shared state from the closure's point of
// view: declared outside the closure (captured) or package-level.
func (ec *effectCollector) tracked(v *types.Var) bool {
	if v == nil || v.IsField() {
		return false
	}
	if v.Pos() >= ec.fn.Pos() && v.Pos() < ec.fn.End() {
		return false // param or local of the closure
	}
	return true
}

func (ec *effectCollector) pkgLevel(v *types.Var) bool {
	return v != nil && ec.l.pkg != nil && v.Parent() == ec.l.pkg.Scope()
}

// mutableType reports whether a value of type t can alias shared
// mutable state (so passing it to a call may write through it). An
// unresolved type (stub-imported package) counts as mutable — the
// conservative direction, since mut-call accesses only ever fire with
// corroborating sibling evidence.
func mutableType(t types.Type) bool {
	if t == nil {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() == types.Invalid || u.Kind() == types.UnsafePointer
	case *types.Slice, *types.Map, *types.Pointer, *types.Chan, *types.Interface:
		return true
	case *types.Signature:
		return false // calling it is handled separately (opaque)
	default:
		return false // arrays, structs, funcs passed by value
	}
}

func (ec *effectCollector) add(kind accessKind, p pathInfo, at token.Pos) {
	if p.pkgQual {
		// State of another package is package-level by definition. The
		// stub importer cannot type it, so it may alias (mutRoot).
		// Reads of it order against nothing the linted code declares.
		if kind != accRead {
			ec.eff.list = append(ec.eff.list, access{
				kind: kind, path: p.path, idx: p.idx, at: at, pkgLevel: true, mutRoot: true,
			})
		}
		return
	}
	if !ec.tracked(p.root) {
		return
	}
	a := access{
		kind:     kind,
		path:     p.path,
		idx:      p.idx,
		at:       at,
		pkgLevel: ec.pkgLevel(p.root),
		mutRoot:  mutableType(p.root.Type()),
	}
	ec.eff.list = append(ec.eff.list, a)
}

func (ec *effectCollector) stmtList(list []ast.Stmt) {
	for _, s := range list {
		ec.stmt(s)
	}
}

func (ec *effectCollector) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case nil:
	case *ast.ExprStmt:
		ec.exprStatement(st.X)
	case *ast.AssignStmt:
		if st.Tok == token.DEFINE {
			for _, r := range st.Rhs {
				ec.expr(r)
			}
			return
		}
		for _, lhs := range st.Lhs {
			ec.writeTarget(lhs)
		}
		for _, r := range st.Rhs {
			ec.expr(r)
		}
	case *ast.IncDecStmt:
		ec.writeTarget(st.X)
	case *ast.GoStmt:
		ec.exprStatement(st.Call)
	case *ast.DeferStmt:
		ec.exprStatement(st.Call)
	case *ast.SendStmt:
		if p := ec.sc.resolvePath(st.Chan, 0); p.ok {
			ec.add(accMutCall, p, st.Chan.Pos())
		} else {
			ec.expr(st.Chan)
		}
		ec.expr(st.Value)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			ec.expr(r)
		}
	case *ast.IfStmt:
		ec.stmt(st.Init)
		ec.expr(st.Cond)
		ec.stmtList(st.Body.List)
		ec.stmt(st.Else)
	case *ast.ForStmt:
		ec.stmt(st.Init)
		ec.expr(st.Cond)
		ec.stmt(st.Post)
		ec.stmtList(st.Body.List)
	case *ast.RangeStmt:
		if st.Tok == token.ASSIGN {
			ec.writeTarget(st.Key)
			ec.writeTarget(st.Value)
		}
		ec.expr(st.X)
		ec.stmtList(st.Body.List)
	case *ast.BlockStmt:
		ec.stmtList(st.List)
	case *ast.SwitchStmt:
		ec.stmt(st.Init)
		ec.expr(st.Tag)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					ec.expr(e)
				}
				ec.stmtList(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		ec.stmt(st.Init)
		ec.stmt(st.Assign)
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				ec.stmtList(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				ec.stmt(cc.Comm)
				ec.stmtList(cc.Body)
			}
		}
	case *ast.LabeledStmt:
		ec.stmt(st.Stmt)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						ec.expr(v)
					}
				}
			}
		}
	}
}

// writeTarget records a direct assignment target.
func (ec *effectCollector) writeTarget(lhs ast.Expr) {
	if lhs == nil {
		return
	}
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	p := ec.sc.resolvePath(lhs, 0)
	if p.ok || p.pkgQual {
		ec.add(accWrite, p, lhs.Pos())
		// The index expressions themselves are reads.
		ec.indexReads(lhs)
		return
	}
	// Unresolvable target: if any captured state is reachable from it,
	// the write is opaque.
	if ec.mentionsTracked(lhs) {
		ec.eff.opaque = true
	}
}

// indexReads walks only the index sub-expressions of a path (a[f(x)]
// reads whatever f(x) reads even when a[...] is a write target).
func (ec *effectCollector) indexReads(e ast.Expr) {
	switch x := e.(type) {
	case *ast.IndexExpr:
		ec.expr(x.Index)
		ec.indexReads(x.X)
	case *ast.SelectorExpr:
		ec.indexReads(x.X)
	case *ast.StarExpr:
		ec.indexReads(x.X)
	case *ast.ParenExpr:
		ec.indexReads(x.X)
	case *ast.CallExpr:
		for _, a := range x.Args {
			ec.expr(a)
		}
		ec.indexReads(x.Fun)
	}
}

// mentionsTracked reports whether any identifier below e resolves to a
// captured or package-level variable.
func (ec *effectCollector) mentionsTracked(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v := ec.l.varOf(id); ec.tracked(v) {
				found = true
			}
		}
		return !found
	})
	return found
}

// exprStatement handles a call in statement position (result
// discarded).
func (ec *effectCollector) exprStatement(e ast.Expr) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		ec.expr(e)
		return
	}
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		// recv.Method(...): if the receiver chain roots at captured
		// state, the method may mutate it in ways we cannot resolve.
		p := ec.sc.resolvePath(fun.X, 0)
		if p.ok && ec.tracked(p.root) && mutableType(p.root.Type()) {
			ec.eff.opaque = true
		} else if !p.ok && ec.mentionsTracked(fun.X) {
			ec.eff.opaque = true
		} else {
			ec.expr(fun.X)
		}
		ec.callArgs(call)
	case *ast.Ident:
		// Plain call: a captured func-typed variable is opaque (the
		// closure may touch anything); a package-level function is
		// handled through its arguments only.
		if v := ec.l.varOf(fun); ec.tracked(v) {
			ec.eff.opaque = true
		}
		ec.callArgs(call)
	default:
		ec.expr(call.Fun)
		ec.callArgs(call)
	}
}

// callArgs classifies each argument of a call: a resolvable path to
// captured mutable state is a potential write (accMutCall); a path to
// value-typed state is a read; anything else recurses.
func (ec *effectCollector) callArgs(call *ast.CallExpr) {
	for _, arg := range call.Args {
		ec.callArg(arg)
	}
}

func (ec *effectCollector) callArg(arg ast.Expr) {
	if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
		if p := ec.sc.resolvePath(u.X, 0); p.ok || p.pkgQual {
			ec.add(accMutCall, p, arg.Pos())
			ec.indexReads(u.X)
			return
		}
		ec.expr(u.X)
		return
	}
	p := ec.sc.resolvePath(arg, 0)
	if p.ok || p.pkgQual {
		t := ec.l.info.TypeOf(arg)
		if mutableType(t) {
			ec.add(accMutCall, p, arg.Pos())
		} else {
			ec.add(accRead, p, arg.Pos())
		}
		ec.indexReads(arg)
		return
	}
	ec.expr(arg)
}

// expr walks an expression in read context.
func (ec *effectCollector) expr(e ast.Expr) {
	if e == nil {
		return
	}
	if p := ec.sc.resolvePath(e, 0); p.ok || p.pkgQual {
		// For a projection call the base read also covers the call.
		ec.add(accRead, p, e.Pos())
		ec.indexReads(e)
		return
	}
	switch x := e.(type) {
	case *ast.CallExpr:
		ec.exprStatement(x) // same classification as statement position
	case *ast.BinaryExpr:
		ec.expr(x.X)
		ec.expr(x.Y)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			ec.callArg(e)
			return
		}
		ec.expr(x.X)
	case *ast.ParenExpr:
		ec.expr(x.X)
	case *ast.StarExpr:
		ec.expr(x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				ec.expr(kv.Value)
				continue
			}
			ec.expr(el)
		}
	case *ast.FuncLit:
		// A nested closure's effects still belong to the task body —
		// whatever it captures may be touched when it runs.
		ec.stmtList(x.Body.List)
	case *ast.KeyValueExpr:
		ec.expr(x.Value)
	case *ast.SliceExpr:
		if p := ec.sc.resolvePath(x.X, 0); p.ok || p.pkgQual {
			ec.add(accRead, p, x.X.Pos())
		} else {
			ec.expr(x.X)
		}
		ec.expr(x.Low)
		ec.expr(x.High)
		ec.expr(x.Max)
	case *ast.TypeAssertExpr:
		ec.expr(x.X)
	case *ast.IndexExpr:
		ec.expr(x.X)
		ec.expr(x.Index)
	case *ast.SelectorExpr:
		ec.expr(x.X)
	}
}
