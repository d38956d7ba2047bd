package lint

// depcoverage.go cross-checks each Spec literal's declared dependence
// keys against the computed effect set of its body closure. Three
// findings come out of the comparison:
//
//   undeclared-write  the body writes shared state covered by no
//                     declared writer key — a latent race the dynamic
//                     verifier only sees if the conflicting schedule
//                     happens to execute;
//   undeclared-read   the body reads state that a sibling task in the
//                     same submission scope declares it writes, with no
//                     connecting key on the reader;
//   stale-dep         a declared indexed key whose state the body
//                     provably never touches — over-synchronization
//                     that serializes the TDG.
//
// Soundness posture: every rule requires positive evidence before
// firing. A write fires only when the state is package-level, covered
// by a sibling's concrete key, or matched by the spec's own reader
// keys (declared In where InOut was meant). Reads fire only against
// concrete sibling writer keys. Stale keys fire only for non-opaque
// bodies whose effect set resolved completely, and scalar keys are
// never stale (they are ordering tokens). When a spec's declared keys
// follow a naming convention the resolver cannot connect to the body's
// paths at all, the whole spec stands down rather than spray findings.

import (
	"go/ast"
	"go/token"
)

// specSite is one Spec literal found in a scope, with its resolved
// keys, effect set, and position.
type specSite struct {
	lit   *ast.CompositeLit
	keys  specKeys
	eff   *effects
	pos   token.Pos
	label string
}

// depCoverageScope analyzes one function scope: builds the alias map,
// collects every Spec literal submitted in it, segments siblings at
// Taskwait/Close barriers, and runs the cross-checks. It recurses into
// nested function literals as fresh scopes.
func (l *pkgLint) depCoverageScope(parent *scopeCtx, body *ast.BlockStmt) {
	if body == nil {
		return
	}
	sc := newScopeCtx(l, parent, body)

	var sites []specSite
	var barriers []token.Pos

	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			// Every function literal — a task body submitting subtasks
			// or an ordinary closure — forms its own submission scope.
			// (A task body's own effects are collected from its Spec
			// literal, which this inspection visits before descending
			// into the literal's children.)
			l.depCoverageScope(sc, x.Body)
			return false
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Taskwait", "Close", "Persistent":
					barriers = append(barriers, x.Pos())
				}
			}
		case *ast.CompositeLit:
			if !isSpecLit(x) {
				return true
			}
			site, ok := l.specSiteOf(sc, x)
			if ok {
				sites = append(sites, site)
			}
			return true
		}
		return true
	})

	if len(sites) == 0 {
		return
	}

	// Segment sibling groups at barrier positions: specs submitted
	// after a Taskwait cannot race with specs before it.
	groups := segment(sites, barriers)
	for _, g := range groups {
		l.checkGroup(g)
	}
}

// specSiteOf resolves one Spec literal: its keys and the union effect
// set of whatever body fields it carries. Returns ok=false when the
// spec has no body to analyze.
func (l *pkgLint) specSiteOf(sc *scopeCtx, lit *ast.CompositeLit) (specSite, bool) {
	site := specSite{lit: lit, pos: lit.Pos()}
	var bodies []*ast.FuncLit
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		name, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		switch name.Name {
		case "Body", "Do", "DetachedBody":
			if fl, ok := kv.Value.(*ast.FuncLit); ok {
				bodies = append(bodies, fl)
			}
		case "Label":
			if bl, ok := kv.Value.(*ast.BasicLit); ok {
				site.label = bl.Value
			}
		}
	}
	if len(bodies) == 0 {
		return site, false
	}
	site.keys = sc.resolveSpecKeys(lit)
	eff := &effects{}
	for _, fl := range bodies {
		e := l.collectEffects(sc, fl)
		eff.list = append(eff.list, e.list...)
		eff.opaque = eff.opaque || e.opaque
	}
	site.eff = eff
	return site, true
}

// segment splits sites into sibling groups separated by barrier
// positions (Taskwait/Close/Persistent calls in source order).
func segment(sites []specSite, barriers []token.Pos) [][]specSite {
	if len(barriers) == 0 {
		return [][]specSite{sites}
	}
	var groups [][]specSite
	var cur []specSite
	bi := 0
	for _, s := range sites {
		for bi < len(barriers) && barriers[bi] < s.pos {
			if len(cur) > 0 {
				groups = append(groups, cur)
				cur = nil
			}
			bi++
		}
		cur = append(cur, s)
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	return groups
}

// checkGroup runs the three cross-checks over one sibling group.
func (l *pkgLint) checkGroup(group []specSite) {
	for i := range group {
		site := &group[i]
		if site.eff == nil {
			continue
		}
		own := &site.keys
		ownAll := own.all()

		// Convention guard: if the spec declares concrete keys and not
		// one of them lines up with any access in the body, the code
		// uses a key-naming convention the resolver cannot see through
		// (renamed loop variables, hashed composites). Cross-checking
		// would only produce noise — stand down for this spec. Wild
		// keys prove nothing, so only concrete keys vote.
		conv := false
		if own.concrete() && len(site.eff.list) > 0 {
			conv = true
			for _, a := range site.eff.list {
				for _, k := range ownAll {
					if !k.wild && k.covers(a) {
						conv = false
						break
					}
				}
				if !conv {
					break
				}
			}
		}
		l.checkUndeclaredWrite(site, group, i, conv)
		if conv {
			// Key naming and body paths do not meet in symbol space:
			// only the package-level-write check above is trustworthy.
			continue
		}
		l.checkUndeclaredRead(site, group, i)
		l.checkStaleDep(site)
	}
}

// siblingEvidence reports whether any other spec in the group declares
// a concrete key whose tuple overlaps the access. kinds selects which
// key sets count (readers, writers, or both).
func siblingEvidence(group []specSite, self int, a access, writersOnly bool) bool {
	for j := range group {
		if j == self {
			continue
		}
		sk := &group[j].keys
		if concreteOverlap(sk.writers, a) {
			return true
		}
		if !writersOnly && concreteOverlap(sk.readers, a) {
			return true
		}
	}
	return false
}

func (l *pkgLint) checkUndeclaredWrite(site *specSite, group []specSite, self int, convOnly bool) {
	if !l.on(RuleUndeclaredWrite) {
		return
	}
	own := &site.keys
	if own.wild {
		return
	}
	reported := map[string]bool{}
	for _, a := range site.eff.list {
		if a.kind == accRead {
			continue
		}
		if convOnly && !(a.kind == accWrite && a.pkgLevel) {
			// Under the convention guard only a direct write to
			// package-level state is evidence enough.
			continue
		}
		if anyCovers(own.writers, a) {
			continue
		}
		sig := a.path + "\x00" + joinIdx(a.idx)
		if reported[sig] {
			continue
		}
		fire := false
		var why string
		switch a.kind {
		case accWrite:
			switch {
			case a.pkgLevel:
				fire = true
				why = "package-level state"
			case siblingEvidence(group, self, a, false):
				fire = true
				why = "state another task in this scope declares a dependence on"
			case len(a.idx) > 0 && anyCovers(own.readers, a):
				// Indexed state declared In but written: the In was
				// meant to be InOut. (Scalar writes ordered by a
				// scalar In token are the accumulator idiom — quiet.)
				fire = true
				why = "state declared only as In (read) by this task"
			}
		case accMutCall:
			// A call may only read its argument, so any own key —
			// reader or writer — counts as coverage (In + kernel call
			// is the dominant read-only pattern). An argument covered
			// by NO own key needs corroboration before we call it a
			// race: a sibling's concrete key over the same tuple, or
			// indexed package-level state.
			if anyCovers(own.readers, a) {
				break
			}
			if siblingEvidence(group, self, a, false) {
				fire = true
				why = "state another task in this scope declares a dependence on"
			} else if a.pkgLevel && len(a.idx) > 0 {
				fire = true
				why = "indexed package-level state"
			}
		}
		if fire {
			reported[sig] = true
			l.report(site.pos, RuleUndeclaredWrite,
				"task body %s %s with no covering Out/InOut/InOutSet key (%s); the dynamic verifier only catches this if the racing schedule executes",
				a.kind, a.render(), why)
		}
	}
}

func (l *pkgLint) checkUndeclaredRead(site *specSite, group []specSite, self int) {
	if !l.on(RuleUndeclaredRead) {
		return
	}
	own := &site.keys
	if own.wild {
		return
	}
	ownAll := own.all()
	reported := map[string]bool{}
	for _, a := range site.eff.list {
		if a.kind != accRead || !a.mutRoot || len(a.idx) == 0 {
			continue
		}
		if anyCovers(ownAll, a) {
			continue
		}
		if !siblingEvidence(group, self, a, true) {
			continue
		}
		sig := a.path + "\x00" + joinIdx(a.idx)
		if reported[sig] {
			continue
		}
		reported[sig] = true
		l.report(site.pos, RuleUndeclaredRead,
			"task body reads %s, which another task in this scope declares it writes, but no In/InOut key connects them — the read may observe a torn or stale value",
			a.render())
	}
}

func (l *pkgLint) checkStaleDep(site *specSite) {
	if !l.on(RuleStaleDep) {
		return
	}
	eff := site.eff
	if eff.opaque || len(eff.list) == 0 {
		return
	}
	if site.keys.wild {
		// Unresolvable key fields mean the declaration set (and its
		// naming convention) is unknown — no stale verdicts.
		return
	}
	// Require at least one indexed access: a body touching only
	// scalars gives no signal about indexed keys.
	hasIndexed := false
	for _, a := range eff.list {
		if len(a.idx) > 0 {
			hasIndexed = true
			break
		}
	}
	if !hasIndexed {
		return
	}
	for _, k := range site.keys.all() {
		if k.wild || len(k.idx) == 0 {
			continue // scalar keys are ordering tokens, never stale
		}
		touched := false
		for _, a := range eff.list {
			if k.covers(a) {
				touched = true
				break
			}
		}
		if !touched {
			l.report(site.pos, RuleStaleDep,
				"declared dependence key %s matches no state the task body touches — a stale dep serializes the TDG and inflates discovery cost",
				k.render())
		}
	}
}

// ---- rendering helpers ----

func joinIdx(idx []string) string {
	s := ""
	for i, e := range idx {
		if i > 0 {
			s += ", "
		}
		s += e
	}
	return s
}

func (a access) render() string {
	if len(a.idx) == 0 {
		return "`" + a.path + "`"
	}
	return "`" + a.path + "[" + joinIdx(a.idx) + "]`"
}

func (k keySym) render() string {
	if len(k.idx) == 0 {
		return "`" + k.expr + "`"
	}
	return "`" + k.expr + "(" + joinIdx(k.idx) + ")`"
}
