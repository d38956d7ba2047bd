// Package lint is the static-analysis engine behind cmd/taskdeplint.
//
// # Why a static pass
//
// The runtime discovers the task dependency graph from each Spec's
// declared In/Out/InOut/InOutSet keys — the declarations ARE the
// program. internal/verify checks them dynamically, but only for
// conflicts that materialize on the executed input and schedule, and
// under frozen-graph replay a wrong declaration is recorded once and
// re-raced forever. This package proves declaration/effect agreement
// at build time instead.
//
// # Rule catalogue
//
//	loop-capture      Spec body captures a variable an enclosing loop
//	                  writes while the body can still run: declared
//	                  outside the loop and written anywhere in it, or
//	                  declared inside and written after the Spec is
//	                  built (the depth-first hand-over may run the body
//	                  at once, before or after that write).
//	use-after-close   Submit/Taskwait/Persistent/Record/Replay after Close
//	                  on the same runtime variable in one function.
//	fulfill-nil-event Fulfill on the Submit result of a non-Detached Spec
//	                  (Submit returns a nil *Event for those).
//	dropped-error     a Do closure discards a call result with _ while
//	                  every return is `return nil`.
//	span-no-end       a BeginSpan result never End()ed on some path.
//	undeclared-write  the body mutates shared captured state covered by no
//	                  Out/InOut/InOutSet key; package-level state of this
//	                  or another package counts without further evidence.
//	undeclared-read   the body reads indexed state a sibling task declares
//	                  it writes, with no connecting key.
//	stale-dep         a declared indexed key matching nothing the body
//	                  touches.
//	unprovided-consume a submitted dataflow Spec Consumes a freshly
//	                  bound slot nothing in the window Provides,
//	                  Updates or Sets: the In dependence has no writer
//	                  and the body reads an empty slot.
//	unused-ignore     a taskdeplint:ignore comment that suppresses nothing.
//
// # The dep-coverage analysis
//
// For every Spec composite literal carrying a Body, Do or DetachedBody
// closure, the analysis computes the closure's effect set: each touch
// of state declared outside the closure, classified read / write /
// passed-mutably-to-a-call, and resolved to a symbolic path plus an
// index tuple. `a[i][j]` becomes (a, [i, j]); the projection call
// `m.Tile(i, k)` becomes (m.Tile, [i, k]); an intraprocedural alias
// map resolves `t := m.Tile(i, j); t[0] = v` back through t. Declared
// keys resolve the same way — `tileKey(i, k)` is (tileKey, [i, k]) —
// so helper-built keys and body accesses meet in one index-tuple
// space, compared by exact match or contiguous prefix/suffix overlap.
//
// # Soundness model
//
// The analysis is deliberately unsound in the quiet direction: every
// rule needs positive evidence before firing, and anything the
// resolver cannot express degrades toward silence.
//
//   - A method call on captured state in statement position, or a call
//     of a captured func value, marks the effect set opaque: the body
//     may touch anything, so stale-dep (which needs a complete set)
//     stands down. Declared keys over opaque bodies are trusted.
//   - undeclared-write on a direct assignment fires only when the
//     target is package-level, overlaps a sibling Spec's concrete key,
//     or overlaps the spec's own In keys (an In that should have been
//     InOut). Potential writes through calls additionally require
//     sibling corroboration.
//   - undeclared-read fires only for index-tuple overlap with a
//     concrete sibling *writer* key, and only for roots whose type can
//     alias shared state.
//   - stale-dep considers only indexed keys (scalar keys are ordering
//     tokens by convention) on non-opaque bodies with at least one
//     indexed access.
//   - If a spec declares concrete keys and none matches any access —
//     the code names keys by a convention the resolver cannot see
//     through — the whole spec stands down rather than spray findings.
//   - Sibling grouping is per function scope, segmented at Taskwait /
//     Close / Persistent barriers in source order.
//
// Known blind spots, accepted by design: interprocedural effects
// (bodies calling free functions mutate only what the arguments
// reveal), renamed index variables across tasks, keys built by
// arithmetic the resolver cannot decompose, and writes through
// aliases established before the enclosing function.
//
// # Suppression
//
// `// taskdeplint:ignore` on a finding's line or the line above
// suppresses every rule; `// taskdeplint:ignore rule-a,rule-b`
// suppresses only the named rules. A directive that suppresses
// nothing is itself reported (unused-ignore).
package lint
