// Package verify is the TDG verifier: a static-analysis layer that
// audits a discovered task dependency graph for the failure modes the
// runtime itself cannot see. The paper's premise is that the runtime
// trusts user-declared in/out/inout/inoutset sets — an under-declared
// dependence is a silent data race no discovery optimization can fix,
// and a cycle or a diverging persistent sub-graph (PTSG) deadlocks or
// replays stale structure. The verifier checks:
//
//   - missing orderings: every pair of tasks with conflicting accesses
//     on the same key (at least one writer) must be connected by a
//     happens-before path over recorded precedence edges, including
//     paths through optimization-(c) redirect nodes;
//   - cycles: reported before execution hangs on them;
//   - dangling redirect nodes: optimization-(c) nodes with no group
//     members feeding them;
//   - duplicate edges that survived optimization (b);
//   - PTSG replay divergence: a structural signature (task count, dep
//     lists, edge multiset) compared across the iterations of a
//     Persistent region, catching Adaptive `changed` callbacks that lie
//     (see Recorder).
//
// The real executor hooks it in through rt.Config.Verify; the audit can
// also run standalone over any task set (tests, offline dumps).
//
// # Layout
//
// verify.go implements the structural audit (Audit) with its
// reachability engine and cost bounds; recorder.go is the runtime-side
// Recorder that logs the producer's submissions in order and checks
// persistent replays; report.go defines Report, Race and
// Divergence plus the DOT race-witness export.
package verify
