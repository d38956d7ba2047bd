// Package graph implements the task dependency graph (TDG) at the heart
// of the reproduction: OpenMP-style dependence discovery over data keys,
// precedence-edge management with the paper's edge-reduction
// optimizations, and the persistent task sub-graph (PTSG) extension.
//
// The package is executor-agnostic: a Graph turns a stream of task
// submissions into ready-task notifications. Two executors drive it in
// this repository — the real goroutine runtime (internal/rt) and the
// discrete-event machine simulator (internal/sim).
//
// # Discovery engine
//
// Discovery is the paper's limiting factor, so the hot path is built
// for throughput:
//
//   - The dependence key table is one open-addressing table under one
//     lock, the discovery lock (Graph.mu). Keys that differ only in
//     their two low bits share one cache line of slots (keytable.go). A submission — one Submit, or a whole
//     SubmitBatch — takes it once and holds it until its last dependence
//     is resolved: one Lock/Unlock per submission, not per dependence.
//     The lock orders discovery against what other goroutines read
//     (Stats), not producers against each other: there is one producer,
//     the paper's model (see the concurrency contract below).
//   - Task descriptors are carved from pooled allocation chunks,
//     successor lists start on inline storage and continue in chained
//     fixed-size blocks that are never regrown or copied (task.go), and
//     keyStates are recycled (alloc.go).
//   - A graph that has drained can end its window (EndWindow): its key
//     states read as empty from then on, so no constraint is attempted
//     against a finished task, and its task chunks are reused. The
//     runtime ends windows; callers that keep *Task across them do not.
//   - SubmitBatch (batch.go) is the one way into discovery: it amortizes
//     ID reservation, counter updates, allocator traffic, the discovery
//     lock and ready-queue publication over a slice of TaskDescs, and
//     Submit is a batch of one through the same code. The lock covers
//     the dependence work only: ready tasks are collected while it is
//     held and published once it is dropped, so executors receive a
//     batch's ready tasks in one OnReadyBatch call and no callback ever
//     runs under the lock.
//
// # Structure of a submission
//
// A TaskDesc declares its dependences as four key lists, In, Out, InOut
// and InOutSet — the shape of the runtime's Spec, whose lists it takes as
// they are, without copying a key; Submit groups a []Dep into that shape
// in a producer-owned buffer. Submit/SubmitBatch allocate the Tasks, take
// the discovery lock (discover in batch.go), then walk the lists in that
// order: In accesses join the reader frontier (read), Out/InOut accesses
// succeed the out-set and all readers (write), InOutSet accesses open or
// join a concurrent-writer group (joinSet). Each materializes precedence
// constraints through addEdge. A predecessor that already finished is
// pruned on one atomic load of its state (so a repeated constraint on a
// finished predecessor counts as pruned, not as a duplicate); otherwise
// addEdge applies duplicate elimination (OptDedup, optimization b),
// writes the successor entry and counts it with one CAS on the
// predecessor's successor word. Tasks have no lock: a finish stores its
// terminal state and then seals that word, so an edge whose CAS fails
// was never walked and is pruned. Optimization (c) (OptInOutSetNode) inserts redirect
// nodes so an inoutset group of m writers and n consumers costs m+n edges
// instead of m*n, and — inside one batch — so a run of n consecutive tasks
// that read the same m keys costs 2(m+n) edges and m key lookups instead
// of 2mn and mn (read runs, batch.go): a task whose In list is the run's
// own slice is admitted on that identity in O(1), any other after a key
// compare. While a task is under discovery its release counter starts
// at 0 and only finishing predecessors decrement it, so it cannot reach 0;
// its live edges are counted in a producer-private field, which
// releaseSentinel adds in a single atomic add — one counter update per
// task, not per edge, and none for a task without live edges — and a
// task with no outstanding predecessors becomes Ready; the submission
// hands its ready tasks to the executor after it drops the lock.
//
// # Persistence
//
// BeginRecording/EndRecording capture a task sub-graph (persist.go).
// Compile lowers the recording into a flat schedule — CSR successors
// cut down to the edges that order something (reduce.go), one dense
// predecessor-count vector — whose iterations either re-release the
// captured closures or let the producer resubmit, per-task cost a
// firstprivate copy and one atomic decrement (compile.go): what the
// runtime replays. The graph's own BeginReplay, Replay and
// FinishReplay re-instantiate the recording through the tasks' own
// counters instead, for the simulator and the benchmarks. Either way a
// replay reuses the recorded Task objects, so an iteration performs no
// discovery and no allocation.
//
// # Concurrency contract
//
// One producer at a time, as in the paper: Submit, SubmitBatch, Flush,
// EndWindow, ResetDiscoveryFrontier and persistence are called by one
// goroutine, or by several that hand the role over with synchronization
// (a mutex held across each turn, as internal/serve does per tenant).
// What only the producer touches — the task chunks, the ID counter — is
// plain state. Complete is safe for concurrent use from any number of
// workers, and Stats, Live and ReadyCount from any goroutine; see Stats
// for the counter consistency model. Discovery
// that scales past one producer would hand dependence resolution to
// other threads (delegated resolution), a different design, not more
// goroutines on this one.
package graph
