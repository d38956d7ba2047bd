// Package rt is the real (goroutine-based) executor of the task runtime —
// the reproduction's equivalent of MPC-OMP's tasking layer. A producer
// goroutine discovers the task dependency graph concurrently with its
// execution by a pool of workers, mirroring the paper's model: the
// discovery runs "on a single producer thread concurrently of its
// execution by any threads (including the producer)".
//
// Features reproduced from the paper:
//   - dependent tasks over data keys (internal/graph) with optimizations
//     (b), (c) and persistence (p);
//   - per-worker LIFO deques and depth-first successor wake-up
//     (internal/sched);
//   - ready-task and total-task throttling: past the thresholds the
//     producer stops producing and starts consuming (§5);
//   - detached tasks completed by an external event (an MPI request's
//     OnComplete callback fulfils the task's Event);
//   - profiling of the work/overhead/idle breakdown and discovery window.
//
// # One producer
//
// Submit, SubmitBatch, TaskLoop, Taskwait, the persistent regions and
// Close are the producer's: one goroutine at a time calls them. The role
// may move between goroutines when the hand-off is synchronized, as
// internal/serve does under each tenant's producer mutex. Its staging
// buffers, its scheduler slot and its counter shard are owned, not
// shared. Event.Fulfill, Abort, Introspect and the graph's Stats, Live
// and ReadyCount are safe from any goroutine.
//
// # Submission paths
//
// Runtime.Submit discovers one task per call; Runtime.SubmitBatch hands
// a slice of Specs to the graph in one call, amortizing throttling,
// dependence staging, allocator traffic and ready-queue publication
// (graph.SubmitBatch + sched.Scheduler.PushBatch) across the batch.
// Runtime.TaskLoop — the equivalent of `taskloop num_tasks(t)` with a
// depend clause — submits its chunks through the batch path. Inside a
// replayed iteration of a persistent region both degenerate to the
// recorded task's refresh on the compiled schedule (Runtime.Persistent).
//
// Completion is symmetric: workers return released successors through a
// per-worker reused buffer (graph.CompleteInto) and publish the whole
// release set with one lock-free deque publication and at most one
// remote wake, keeping the completion path allocation-free.
//
// # Idleness
//
// Nothing in the executor waits on a timer. Idle workers, a producer
// blocked in Taskwait, and a throttled producer all follow the
// scheduler's parking protocol (see sched.Scheduler):
// announce via PrePark, re-check the wake condition — queued work, the
// waited-on counter transition, the wake counter — then park on a
// per-slot channel. Completions wake exactly what the transition needs:
// PushBatch wakes at most one worker for a published release set, and
// complete calls sched.Scheduler.WakeProducer only on transitions the
// producer actually waits on (a release-less completion, the graph
// draining, or any completion while a throttle is configured).
//
// # Hot-path layering
//
// Submit/SubmitBatch -> graph discovery (one key table, one lock) -> ready
// tasks -> sched deques (Chase–Lev work stealing) -> worker execute ->
// graph.CompleteInto -> released successors pushed depth-first.
// docs/architecture.md maps this pipeline to the paper's optimizations
// in detail.
package rt
