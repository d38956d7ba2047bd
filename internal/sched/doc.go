// Package sched schedules ready tasks over a fixed pool of workers.
//
// The Scheduler owns three concerns: queueing (who holds which ready
// task), policy (depth-first locality vs breadth-first FIFO — the axis
// the paper's discovery experiments sweep), and idleness (how a worker
// with nothing to run waits without burning CPU or missing a wakeup).
//
// Each worker — and the producer acting as a consumer — owns a
// Chase–Lev work-stealing deque (WSDeque): owner-side LIFO push/pop
// with no locks, one CAS per steal, batch publication via PushTopAll.
// Idle workers park on per-worker capacity-1 channels guarded by a
// seqlock-style wake counter; publications wake at most one parked
// slot and ramp-up cascades (a woken worker that finds surplus work
// wakes the next). Victim selection starts at a per-worker random
// index and sweeps sequentially.
//
// The breadth-first global queue is a mutex FIFO (Deque); it is also
// the cross-thread entry point for producer submissions and
// detach-event completions, which are not bound to a worker.
//
// The parking protocol and its lost-wakeup argument are documented on
// Scheduler; the deque's memory-ordering notes live on WSDeque. Both
// are summarized in docs/architecture.md ("The executor hot path").
package sched
