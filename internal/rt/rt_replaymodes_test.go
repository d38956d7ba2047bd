package rt

// Differential test of the replay modes. One seeded task stream is run
// for a number of iterations four ways — plain windows with a Taskwait
// per iteration (the oracle: every dependence rediscovered), a plain
// Persistent region, an Adaptive one that re-records once, and a Frozen
// one — and every way must leave the same value in every accumulator.
// The stream's bodies fold (iteration, task, values read) into per-key
// accumulators with a hash that does not commute, so an ordering the
// declared dependences forbid shows in the result.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"taskdep/internal/fault"
	"taskdep/internal/graph"
	"taskdep/internal/obs"
	"taskdep/internal/trace"
	"taskdep/internal/verify"
)

// modeKeys is the key count of a plain stream, runModeKeys of one with
// read runs, whose members share up to nine keys and have a few others to
// write.
const (
	modeKeys    = 6
	runModeKeys = 20
)

// modeStream is a generated iteration: specs built once and resubmitted
// every iteration with the iteration number as firstprivate, as the
// application drivers do.
type modeStream struct {
	specs    []Spec
	detached int
	acc      []atomic.Uint64
	// ran[i] counts task i's executions; failTask fails (before folding)
	// on the one numbered failIter, from 0 — iteration failIter in every
	// mode, and readable in a Frozen region, whose firstprivate never
	// changes — by returning errPlanted, or panicking with it.
	ran        []atomic.Int64
	failTask   int
	failIter   int
	failPanics bool
	// batched makes body submit an iteration in one SubmitBatch call (in
	// chunks of batchChunk, where read runs form) instead of task by task.
	batched bool
	// waitEvery makes body Taskwait after every waitEvery submissions (and
	// after the last) and hand the wait's result to waited, with the
	// number of tasks the iteration has submitted so far.
	waitEvery int
	waited    func(r *Runtime, submitted int, err error)
	// writers and members index the tasks of the stream's read runs: the
	// writers of the shared keys ahead of each run, and the members that
	// are not detached.
	writers, members []int
	// armed carries the events of detached tasks that leave fulfilment to
	// another goroutine, as an MPI progress engine would do it.
	armed chan *Event
	wg    sync.WaitGroup
}

var errPlanted = errors.New("planted failure")

func mix(h, v uint64) uint64 {
	h ^= v + 0x9E3779B97F4A7C15 + h<<6 + h>>2
	h *= 0xBF58476D1CE4E5B9
	return h ^ h>>31
}

// modeAccess is one declared dependence of a generated task.
type modeAccess struct {
	k   int
	typ graph.DepType
}

// newModeStream generates n tasks. iterFree makes the bodies ignore the
// iteration number — what a Frozen region, which never sees a new
// firstprivate, can be compared on — and detached lets about one task in
// six complete through an event. runs puts read runs in the stream
// (genRun), one of them across the batchChunk-th task when n reaches
// well past it.
func newModeStream(seed int64, n int, iterFree, detached, runs bool) *modeStream {
	rng := rand.New(rand.NewSource(seed))
	nkeys := modeKeys
	if runs {
		nkeys = runModeKeys
	}
	s := &modeStream{
		specs:    make([]Spec, 0, n),
		acc:      make([]atomic.Uint64, nkeys),
		ran:      make([]atomic.Int64, n),
		failTask: -1,
		armed:    make(chan *Event, n),
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for ev := range s.armed {
			ev.Fulfill()
		}
	}()
	fill := func(n int) {
		for len(s.specs) < n {
			if runs && rng.Intn(8) == 0 {
				s.genRun(rng, n, 2+rng.Intn(15), iterFree, detached)
				continue
			}
			var deps []modeAccess
			for _, k := range rng.Perm(nkeys)[:1+rng.Intn(3)] {
				typ := graph.DepType(rng.Intn(4))
				if rng.Intn(3) == 0 {
					typ = graph.InOutSet // enough of them in a row to form groups
				}
				deps = append(deps, modeAccess{k, typ})
			}
			s.emit(deps, iterFree, detached && rng.Intn(6) == 0, rng)
		}
	}
	if runs && n > batchChunk+16 {
		// At most nine writers, then twenty-four members: nine or more of
		// them on either side of the chunk boundary, a run each.
		fill(batchChunk - 18)
		s.genRun(rng, n, 24, iterFree, detached)
	}
	fill(n)
	return s
}

// genRun appends a read run, as far as a stream of n tasks has room: a
// writer for each of 5-9 shared keys (one task each, so that what a run
// saves does not hinge on duplicate elimination), then width members that
// read them all in the same order and write up to two other keys — wide
// enough or not for a batch to group them (graph's minRunSaving). About
// one run in three has a member that writes a shared key as well, which
// cuts the run in two.
func (s *modeStream) genRun(rng *rand.Rand, n, width int, iterFree, detached bool) {
	perm := rng.Perm(len(s.acc))
	shared, spare := perm[:5+rng.Intn(5)], perm[9:]
	write := func() graph.DepType { return graph.Out + graph.DepType(rng.Intn(3)) }
	for _, k := range shared {
		if len(s.specs) == n {
			return
		}
		s.writers = append(s.writers, len(s.specs))
		s.emit([]modeAccess{{k, graph.Out + graph.DepType(rng.Intn(2))}}, iterFree, false, rng)
	}
	cut := rng.Intn(3 * width)
	for j := 0; j < width && len(s.specs) < n; j++ {
		var deps []modeAccess
		for _, k := range shared {
			deps = append(deps, modeAccess{k, graph.In})
		}
		for _, k := range spare[:rng.Intn(3)] {
			deps = append(deps, modeAccess{k, write()})
		}
		if j == cut {
			deps = append(deps, modeAccess{shared[rng.Intn(len(shared))], write()})
		}
		det := detached && rng.Intn(6) == 0
		if j != cut && !det {
			s.members = append(s.members, len(s.specs))
		}
		s.emit(deps, iterFree, det, rng)
	}
}

// emit appends the task that declares deps: its body folds its number,
// the iteration's and what it reads into what it writes.
func (s *modeStream) emit(deps []modeAccess, iterFree, detached bool, rng *rand.Rand) {
	i := len(s.specs)
	s.specs = append(s.specs, Spec{Label: fmt.Sprintf("t%d", i)})
	sp := &s.specs[i]
	for _, d := range deps {
		key := graph.Key(d.k + 1)
		switch d.typ {
		case graph.In:
			sp.In = append(sp.In, key)
		case graph.Out:
			sp.Out = append(sp.Out, key)
		case graph.InOut:
			sp.InOut = append(sp.InOut, key)
		case graph.InOutSet:
			sp.InOutSet = append(sp.InOutSet, key)
		}
	}
	fold := func(fp any) error {
		it := fp.(int)
		if i == s.failTask && s.ran[i].Load() == int64(s.failIter) {
			if s.failPanics {
				panic(errPlanted)
			}
			return errPlanted
		}
		s.ran[i].Add(1)
		h := uint64(i + 1)
		if !iterFree {
			h = mix(h, uint64(it))
		}
		for _, d := range deps {
			if d.typ == graph.In {
				h = mix(h, s.acc[d.k].Load())
			}
		}
		for _, d := range deps {
			switch d.typ {
			case graph.Out:
				s.acc[d.k].Store(h)
			case graph.InOut:
				s.acc[d.k].Store(mix(h, s.acc[d.k].Load()))
			case graph.InOutSet:
				s.acc[d.k].Add(h) // concurrent with the rest of its group
			}
		}
		return nil
	}
	if !detached {
		sp.Do = fold
		return
	}
	s.detached++
	inline := rng.Intn(2) == 0
	sp.Detached = true
	sp.DetachedBody = func(fp any, ev *Event) {
		_ = fold(fp) // a detached task is never the planted failure
		if inline {
			ev.Fulfill()
		} else {
			s.armed <- ev
		}
	}
}

// plantFailure picks a task that is not detached to fail at iteration
// iter.
func (s *modeStream) plantFailure(rng *rand.Rand, iter int) {
	for {
		if i := rng.Intn(len(s.specs)); !s.specs[i].Detached {
			s.failTask, s.failIter = i, iter
			return
		}
	}
}

// body submits the first n tasks of the stream for iteration it.
func (s *modeStream) body(r *Runtime, n int) func(it int) {
	staged := make([]Spec, n)
	step := n
	if s.waitEvery > 0 {
		step = s.waitEvery
	}
	return func(it int) {
		copy(staged, s.specs)
		for i := range staged {
			staged[i].FirstPrivate = it
		}
		for lo := 0; lo < n; lo += step {
			hi := min(lo+step, n)
			if s.batched {
				r.SubmitBatch(staged[lo:hi])
			} else {
				for i := lo; i < hi; i++ {
					r.Submit(staged[i])
				}
			}
			if s.waitEvery > 0 {
				s.waited(r, hi, r.Taskwait())
			}
		}
	}
}

func (s *modeStream) stop() {
	close(s.armed)
	s.wg.Wait()
}

// result is what two runs of the same stream are compared on.
type modeResult struct {
	acc []uint64
	ran []int64
	err error
	// What runMode reads off the runtime once it has closed it: executed,
	// skipped and aborted task counts, the graph's discovery counters, and
	// the verifier's audit of everything discovered (nil with Verify off).
	finished [3]int64
	stats    graph.Stats
	audit    *verify.Report
}

func (s *modeStream) result(err error) modeResult {
	res := modeResult{acc: make([]uint64, len(s.acc)), ran: make([]int64, len(s.ran)), err: err}
	for k := range s.acc {
		res.acc[k] = s.acc[k].Load()
	}
	for i := range s.ran {
		res.ran[i] = s.ran[i].Load()
	}
	return res
}

type replayMode struct {
	name string
	// run executes iters iterations of s on r and returns the error of
	// the window or region that ended them, and how many recordings it
	// made.
	run func(r *Runtime, s *modeStream, iters int) (err error, recordings int)
}

func checkQuiescent(t *testing.T, r *Runtime, when string) {
	t.Helper()
	g := r.Graph()
	if live, ready := g.Live(), g.ReadyCount(); live != 0 || ready != 0 {
		t.Fatalf("%s: live %d ready %d, want 0 and 0", when, live, ready)
	}
	if st := g.Stats(); st.EdgesAttempted != st.EdgesCreated+st.EdgesPruned+st.EdgesDuplicate {
		t.Fatalf("%s: edge identity broken: %+v", when, st)
	}
}

func replayModes(t *testing.T, reRecordAt int) []replayMode {
	return []replayMode{
		{"oracle", func(r *Runtime, s *modeStream, iters int) (error, int) {
			body := s.body(r, len(s.specs))
			for it := 0; it < iters; it++ {
				body(it)
				err := r.Taskwait()
				checkQuiescent(t, r, fmt.Sprintf("oracle window %d", it))
				if err != nil {
					return err, 0
				}
			}
			return nil, 0
		}},
		{"persistent", func(r *Runtime, s *modeStream, iters int) (error, int) {
			return r.Persistent(iters, s.body(r, len(s.specs))), 1
		}},
		{"adaptive", func(r *Runtime, s *modeStream, iters int) (error, int) {
			changed := func(it int) bool { return it == reRecordAt }
			return r.Persistent(iters, s.body(r, len(s.specs)), Adaptive(changed)), 2
		}},
		{"frozen", func(r *Runtime, s *modeStream, iters int) (error, int) {
			return r.Persistent(iters, s.body(r, len(s.specs)), Frozen()), 1
		}},
	}
}

// runMode runs one mode on a fresh runtime and stream and checks what
// every mode must satisfy on its own: gauges and counter identities at
// the quiescent points, the compiled-iteration count, a clean Close.
func runMode(t *testing.T, m replayMode, cfg Config, mk func() *modeStream, iters int) modeResult {
	t.Helper()
	s := mk()
	defer s.stop()
	r := newRuntime(t, cfg)
	var err error
	var recordings int
	finishes(t, m.name, func() { err, recordings = m.run(r, s, iters) })
	checkQuiescent(t, r, m.name+" after its run")
	if err == nil && recordings > 0 {
		if got, want := r.Obs().Counter(obs.CReplayCompiled), int64(iters-recordings); got != want {
			t.Fatalf("%s: %d compiled iterations, want %d (%d iterations, %d recordings)", m.name, got, want, iters, recordings)
		}
	}
	res := s.result(err)
	// The runtime is reusable whatever happened: a clean region on the
	// same keys runs to the end.
	finishes(t, m.name+" reuse", func() {
		before := s.result(nil)
		s.failTask = -1
		if err := r.Persistent(3, s.body(r, len(s.specs))); err != nil {
			t.Errorf("%s: clean region after the run: %v", m.name, err)
		}
		for i, n := range s.result(nil).ran {
			if n != before.ran[i]+3 {
				t.Errorf("%s: task %d ran %d times in the 3-iteration region after the run", m.name, i, n-before.ran[i])
			}
		}
	})
	if cerr := r.Close(); cerr != nil {
		t.Fatalf("%s: Close: %v", m.name, cerr)
	}
	checkQuiescent(t, r, m.name+" after Close")
	// Every submission reached exactly one terminal state. (A frozen
	// iteration runs tasks nobody submitted.)
	o := r.Obs()
	sub := o.Counter(obs.CTasksSubmitted)
	res.finished = [3]int64{o.Counter(obs.CTasksExecuted), o.Counter(obs.CTasksSkipped), o.Counter(obs.CTasksAborted)}
	if fin := res.finished[0] + res.finished[1] + res.finished[2]; sub != fin && m.name != "frozen" {
		t.Fatalf("%s: %d tasks submitted, %d executed+skipped+aborted", m.name, sub, fin)
	}
	res.stats, res.audit = r.Graph().Stats(), r.Verify()
	return res
}

func sameResult(t *testing.T, mode string, got, want modeResult) {
	t.Helper()
	if !slices.Equal(got.acc, want.acc) {
		t.Fatalf("%s: accumulators %x, oracle %x", mode, got.acc, want.acc)
	}
	for i := range want.ran {
		if got.ran[i] != want.ran[i] {
			t.Fatalf("%s: task %d ran %d times, oracle %d", mode, i, got.ran[i], want.ran[i])
		}
	}
}

// TestReplayModesAgree: clean runs. Frozen is compared on streams whose
// bodies ignore the iteration number and that have no detached task; the
// modes that re-run the body on streams with both.
func TestReplayModesAgree(t *testing.T) {
	const tasks, iters = 48, 7
	for _, workers := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 4; seed++ {
			for _, frozenComparable := range []bool{false, true} {
				name := fmt.Sprintf("workers%d/seed%d/frozen=%v", workers, seed, frozenComparable)
				t.Run(name, func(t *testing.T) {
					cfg := Config{Workers: workers, Opts: graph.OptAll}
					if seed == 4 {
						cfg.Verify = verify.Observe // per-submission divergence checking on
					}
					mk := func() *modeStream { return newModeStream(seed, tasks, frozenComparable, !frozenComparable, false) }
					modes := replayModes(t, 1+int(seed)%(iters-1))
					want := runMode(t, modes[0], cfg, mk, iters)
					if want.err != nil {
						t.Fatalf("oracle: %v", want.err)
					}
					for _, m := range modes[1:] {
						if m.name == "frozen" && !frozenComparable {
							continue
						}
						got := runMode(t, m, cfg, mk, iters)
						if got.err != nil {
							t.Fatalf("%s: %v", m.name, got.err)
						}
						sameResult(t, m.name, got, want)
					}
				})
			}
		}
	}
}

// TestReplayModesFault plants a failure at one iteration: every mode must
// name the same task, skip the same cone — the other tasks of that
// iteration run — and return the *fault.TaskError from the window or
// region.
func TestReplayModesFault(t *testing.T) {
	const tasks, iters = 48, 6
	for _, workers := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("workers%d/seed%d", workers, seed), func(t *testing.T) {
				cfg := Config{Workers: workers, Opts: graph.OptAll}
				failIter := 1 + int(seed)%(iters-2) // a replayed iteration, not the last
				mk := func() *modeStream {
					s := newModeStream(seed, tasks, false, true, false)
					s.plantFailure(rand.New(rand.NewSource(seed)), failIter)
					return s
				}
				// Re-recording before, at and after the failing iteration.
				modes := replayModes(t, failIter-1+int(seed)%3)
				want := runMode(t, modes[0], cfg, mk, iters)
				var wantTE *fault.TaskError
				if !errors.As(want.err, &wantTE) || !errors.Is(want.err, errPlanted) {
					t.Fatalf("oracle returned %v, want the planted *fault.TaskError", want.err)
				}
				for _, m := range modes[1:3] {
					got := runMode(t, m, cfg, mk, iters)
					var te *fault.TaskError
					if !errors.As(got.err, &te) || !errors.Is(got.err, errPlanted) {
						t.Fatalf("%s returned %v, want the planted *fault.TaskError", m.name, got.err)
					}
					if te.Label != wantTE.Label {
						t.Fatalf("%s: failed task %q, oracle %q", m.name, te.Label, wantTE.Label)
					}
					sameResult(t, m.name, got, want)
				}
			})
		}
	}
}

// unreleased is what a replayed iteration of the recording rec has not
// released once the body has resubmitted submitted tasks: every position
// from the next task on (a redirect node goes with the task before it).
func unreleased(rec []*graph.Task, submitted int) int64 {
	for p, tk := range rec {
		if tk.Redirect {
			continue
		}
		if submitted == 0 {
			return int64(len(rec) - p)
		}
		submitted--
	}
	return 0
}

// TestReplayModesTaskwaitInBody: every mode's body waits after every k
// submissions. After each wait nothing is ready, and the live gauge holds
// exactly the positions a replayed iteration has not released, which
// cannot start before their Submit, and nothing in a plain or recording
// window. Across workers, detached tasks, batches with read runs and a
// Frozen region, every mode agrees with the oracle. With a failure
// planted, every wait that closes the failing task's window hands back
// its *fault.TaskError, the region runs to its end, and the tasks
// resubmitted after that wait run: the failure's window is over, so its
// poison does not reach them, in a replayed iteration as in a plain one.
func TestReplayModesTaskwaitInBody(t *testing.T) {
	const iters, reRecordAt, failIter = 5, 2, 2
	variants := []struct {
		name                 string
		tasks, k             int
		frozen, runs, failed bool
	}{
		{"detached", 48, 5, false, false, false},
		{"frozen", 48, 6, true, false, false},
		{"batched", batchChunk + 40, 37, false, true, false},
		{"failed", 48, 7, false, false, true},
	}
	for _, workers := range []int{1, 2, 4} {
		for _, v := range variants {
			t.Run(fmt.Sprintf("workers%d/%s", workers, v.name), func(t *testing.T) {
				seed := int64(workers)
				var waitErrs []error // appended by the producer only
				mk := func() *modeStream {
					s := newModeStream(seed, v.tasks, v.frozen, !v.frozen, v.runs)
					s.batched = v.runs
					if v.failed {
						s.plantFailure(rand.New(rand.NewSource(seed)), failIter)
					}
					s.waitEvery = v.k
					s.waited = func(r *Runtime, submitted int, err error) {
						if err != nil {
							waitErrs = append(waitErrs, err)
						}
						var want int64
						if cs := r.replay; cs != nil {
							want = unreleased(cs.Tasks(), submitted)
						}
						if live, ready := r.Graph().Live(), r.Graph().ReadyCount(); live != want || ready != 0 {
							t.Errorf("iteration %d, %d submitted: live %d ready %d after a wait, want %d and 0",
								r.iter.Load(), submitted, live, ready, want)
						}
					}
					return s
				}
				var want modeResult
				var wantLabel string
				for _, m := range replayModes(t, reRecordAt) {
					if m.name == "frozen" && !v.frozen {
						continue
					}
					waitErrs = nil
					got := runMode(t, m, Config{Workers: workers, Opts: graph.OptAll}, mk, iters)
					if got.err != nil {
						t.Fatalf("%s: region returned %v", m.name, got.err)
					}
					if m.name == "oracle" {
						want = got
					} else {
						sameResult(t, m.name, got, want)
					}
					if !v.failed {
						if len(waitErrs) != 0 {
							t.Fatalf("%s: waits returned %v in a clean run", m.name, waitErrs)
						}
						continue
					}
					// The planted task fails from failIter on: its body never
					// counts the run that failed. (runMode's clean region after
					// the run adds no failure.)
					if len(waitErrs) != iters-failIter {
						t.Fatalf("%s: %d waits failed, want %d: %v", m.name, len(waitErrs), iters-failIter, waitErrs)
					}
					for _, err := range waitErrs {
						var te *fault.TaskError
						if !errors.As(err, &te) || !errors.Is(err, errPlanted) {
							t.Fatalf("%s: a wait returned %v, want the planted *fault.TaskError", m.name, err)
						}
						if wantLabel == "" {
							wantLabel = te.Label
						} else if te.Label != wantLabel {
							t.Fatalf("%s: a wait named task %q, oracle %q", m.name, te.Label, wantLabel)
						}
					}
				}
			})
		}
	}
}

// TestReplayModesBatchedEqualsTaskByTask is the read runs' differential
// test, with an oracle that costs nothing: Submit discovers a task with
// no next one to look at, so the same stream submitted task by task
// cannot form a run. Streams with runs in them — cut by a member that
// writes a shared key, by batchChunk, with detached members — go through
// every mode both ways, clean, with a shared key's writer returning an
// error and with a member panicking, under the verifier and the
// critical-path profiler: same accumulators, same executions, same
// terminal-state counts, the same task named, a clean audit of both
// graphs — and in batches more redirect nodes and, as the verifier has
// every edge kept and so makes the count exact, fewer edges.
func TestReplayModesBatchedEqualsTaskByTask(t *testing.T) {
	const tasks, iters = batchChunk + 40, 3
	for _, workers := range []int{1, 2, 4} {
		for _, fail := range []string{"", "writer", "member"} {
			for seed := int64(1); seed <= 2; seed++ {
				frozen := seed == 2 // bodies a Frozen region can be compared on
				if frozen && fail != "" {
					continue // a Frozen region is not compared on failures
				}
				t.Run(fmt.Sprintf("workers%d/fail=%s/seed%d", workers, fail, seed), func(t *testing.T) {
					// Observe audits once, when runMode asks; Full at every wait,
					// which under the race detector is most of this test's time.
					cfg := Config{Workers: workers, Opts: graph.OptAll, Verify: verify.Observe, CPath: CPathOptions{Enable: true}}
					if workers == 2 && fail == "" {
						cfg.Verify = verify.Full
					}
					failIter := int(seed) % iters
					mk := func(batched bool) func() *modeStream {
						return func() *modeStream {
							s := newModeStream(seed+int64(10*workers), tasks, frozen, !frozen, true)
							s.batched = batched
							pick := rand.New(rand.NewSource(seed))
							switch fail {
							case "writer":
								s.failTask, s.failIter = s.writers[pick.Intn(len(s.writers))], failIter
							case "member":
								s.failTask, s.failIter, s.failPanics = s.members[pick.Intn(len(s.members))], failIter, true
							}
							return s
						}
					}
					for _, m := range replayModes(t, 1) {
						if m.name == "frozen" && !frozen {
							continue
						}
						want := runMode(t, m, cfg, mk(false), iters)
						got := runMode(t, m, cfg, mk(true), iters)
						sameResult(t, m.name+" in batches", got, want)
						var te, wantTE *fault.TaskError
						if errors.As(want.err, &wantTE) != (fail != "") || errors.As(got.err, &te) != (fail != "") {
							t.Fatalf("%s: task by task returned %v, in batches %v", m.name, want.err, got.err)
						}
						if fail != "" && te.Label != wantTE.Label {
							t.Fatalf("%s: failed task %q in batches, %q task by task", m.name, te.Label, wantTE.Label)
						}
						if got.finished != want.finished {
							t.Fatalf("%s: executed, skipped, aborted %v in batches, %v task by task", m.name, got.finished, want.finished)
						}
						for _, res := range []modeResult{want, got} {
							if !res.audit.OK() {
								t.Fatalf("%s: audit: %v", m.name, res.audit)
							}
						}
						if got.stats.RedirectNodes <= want.stats.RedirectNodes || got.stats.EdgesCreated >= want.stats.EdgesCreated {
							t.Fatalf("%s: in batches %+v, task by task %+v: no run formed", m.name, got.stats, want.stats)
						}
					}
				})
			}
		}
	}
}

// TestReplayModesInstrumentedEqualsBare: Config.Profile, span timing and
// the critical-path profiler, all on, observe the executor production
// runs — a replayed task retires through the compiled schedule either way.
// Each persistent mode is run bare and instrumented, clean and with a
// failure planted in a compiled iteration: same accumulators, same
// executions, same terminal-state and compiled-iteration counters; and
// the instruments saw it all — one task record per body started, one skip
// instant per task of the poisoned cone.
func TestReplayModesInstrumentedEqualsBare(t *testing.T) {
	const tasks, iters, reRecordAt, failIter = 48, 6, 2, 3
	counters := []obs.Counter{obs.CTasksExecuted, obs.CTasksSkipped, obs.CTasksAborted, obs.CReplayCompiled}
	for _, workers := range []int{1, 2, 4} {
		for _, faulted := range []bool{false, true} {
			for _, m := range replayModes(t, reRecordAt)[1:] {
				t.Run(fmt.Sprintf("workers%d/faulted=%v/%s", workers, faulted, m.name), func(t *testing.T) {
					frozen := m.name == "frozen" // no detached tasks, no new firstprivates
					run := func(cfg Config) (*Runtime, *modeStream, modeResult) {
						s := newModeStream(int64(workers), tasks, frozen, !frozen, false)
						defer s.stop()
						if faulted {
							s.plantFailure(rand.New(rand.NewSource(int64(workers))), failIter)
						}
						r := newRuntime(t, cfg)
						var err error
						finishes(t, m.name, func() { err, _ = m.run(r, s, iters) })
						checkQuiescent(t, r, m.name+" after its run")
						if cerr := r.Close(); cerr != nil {
							t.Fatalf("%s: Close: %v", m.name, cerr)
						}
						return r, s, s.result(err)
					}
					bare, _, want := run(Config{Workers: workers, Opts: graph.OptAll})
					prof := trace.New(workers+1, true)
					inst, s, got := run(Config{
						Workers: workers, Opts: graph.OptAll, Profile: prof,
						Obs:   obs.Options{Spans: true},
						CPath: CPathOptions{Enable: true},
					})

					sameResult(t, "instrumented "+m.name, got, want)
					var te, wantTE *fault.TaskError
					if errors.As(want.err, &wantTE) != faulted || errors.As(got.err, &te) != faulted {
						t.Fatalf("bare run returned %v, instrumented %v (faulted=%v)", want.err, got.err, faulted)
					}
					if faulted && te.Label != wantTE.Label {
						t.Fatalf("instrumented run failed task %q, bare %q", te.Label, wantTE.Label)
					}
					for _, c := range counters {
						if g, w := inst.Obs().Counter(c), bare.Obs().Counter(c); g != w {
							t.Fatalf("%s: instrumented %d, bare %d", c.Name(), g, w)
						}
					}
					if inst.Obs().Counter(obs.CReplayCompiled) == 0 {
						t.Fatalf("no iteration of the instrumented run was a compiled one")
					}

					records := map[string]int64{}
					for _, rec := range prof.Tasks() {
						records[rec.Label]++
					}
					for i, n := range got.ran {
						if faulted && i == s.failTask {
							n++ // its body started, then failed before it counted
						}
						if records[s.specs[i].Label] != n {
							t.Fatalf("task %d: %d task records for %d bodies started", i, records[s.specs[i].Label], n)
						}
					}
					// The region ended at the failing iteration, so every skip is
					// of its cone; redirect nodes are skipped too, but not counted.
					redirect := map[int64]bool{}
					for _, tk := range inst.Graph().Recorded() {
						redirect[tk.ID] = tk.Redirect
					}
					var skips int64
					for _, ev := range inst.Obs().DrainSpans() {
						if ev.Name == obs.InstSkip && !redirect[ev.TaskID] {
							if ev.Iter != failIter {
								t.Fatalf("skip instant for task %d in iteration %d, want %d", ev.TaskID, ev.Iter, failIter)
							}
							skips++
						}
					}
					if skipped := inst.Obs().Counter(obs.CTasksSkipped); skips != skipped || (skipped > 0) != faulted {
						t.Fatalf("%d skip instants for %d skipped tasks (faulted=%v)", skips, skipped, faulted)
					}
				})
			}
		}
	}
}

// TestReplayModesShapeMismatch: a replayed body that submits fewer tasks
// than were recorded ends the region with ErrReplayShape once the
// iteration has drained — the tasks it left out cancelled, detached ones
// included; one that submits more panics in Submit.
func TestReplayModesShapeMismatch(t *testing.T) {
	const tasks = 48
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			s := newModeStream(int64(workers), tasks, false, true, false)
			defer s.stop()
			r := newRuntime(t, Config{Workers: workers, Opts: graph.OptAll})
			defer r.Close()
			full, short := s.body(r, tasks), s.body(r, tasks/2)
			var err error
			finishes(t, "short region", func() {
				err = r.Persistent(4, func(it int) {
					if it == 2 {
						short(it)
					} else {
						full(it)
					}
				})
			})
			if !errors.Is(err, ErrReplayShape) {
				t.Fatalf("region with a short iteration returned %v, want ErrReplayShape", err)
			}
			checkQuiescent(t, r, "after the short region")
			for i := range s.ran {
				want := int64(2) // iterations 0 and 1
				if i < tasks/2 {
					want = 3
				}
				if got := s.ran[i].Load(); got != want {
					t.Fatalf("task %d ran %d times, want %d", i, got, want)
				}
			}
			// One task too many panics in Submit, as it always has, and a
			// panic out of a region body leaves its runtime unusable: this one
			// is not closed, and its tasks touch nothing of the test's.
			r2 := newRuntime(t, Config{Workers: workers, Opts: graph.OptAll})
			var panicked any
			finishes(t, "long region", func() {
				defer func() { panicked = recover() }()
				_ = r2.Persistent(3, func(it int) {
					for i := 0; i < 8+it%2; i++ {
						r2.Submit(Spec{InOut: []graph.Key{graph.Key(i % 3)}, Body: func(any) {}})
					}
				})
			})
			if panicked == nil {
				t.Fatalf("a replayed body that submitted one task too many did not panic")
			}
		})
	}
}

// TestReplayModesSteadyStateAllocs: a replayed iteration of a region
// whose body resubmits prebuilt specs allocates nothing but the events
// (and their closures) of its detached tasks. Two region lengths are
// differenced, so the recording and the warm-up drop out.
func TestReplayModesSteadyStateAllocs(t *testing.T) {
	const tasks, short, long = 48, 4, 24
	for _, detached := range []bool{false, true} {
		t.Run(fmt.Sprintf("detached=%v", detached), func(t *testing.T) {
			region := func(iters int) (mallocs uint64, ndetached int) {
				s := newModeStream(7, tasks, false, detached, false)
				defer s.stop()
				r := newRuntime(t, Config{Workers: 1, Opts: graph.OptAll})
				defer r.Close()
				body := s.body(r, tasks)
				var m0, m1 runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&m0)
				if err := r.Persistent(iters, body); err != nil {
					t.Fatalf("Persistent: %v", err)
				}
				runtime.ReadMemStats(&m1)
				return m1.Mallocs - m0.Mallocs, s.detached
			}
			best := ^uint64(0)
			var nd int
			for rep := 0; rep < 5; rep++ {
				a, _ := region(short)
				b, d := region(long)
				nd = d
				if b < a {
					b = a
				}
				if per := (b - a) / (long - short); per < best {
					best = per
				}
			}
			// Per detached task: its event, the closure that binds the
			// event to the body, the buffer its Fulfill releases successors
			// into (a context with no slot to own one), and now and then a
			// bucket of the live-event map. Nothing otherwise.
			if limit := uint64(4 * nd); best > limit {
				t.Fatalf("a steady-state iteration allocates %d times, want at most %d (%d detached tasks)", best, limit, nd)
			}
		})
	}
}
