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
	"sync"
	"sync/atomic"
	"testing"

	"taskdep/internal/fault"
	"taskdep/internal/graph"
	"taskdep/internal/obs"
	"taskdep/internal/trace"
	"taskdep/internal/verify"
)

const modeKeys = 6

// modeStream is a generated iteration: specs built once and resubmitted
// every iteration with the iteration number as firstprivate, as the
// application drivers do.
type modeStream struct {
	specs    []Spec
	detached int
	acc      [modeKeys]atomic.Uint64
	// ran[i] counts task i's executions; failTask fails (before folding)
	// on the one numbered failIter, from 0 — iteration failIter in every
	// mode, and readable in a Frozen region, whose firstprivate never
	// changes.
	ran      []atomic.Int64
	failTask int
	failIter int
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

// newModeStream generates n tasks over modeKeys keys. iterFree makes the
// bodies ignore the iteration number — what a Frozen region, which never
// sees a new firstprivate, can be compared on — and detached lets about
// one task in six complete through an event.
func newModeStream(seed int64, n int, iterFree, detached bool) *modeStream {
	rng := rand.New(rand.NewSource(seed))
	s := &modeStream{
		specs:    make([]Spec, n),
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
	for i := range s.specs {
		i := i
		sp := &s.specs[i]
		sp.Label = fmt.Sprintf("t%d", i)
		type access struct {
			k   int
			typ graph.DepType
		}
		var deps []access
		for _, k := range rng.Perm(modeKeys)[:1+rng.Intn(3)] {
			typ := graph.DepType(rng.Intn(4))
			if rng.Intn(3) == 0 {
				typ = graph.InOutSet // enough of them in a row to form groups
			}
			deps = append(deps, access{k, typ})
			key := graph.Key(k + 1)
			switch typ {
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
		if detached && rng.Intn(6) == 0 {
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
		} else {
			sp.Do = fold
		}
	}
	return s
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
	return func(it int) {
		for i := 0; i < n; i++ {
			sp := s.specs[i]
			sp.FirstPrivate = it
			r.Submit(sp)
		}
	}
}

func (s *modeStream) stop() {
	close(s.armed)
	s.wg.Wait()
}

// result is what two runs of the same stream are compared on.
type modeResult struct {
	acc [modeKeys]uint64
	ran []int64
	err error
}

func (s *modeStream) result(err error) modeResult {
	res := modeResult{ran: make([]int64, len(s.ran)), err: err}
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
	r := New(cfg)
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
	fin := o.Counter(obs.CTasksExecuted) + o.Counter(obs.CTasksSkipped) + o.Counter(obs.CTasksAborted)
	if sub != fin && m.name != "frozen" {
		t.Fatalf("%s: %d tasks submitted, %d executed+skipped+aborted", m.name, sub, fin)
	}
	return res
}

func sameResult(t *testing.T, mode string, got, want modeResult) {
	t.Helper()
	if got.acc != want.acc {
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
					mk := func() *modeStream { return newModeStream(seed, tasks, frozenComparable, !frozenComparable) }
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
					s := newModeStream(seed, tasks, false, true)
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
						s := newModeStream(int64(workers), tasks, frozen, !frozen)
						defer s.stop()
						if faulted {
							s.plantFailure(rand.New(rand.NewSource(int64(workers))), failIter)
						}
						r := New(cfg)
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
			s := newModeStream(int64(workers), tasks, false, true)
			defer s.stop()
			r := New(Config{Workers: workers, Opts: graph.OptAll})
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
			r2 := New(Config{Workers: workers, Opts: graph.OptAll})
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
				s := newModeStream(7, tasks, false, detached)
				defer s.stop()
				r := New(Config{Workers: 1, Opts: graph.OptAll})
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
