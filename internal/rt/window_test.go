package rt

// Tests of ended windows (graph.EndWindow): the runtime forgets a drained
// graph's frontier and reuses its task memory at SubmitBatch chunks,
// Taskwaits and every submitWindowStride-th Submit. Nothing a program can
// observe may change: the differential test holds a generated stream to a
// sequential oracle, the others hold the cases where forgetting would be
// wrong — a recording, poison, retaining instruments — to what must not
// change.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taskdep/internal/graph"
	"taskdep/internal/obs"
	"taskdep/internal/verify"
)

// winKeys is the key count of a window stream.
const winKeys = 24

// winAccess is one declared dependence of a window-stream task.
type winAccess struct {
	k   int
	typ graph.DepType
}

// winTask is one task of a window stream.
type winTask struct {
	deps []winAccess
	// in is the task's In list: a read run's members share one slice (the
	// identity path) or hold copies (the key compare).
	in []graph.Key
	// detached tasks fold, then fulfill their event in the body (inline)
	// or from another goroutine.
	detached, inline bool
}

// winStep is one submission step: tasks [lo, hi) by one SubmitBatch or by
// single Submits, then a Taskwait when wait is set.
type winStep struct {
	lo, hi      int
	batch, wait bool
}

// winStream is a generated stream of one program run: tasks, the steps
// that submit them, and the task that fails (never a detached one).
type winStream struct {
	tasks []winTask
	steps []winStep
	fail  int
}

func newWinStream(seed int64, n int) *winStream {
	rng := rand.New(rand.NewSource(seed))
	s := &winStream{}
	for len(s.tasks) < n {
		if rng.Intn(10) == 0 {
			// A read run: members read the same 9 keys and write one other.
			perm := rng.Perm(winKeys)
			shared := make([]graph.Key, 9)
			for j, k := range perm[:9] {
				shared[j] = graph.Key(k)
			}
			for j, width := 0, 5+rng.Intn(12); j < width; j++ {
				w := winTask{in: shared}
				if rng.Intn(3) == 0 {
					w.in = slices.Clone(shared)
				}
				for _, k := range w.in {
					w.deps = append(w.deps, winAccess{int(k), graph.In})
				}
				w.deps = append(w.deps, winAccess{perm[9+rng.Intn(winKeys-9)], graph.Out + graph.DepType(rng.Intn(2))})
				s.tasks = append(s.tasks, w)
			}
			continue
		}
		var w winTask
		for _, k := range rng.Perm(winKeys)[:1+rng.Intn(3)] {
			typ := graph.DepType(rng.Intn(4))
			if rng.Intn(3) == 0 {
				typ = graph.InOutSet
			}
			w.deps = append(w.deps, winAccess{k, typ})
			if typ == graph.In {
				w.in = append(w.in, graph.Key(k))
			}
		}
		w.detached = rng.Intn(8) == 0
		w.inline = rng.Intn(2) == 0
		s.tasks = append(s.tasks, w)
	}
	for {
		if s.fail = rng.Intn(n); !s.tasks[s.fail].detached {
			break
		}
	}
	// Steps of 1 to 300 tasks (past batchChunk, so a batch is cut in
	// chunks), a Taskwait every k submissions.
	k, since := 40+rng.Intn(360), 0
	for lo := 0; lo < n; {
		hi := min(n, lo+1+rng.Intn(300))
		since += hi - lo
		st := winStep{lo: lo, hi: hi, batch: rng.Intn(3) != 0, wait: since >= k || hi == n}
		if st.wait {
			since = 0
		}
		s.steps = append(s.steps, st)
		lo = hi
	}
	return s
}

// winStore is what a task's fold reads and writes: the runtime's atomic
// accumulators or the oracle's plain ones.
type winStore interface {
	load(k int) uint64
	store(k int, v uint64)
	add(k int, v uint64)
}

type atomicStore []atomic.Uint64

func (a atomicStore) load(k int) uint64     { return a[k].Load() }
func (a atomicStore) store(k int, v uint64) { a[k].Store(v) }
func (a atomicStore) add(k int, v uint64)   { a[k].Add(v) }

type plainStore []uint64

func (p plainStore) load(k int) uint64     { return p[k] }
func (p plainStore) store(k int, v uint64) { p[k] = v }
func (p plainStore) add(k int, v uint64)   { p[k] += v }

// fold is task i's body: it hashes its number and what it reads into
// what it writes; members of an inoutset group add, which commutes.
func (s *winStream) fold(i int, st winStore) error {
	if i == s.fail {
		return errPlanted
	}
	deps := s.tasks[i].deps
	h := uint64(i + 1)
	for _, d := range deps {
		if d.typ == graph.In {
			h = mix(h, st.load(d.k))
		}
	}
	for _, d := range deps {
		switch d.typ {
		case graph.Out:
			st.store(d.k, h)
		case graph.InOut:
			st.store(d.k, mix(h, st.load(d.k)))
		case graph.InOutSet:
			st.add(d.k, h)
		}
	}
	return nil
}

// winOutcome is what a run of a stream is compared on.
type winOutcome struct {
	ran     []bool
	acc     []uint64
	failed  []bool // per step: its Taskwait returned the planted failure
	skipped int64
}

// oracle runs the stream sequentially, in submission order: a task runs
// unless one of its declared predecessors failed or was skipped since the
// last Taskwait (the failure window), the runtime's poison rule.
func (s *winStream) oracle() winOutcome {
	out := winOutcome{ran: make([]bool, len(s.tasks)), failed: make([]bool, len(s.steps))}
	acc := make(plainStore, winKeys)
	type frontier struct {
		outSet, readers, base []int
		group                 bool
	}
	var fr [winKeys]frontier
	bad := map[int]bool{}
	failedNow := false
	for si, step := range s.steps {
		for i := step.lo; i < step.hi; i++ {
			var preds []int
			for _, d := range s.tasks[i].deps {
				f := &fr[d.k]
				switch d.typ {
				case graph.In:
					preds = append(preds, f.outSet...)
					f.group = false
					f.readers = append(f.readers, i)
				case graph.Out, graph.InOut:
					preds = append(append(preds, f.outSet...), f.readers...)
					f.outSet, f.readers, f.group = []int{i}, nil, false
				case graph.InOutSet:
					if !f.group {
						f.base = append(slices.Clone(f.outSet), f.readers...)
						f.outSet, f.readers, f.group = nil, nil, true
					}
					preds = append(preds, f.base...)
					f.outSet = append(f.outSet, i)
				}
			}
			poisoned := false
			for _, p := range preds {
				poisoned = poisoned || bad[p]
			}
			switch {
			case poisoned:
				bad[i] = true
				out.skipped++
			case s.fold(i, acc) != nil:
				bad[i], failedNow = true, true
			default:
				out.ran[i] = true
			}
		}
		if step.wait {
			out.failed[si] = failedNow
			clear(bad)
			failedNow = false
		}
	}
	out.acc = acc
	return out
}

// run executes the stream on r and returns what it observed, but for
// the skip count, which is exact only once r has closed.
func (s *winStream) run(t *testing.T, r *Runtime) winOutcome {
	t.Helper()
	acc := make(atomicStore, winKeys)
	ran := make([]atomic.Bool, len(s.tasks))
	armed := make(chan *Event, len(s.tasks))
	var fulfiller sync.WaitGroup
	fulfiller.Add(1)
	go func() {
		defer fulfiller.Done()
		for ev := range armed {
			ev.Fulfill()
		}
	}()
	specs := make([]Spec, len(s.tasks))
	for i := range s.tasks {
		w, sp := &s.tasks[i], &specs[i]
		sp.Label = fmt.Sprintf("t%d", i)
		sp.In = w.in
		for _, d := range w.deps {
			switch d.typ {
			case graph.Out:
				sp.Out = append(sp.Out, graph.Key(d.k))
			case graph.InOut:
				sp.InOut = append(sp.InOut, graph.Key(d.k))
			case graph.InOutSet:
				sp.InOutSet = append(sp.InOutSet, graph.Key(d.k))
			}
		}
		i := i
		do := func(any) error {
			err := s.fold(i, acc)
			if err == nil {
				ran[i].Store(true)
			}
			return err
		}
		if !w.detached {
			sp.Do = do
			continue
		}
		inline := w.inline
		sp.Detached = true
		sp.DetachedBody = func(_ any, ev *Event) {
			_ = do(nil)
			if inline {
				ev.Fulfill()
			} else {
				armed <- ev
			}
		}
	}
	out := winOutcome{ran: make([]bool, len(s.tasks)), failed: make([]bool, len(s.steps))}
	finishes(t, "the stream", func() {
		for si, step := range s.steps {
			if step.batch {
				r.SubmitBatch(specs[step.lo:step.hi])
			} else {
				for i := step.lo; i < step.hi; i++ {
					r.Submit(specs[i])
				}
			}
			if step.wait {
				err := r.Taskwait()
				if err != nil && !errors.Is(err, errPlanted) {
					t.Errorf("step %d: Taskwait returned %v", si, err)
				}
				out.failed[si] = err != nil
			}
		}
	})
	close(armed)
	fulfiller.Wait()
	for i := range ran {
		out.ran[i] = ran[i].Load()
	}
	out.acc = make([]uint64, winKeys)
	for k := range acc {
		out.acc[k] = acc[k].Load()
	}
	return out
}

// TestWindowsMatchSequentialOracle: seeded streams that mix every
// dependence type, read runs, batches cut in chunks, single Submits,
// detached tasks fulfilled in their body and from another goroutine, a
// planted failure and a Taskwait every k submissions run on one and two
// Ps and one and two workers. Every run executes the tasks the
// sequential oracle executes, skips as many, fails at the same Taskwait
// and leaves the same accumulators; at one P windows end.
func TestWindowsMatchSequentialOracle(t *testing.T) {
	for _, procs := range []int{1, 2} {
		for _, workers := range []int{1, 2} {
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("procs%d/workers%d/seed%d", procs, workers, seed), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					s := newWinStream(seed, 1500)
					want := s.oracle()
					r := newRuntime(t, Config{Workers: workers, Opts: graph.OptAll})
					got := s.run(t, r)
					if err := r.Close(); err != nil {
						t.Fatalf("Close: %v", err)
					}
					checkQuiescent(t, r, "after Close")
					got.skipped = r.Obs().Counter(obs.CTasksSkipped) // exact once Close has flushed every slot
					for i := range want.ran {
						if got.ran[i] != want.ran[i] {
							t.Fatalf("task %d ran %v, oracle %v", i, got.ran[i], want.ran[i])
						}
					}
					if got.skipped != want.skipped {
						t.Fatalf("%d tasks skipped, oracle %d", got.skipped, want.skipped)
					}
					if !slices.Equal(got.failed, want.failed) {
						t.Fatalf("failing Taskwaits %v, oracle %v", got.failed, want.failed)
					}
					if !slices.Equal(got.acc, want.acc) {
						t.Fatalf("accumulators %x, oracle %x", got.acc, want.acc)
					}
					st := r.Graph().Stats()
					if procs == 1 && (st.WindowsEnded == 0 || st.TasksReused == 0) {
						t.Fatalf("at one P %d windows ended and %d tasks were reused, want some of each", st.WindowsEnded, st.TasksReused)
					}
				})
			}
		}
	}
}

// recordChain records a 3-key pipeline of n tasks whose bodies fold into
// acc, and returns the recording.
func recordChain(t *testing.T, r *Runtime, acc []uint64, n int) *Recording {
	t.Helper()
	rec, err := r.Record(func() {
		specs := make([]Spec, n)
		for i := range specs {
			i := i
			k := i % 3
			specs[i] = Spec{
				Label: fmt.Sprintf("rec%d", i),
				In:    []graph.Key{graph.Key((k + 1) % 3)},
				InOut: []graph.Key{graph.Key(k)},
				Body:  func(any) { acc[k] = mix(acc[k], acc[(k+1)%3]+uint64(i)) },
			}
		}
		r.SubmitBatch(specs)
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestWindowRecordingReplaysAfterReusedWindows: a Recording made before a
// thousand plain windows over its keys, each ended with its memory reused,
// replays as one made on a fresh runtime does, and none of its tasks was
// handed out again.
func TestWindowRecordingReplaysAfterReusedWindows(t *testing.T) {
	const n = 200
	fresh := newRuntime(t, Config{Workers: 2, Opts: graph.OptAll})
	want := make([]uint64, 3)
	rec := recordChain(t, fresh, want, n)
	if err := fresh.Replay(rec, 1, 3); err != nil {
		t.Fatal(err)
	}
	fresh.Close()

	r := newRuntime(t, Config{Workers: 2, Opts: graph.OptAll})
	defer r.Close()
	acc := make([]uint64, 3)
	rec = recordChain(t, r, acc, n)
	type ident struct {
		id    int64
		label string
	}
	var before []ident
	for _, tk := range rec.cs.Tasks() {
		before = append(before, ident{tk.ID, tk.Label})
	}
	var plain atomic.Int64
	specs := make([]Spec, 40)
	for i := range specs {
		specs[i] = Spec{Label: "plain", InOut: []graph.Key{graph.Key(i % 5)}, Body: func(any) { plain.Add(1) }}
	}
	for w := 0; w < 1000; w++ {
		r.SubmitBatch(specs)
		if err := r.Taskwait(); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.Graph().Stats(); st.WindowsEnded < 1000 || st.TasksReused == 0 {
		t.Fatalf("%d windows ended, %d tasks reused: want 1000 and some", st.WindowsEnded, st.TasksReused)
	}
	for i, tk := range rec.cs.Tasks() {
		if (ident{tk.ID, tk.Label}) != before[i] || !tk.Persistent {
			t.Fatalf("recorded position %d is now task %d %q: its chunk was handed out", i, tk.ID, tk.Label)
		}
	}
	if err := r.Replay(rec, 1, 3); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(acc, want) || plain.Load() != 40*1000 {
		t.Fatalf("replay after the windows left %x (fresh runtime %x), %d plain tasks ran", acc, want, plain.Load())
	}
}

// TestWindowFailedWriterPoisonsAfterDrain: a failed writer's poison
// reaches a later reader of its key after the graph has drained, through
// a batch's chunk boundaries and past the single-Submit stride alike, up
// to the Taskwait that reports the failure; after it the key is usable.
func TestWindowFailedWriterPoisonsAfterDrain(t *testing.T) {
	for _, batched := range []bool{true, false} {
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			r := newRuntime(t, Config{Workers: 1, Opts: graph.OptAll})
			defer r.Close()
			const key = graph.Key(1 << 20)
			r.Submit(Spec{Label: "w", Out: []graph.Key{key}, Do: func(any) error { return errPlanted }})
			for deadline := time.Now().Add(10 * time.Second); r.Graph().Live() != 0; {
				if time.Now().After(deadline) {
					t.Fatal("the failing writer never finished")
				}
				runtime.Gosched()
			}
			var readers atomic.Int64
			specs := make([]Spec, 3*batchChunk)
			for i := range specs {
				specs[i] = Spec{Label: "other", Out: []graph.Key{graph.Key(i)}, Body: func(any) {}}
			}
			// The reader comes after two chunks and two strides of others.
			specs[len(specs)-1] = Spec{Label: "r", In: []graph.Key{key}, Body: func(any) { readers.Add(1) }}
			if batched {
				r.SubmitBatch(specs)
			} else {
				for _, sp := range specs {
					r.Submit(sp)
				}
			}
			if err := r.Taskwait(); !errors.Is(err, errPlanted) {
				t.Fatalf("Taskwait returned %v, want the planted failure", err)
			}
			if readers.Load() != 0 {
				t.Fatal("a reader of the failed writer's key ran")
			}
			r.Submit(specs[len(specs)-1])
			if err := r.Taskwait(); err != nil || readers.Load() != 1 {
				t.Fatalf("after the failure was reported: Taskwait %v, reader ran %d times", err, readers.Load())
			}
		})
	}
}

// TestWindowRetainedTasksNotReused: the verifier records every task and
// the critical-path profiler keeps finished ones past their window, so
// with either no task memory is reused — under the verifier no window
// ends at all — and what they retain still reads as it did.
func TestWindowRetainedTasksNotReused(t *testing.T) {
	specs := make([]Spec, 300)
	for i := range specs {
		specs[i] = Spec{Label: fmt.Sprintf("t%d", i), InOut: []graph.Key{graph.Key(i % 7)}, Body: func(any) {}}
	}
	for _, cfg := range []Config{
		{Workers: 2, Opts: graph.OptAll, Verify: verify.Observe},
		{Workers: 2, Opts: graph.OptAll, CPath: CPathOptions{Enable: true, Retain: true}},
	} {
		r := newRuntime(t, cfg)
		for w := 0; w < 50; w++ {
			r.SubmitBatch(specs)
			if err := r.Taskwait(); err != nil {
				t.Fatal(err)
			}
		}
		st := r.Graph().Stats()
		if st.TasksReused != 0 {
			t.Fatalf("%+v: %d tasks reused", cfg, st.TasksReused)
		}
		if cfg.Verify != verify.Off {
			if st.WindowsEnded != 0 {
				t.Fatalf("%d windows ended under the verifier", st.WindowsEnded)
			}
			if rep := r.Verify(); !rep.OK() {
				t.Fatalf("audit: %v", rep)
			}
		} else {
			seen := map[int64]bool{}
			for _, tk := range r.cp.TakeRetained() {
				if seen[tk.ID] || tk.Label != fmt.Sprintf("t%d", tk.ID%int64(len(specs))) {
					t.Fatalf("retained task %d %q was overwritten", tk.ID, tk.Label)
				}
				seen[tk.ID] = true
			}
			if len(seen) != 50*len(specs) {
				t.Fatalf("%d tasks retained, want %d", len(seen), 50*len(specs))
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWindowCountsExported: the ended-window and reused-task counts reach
// /metrics and the /graphz snapshot.
func TestWindowCountsExported(t *testing.T) {
	r := newRuntime(t, Config{Workers: 1, Opts: graph.OptAll})
	defer r.Close()
	specs := make([]Spec, 2*batchChunk)
	for i := range specs {
		specs[i] = Spec{InOut: []graph.Key{graph.Key(i % 3)}, Body: func(any) {}}
	}
	for w := 0; w < 5; w++ {
		r.SubmitBatch(specs)
		if err := r.Taskwait(); err != nil {
			t.Fatal(err)
		}
	}
	d := r.Introspect().Discovery
	if d.WindowsEnded < 5 || d.TasksReused == 0 {
		t.Fatalf("snapshot: %d windows ended, %d tasks reused", d.WindowsEnded, d.TasksReused)
	}
	var b bytes.Buffer
	if err := r.Obs().WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]int64{"taskdep_windows_ended_total": d.WindowsEnded, "taskdep_tasks_reused_total": d.TasksReused} {
		if line := fmt.Sprintf("\n%s %d\n", name, v); !strings.Contains(b.String(), line) {
			t.Fatalf("/metrics has no line %q", line[1:len(line)-1])
		}
	}
}
