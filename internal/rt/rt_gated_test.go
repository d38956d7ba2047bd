package rt

// Gated replay: a plain or Adaptive persistent region re-runs its body
// against the compiled recording, each Submit dropping the producer's
// hold on the next recorded task. These tests pin what that path must
// get right beyond what the replay-mode differential test compares:
// chain settlement around detached tasks, Taskwait inside a replayed
// body, the throttle windows, and the /graphz view of an iteration.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"taskdep/internal/graph"
	"taskdep/internal/obs"
)

// finishes runs f on its own goroutine — the producer is whichever
// goroutine calls into the runtime, one at a time — and fails the test
// if it has not returned in time: the bugs these tests guard against are
// hangs.
func finishes(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: still running after 30s", what)
	}
}

// TestGatedChainEndsOnDetached replays a region in which every chain of
// tasks ends on a detached one. A detached task retires through its
// event, not through the executor that ran its body, so the executor's
// chain ends without a finish of its own — however the event went: armed
// and fulfilled from another goroutine, fulfilled by the body itself, or
// claimed by a skip in a failed task's cone — and the finishes it
// deferred along the chain must be settled all the same, or the
// iteration's barrier never opens.
func TestGatedChainEndsOnDetached(t *testing.T) {
	const chains, links, iters = 6, 3, 12
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			r := newRuntime(t, Config{Workers: workers, Opts: graph.OptAll})
			// Events armed by their bodies and fulfilled from outside the
			// worker pool, as an MPI progress engine would.
			armed := make(chan *Event, chains)
			var fulfiller sync.WaitGroup
			fulfiller.Add(1)
			go func() {
				defer fulfiller.Done()
				for ev := range armed {
					ev.Fulfill()
				}
			}()
			var ran, tails atomic.Int64
			var failAt atomic.Int64 // iteration whose chain 0 fails at its head
			failAt.Store(-1)
			body := func(iter int) {
				for c := 0; c < chains; c++ {
					key := []graph.Key{graph.Key(c + 1)}
					for l := 0; l < links; l++ {
						head := c == 0 && l == 0
						r.Submit(Spec{Label: "link", InOut: key, FirstPrivate: iter, Do: func(fp any) error {
							if head && int64(fp.(int)) == failAt.Load() {
								return fmt.Errorf("planted at iteration %d", fp)
							}
							ran.Add(1)
							return nil
						}})
					}
					inline := c%2 == 1
					r.Submit(Spec{Label: "tail", InOut: key, Detached: true,
						DetachedBody: func(_ any, ev *Event) {
							tails.Add(1)
							if inline {
								ev.Fulfill()
							} else {
								armed <- ev
							}
						}})
				}
			}
			finishes(t, "clean region", func() {
				if err := r.Persistent(iters, body); err != nil {
					t.Errorf("Persistent: %v", err)
				}
			})
			if got, want := ran.Load(), int64(chains*links*iters); got != want {
				t.Fatalf("links ran %d times, want %d", got, want)
			}
			if got, want := tails.Load(), int64(chains*iters); got != want {
				t.Fatalf("detached bodies ran %d times, want %d", got, want)
			}
			if got := r.Obs().Counter(obs.CReplayCompiled); got != iters-1 {
				t.Fatalf("compiled iterations = %d, want %d", got, iters-1)
			}
			// A failure at a chain's head: the rest of the chain, detached
			// tail included, is skipped — the tail's event claimed by the
			// skip — and the region ends on that iteration's barrier.
			const failIter = 2
			failAt.Store(failIter)
			ran.Store(0)
			tails.Store(0)
			finishes(t, "failing region", func() {
				if err := r.Persistent(iters, body); err == nil {
					t.Errorf("Persistent with a planted failure returned nil")
				}
			})
			if got, want := tails.Load(), int64(chains*(failIter+1)-1); got != want {
				t.Fatalf("detached bodies ran %d times around the failure, want %d", got, want)
			}
			close(armed)
			fulfiller.Wait()
			if err := r.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if live, ready := r.Graph().Live(), r.Graph().ReadyCount(); live != 0 || ready != 0 {
				t.Fatalf("gauges after Close: live %d ready %d", live, ready)
			}
		})
	}
}

// TestGatedTaskwaitInsideBody: a body that waits between two submissions
// — or as its last call — waits, in a replayed iteration as in the
// recorded one, for what it has submitted so far. (Before replay ran on
// the compiled schedule the whole recording was charged to the live
// gauge up front, and the first replayed wait never returned.)
func TestGatedTaskwaitInsideBody(t *testing.T) {
	const iters = 3
	for _, waitLast := range []bool{false, true} {
		t.Run(fmt.Sprintf("waitLast=%v", waitLast), func(t *testing.T) {
			r := newRuntime(t, Config{Workers: 2, Opts: graph.OptAll})
			defer r.Close()
			var a, b [iters]int // written by task bodies, read by the body after a wait
			body := func(iter int) {
				r.Submit(Spec{Label: "a", InOut: []graph.Key{1}, FirstPrivate: iter,
					Body: func(fp any) { a[fp.(int)]++ }})
				// An inoutset group the wait closes, so its redirect node
				// has to finish inside the wait as well.
				r.Submit(Spec{Label: "s", InOutSet: []graph.Key{2}, Body: func(any) {}})
				if !waitLast {
					if err := r.Taskwait(); err != nil {
						t.Errorf("iteration %d: Taskwait inside the body: %v", iter, err)
					}
					if a[iter] != 1 {
						t.Errorf("iteration %d: wait returned with a unfinished (%d runs)", iter, a[iter])
					}
				}
				r.Submit(Spec{Label: "b", InOut: []graph.Key{1, 2}, FirstPrivate: iter,
					Body: func(fp any) { b[fp.(int)]++ }})
				if waitLast {
					if err := r.Taskwait(); err != nil {
						t.Errorf("iteration %d: Taskwait ending the body: %v", iter, err)
					}
					if a[iter] != 1 || b[iter] != 1 {
						t.Errorf("iteration %d: wait returned with a, b = %d, %d runs", iter, a[iter], b[iter])
					}
				}
			}
			finishes(t, "region", func() {
				if err := r.Persistent(iters, body); err != nil {
					t.Errorf("Persistent: %v", err)
				}
			})
			for it := 0; it < iters; it++ {
				if a[it] != 1 || b[it] != 1 {
					t.Fatalf("iteration %d: a, b ran %d, %d times", it, a[it], b[it])
				}
			}
			// Outside a region Taskwait is what it was: it drains the graph.
			ran := false
			r.Submit(Spec{Label: "after", InOut: []graph.Key{1}, Body: func(any) { ran = true }})
			if err := r.Taskwait(); err != nil || !ran {
				t.Fatalf("Taskwait outside a region: err %v, ran %v", err, ran)
			}
			if live := r.Graph().Live(); live != 0 {
				t.Fatalf("live = %d after Taskwait", live)
			}
		})
	}
}

// TestGatedThrottle: the throttle windows bound discovery, and a replayed
// iteration discovers nothing, so a region larger than the window must
// replay without stalling — the producer used to park in its first
// replayed Submit, the whole recording being live and nothing released.
func TestGatedThrottle(t *testing.T) {
	const tasks, iters = 64, 4
	run := func(t *testing.T, cfg Config) {
		cfg.Workers, cfg.Opts = 2, graph.OptAll
		r := newRuntime(t, cfg)
		var ran atomic.Int64
		finishes(t, "region", func() {
			err := r.Persistent(iters, func(int) {
				for i := 0; i < tasks; i++ {
					r.Submit(Spec{InOut: []graph.Key{graph.Key(i % 8)}, Body: func(any) { ran.Add(1) }})
				}
			})
			if err != nil {
				t.Errorf("Persistent: %v", err)
			}
		})
		if err := r.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if got := ran.Load(); got != tasks*iters {
			t.Fatalf("ran %d of %d", got, tasks*iters)
		}
		if got := r.Obs().Counter(obs.CReplayCompiled); got != iters-1 {
			t.Fatalf("compiled iterations = %d, want %d", got, iters-1)
		}
	}
	for _, total := range []int64{1, 8} {
		t.Run(fmt.Sprintf("total%d", total), func(t *testing.T) {
			run(t, Config{ThrottleTotal: total})
		})
	}
	t.Run("ready4total4", func(t *testing.T) {
		run(t, Config{ThrottleReady: 4, ThrottleTotal: 4})
	})
}

// TestGatedGraphzReplay reads /graphz from inside a task of a replayed
// iteration: live is the whole recording and ready is zero for as long
// as the schedule runs, so the snapshot's replay object is what says how
// far the iteration is.
func TestGatedGraphzReplay(t *testing.T) {
	r := newRuntime(t, Config{Workers: 1, Opts: graph.OptAll, Obs: obs.Options{Addr: "127.0.0.1:0"}})
	defer r.Close()
	url := "http://" + r.ObsAddr() + "/graphz"
	var snaps []Snapshot
	body := func(iter int) {
		// a -> b, and a -> c -> b: the edge a -> b orders nothing.
		r.Submit(Spec{Label: "a", Out: []graph.Key{1, 2}, Body: func(any) {}})
		r.Submit(Spec{Label: "c", In: []graph.Key{1}, Out: []graph.Key{3}, FirstPrivate: iter, Do: func(fp any) error {
			if fp.(int) == 0 {
				return nil // the recording iteration: no schedule yet
			}
			resp, err := http.Get(url)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			var s Snapshot
			if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
				return err
			}
			snaps = append(snaps, s) // ordered by the iteration barrier
			return nil
		}})
		// The body holds b back until c has looked.
		if iter > 0 {
			if err := r.Taskwait(); err != nil {
				t.Errorf("Taskwait: %v", err)
			}
		}
		r.Submit(Spec{Label: "b", In: []graph.Key{2, 3}, Body: func(any) {}})
	}
	finishes(t, "region", func() {
		if err := r.Persistent(3, body); err != nil {
			t.Errorf("Persistent: %v", err)
		}
	})
	if len(snaps) != 2 {
		t.Fatalf("%d snapshots from 2 replayed iterations", len(snaps))
	}
	for _, s := range snaps {
		rp := s.Replay
		if rp == nil {
			t.Fatalf("no replay object mid-iteration: %+v", s)
		}
		if rp.Tasks != 3 || rp.Released != 2 {
			t.Fatalf("replay = %+v, want 3 tasks, 2 released", *rp)
		}
		if rp.EdgesRecorded != 3 || rp.Edges != 2 {
			t.Fatalf("replay edges = %d of %d recorded, want 2 of 3", rp.Edges, rp.EdgesRecorded)
		}
		// a has finished, c is running, b is not yet released. (a is
		// still live if c's executor chained on from it: a chain's
		// finishes leave the gauge at its end.)
		if s.Live < 2 || s.Live > 3 || s.Ready != 0 {
			t.Fatalf("live %d ready %d mid-iteration, want 2 or 3 and 0", s.Live, s.Ready)
		}
	}
	if s := r.Introspect(); s.Replay != nil {
		t.Fatalf("replay object outside a region: %+v", *s.Replay)
	}
}
