package rt

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"taskdep/internal/graph"
	"taskdep/internal/mpi"
	"taskdep/internal/obs"
	"taskdep/internal/trace"
)

// TestInstrumentsShareOneClock runs two in-process ranks, each with a
// detail profile shared with its communicator (nil clock), every span
// sampled and precise critical-path stamps, and checks that the four
// instruments agree on one time line: every request is posted inside
// the record of the task that posted it, and every task-body span and
// body-start stamp lies inside its task's record.
func TestInstrumentsShareOneClock(t *testing.T) {
	const (
		workers = 2
		rounds  = 6
		tol     = 1e-6 // seconds
	)
	world := mpi.NewWorld(2)
	var mu sync.Mutex
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		t.Errorf(format, args...)
	}
	world.Run(func(c *mpi.Comm) {
		prof := trace.New(workers+1, true)
		c.SetProfile(prof, nil)
		r := newRuntime(t, Config{
			Workers: workers,
			Opts:    graph.OptAll,
			Profile: prof,
			Obs:     obs.Options{Spans: true, SpanSample: 1},
			CPath:   CPathOptions{Enable: true, Precise: true, Retain: true},
		})
		peer := 1 - c.Rank()
		// posted[label] is the request the task labeled so posted.
		var postedMu sync.Mutex
		posted := map[string]int64{}
		post := func(label string, req *mpi.Request, ev *Event) {
			postedMu.Lock()
			posted[label] = req.ID()
			postedMu.Unlock()
			req.OnComplete(ev.Fulfill)
		}
		for i := 0; i < rounds; i++ {
			in := make([]float64, 8<<i)
			out := make([]float64, 8<<i)
			send, recv := fmt.Sprintf("send%d", i), fmt.Sprintf("recv%d", i)
			r.Submit(Spec{
				Label: recv, Out: []graph.Key{graph.Key(2 * i)}, Detached: true,
				DetachedBody: func(_ any, ev *Event) { post(recv, c.Irecv(in, peer, i), ev) },
			})
			r.Submit(Spec{
				Label: fmt.Sprintf("compute%d", i), Out: []graph.Key{graph.Key(2*i + 1)},
				Body: func(any) {
					for k := range out {
						out[k] = float64(k + i)
					}
				},
			})
			r.Submit(Spec{
				Label: send, In: []graph.Key{graph.Key(2*i + 1)}, Detached: true,
				DetachedBody: func(_ any, ev *Event) { post(send, c.Isend(out, peer, i), ev) },
			})
		}
		if err := r.Taskwait(); err != nil {
			fail("rank %d: Taskwait: %v", c.Rank(), err)
		}
		spans := r.Obs().DrainSpans()
		stamped := r.CPathProfiler().TakeRetained()
		if err := r.Close(); err != nil {
			fail("rank %d: Close: %v", c.Rank(), err)
		}

		byID := map[int64]trace.TaskRecord{}
		byLabel := map[string]trace.TaskRecord{}
		for _, rec := range prof.Tasks() {
			byID[rec.TaskID] = rec
			byLabel[rec.Label] = rec
		}
		inside := func(what string, at float64, rec trace.TaskRecord) {
			if at < rec.Start-tol || at > rec.End+tol {
				fail("rank %d: %s at %.9f s lies outside task %d (%s) [%.9f, %.9f]",
					c.Rank(), what, at, rec.TaskID, rec.Label, rec.Start, rec.End)
			}
		}

		reqPoster := map[int64]string{}
		for label, id := range posted {
			reqPoster[id] = label
		}
		comms := prof.Comms()
		if len(comms) != 2*rounds {
			fail("rank %d: %d comm records, want %d", c.Rank(), len(comms), 2*rounds)
		}
		for _, cr := range comms {
			rec, ok := byLabel[reqPoster[cr.ReqID]]
			if !ok {
				fail("rank %d: request %d has no posting task record", c.Rank(), cr.ReqID)
				continue
			}
			inside(fmt.Sprintf("post of request %d", cr.ReqID), cr.Post, rec)
		}

		bodies := 0
		for _, sp := range spans {
			if sp.Name != obs.SpanTaskBody {
				continue
			}
			rec, ok := byID[sp.TaskID]
			if !ok {
				fail("rank %d: body span of task %d has no record", c.Rank(), sp.TaskID)
				continue
			}
			bodies++
			inside("body span start", float64(sp.StartNs)/1e9, rec)
			inside("body span end", float64(sp.EndNs)/1e9, rec)
		}
		starts := 0
		for _, task := range stamped {
			rec, ok := byID[task.ID]
			if !ok {
				continue // redirect nodes run no body and leave no record
			}
			starts++
			inside("body-start stamp", float64(task.StartAtNs())/1e9, rec)
		}
		if bodies != 3*rounds || starts != 3*rounds {
			fail("rank %d: checked %d body spans and %d start stamps, want %d each",
				c.Rank(), bodies, starts, 3*rounds)
		}
	})
}

// TestNewRuntimeWithoutSpansAllocatesNoRings: the span rings, 4096
// events of 40 bytes per slot, are only made when Obs.Spans is on, so
// a runtime without spans costs its shards and little else.
func TestNewRuntimeWithoutSpansAllocatesNoRings(t *testing.T) {
	const limit = 32 << 10
	best := uint64(1 << 62)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := NewRuntime(Config{Workers: 4})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best >= limit {
		t.Fatalf("NewRuntime with spans off allocated %d B at 4 workers, want < %d", best, limit)
	}
}
