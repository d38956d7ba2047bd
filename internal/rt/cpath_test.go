package rt

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"taskdep/internal/cpath"
	"taskdep/internal/graph"
	"taskdep/internal/obs"
)

// TestCriticalPathEndpoint scrapes /criticalpath over real loopback
// HTTP after a drained taskwait: the JSON payload must carry the last
// window's report and the text rendering must be servable.
func TestCriticalPathEndpoint(t *testing.T) {
	const n = 8
	r := newRuntime(t, Config{
		Workers: 2,
		Obs:     obs.Options{Addr: "127.0.0.1:0"},
		CPath:   CPathOptions{Enable: true, Precise: true},
	})
	defer r.Close()
	// The head waits until every link is submitted: an edge from a
	// predecessor that has already finished is pruned at discovery, and
	// the chain's fold would stop there.
	submitted := make(chan struct{})
	for i := 0; i < n; i++ {
		body := func(any) {}
		if i == 0 {
			body = func(any) { <-submitted }
		}
		r.Submit(Spec{
			Label: fmt.Sprintf("link%d", i),
			InOut: []graph.Key{graph.Key(1)},
			Body:  body,
		})
	}
	close(submitted)
	if err := r.Taskwait(); err != nil {
		t.Fatalf("Taskwait: %v", err)
	}
	base := "http://" + r.ObsAddr()

	resp, err := http.Get(base + "/criticalpath")
	if err != nil {
		t.Fatalf("GET /criticalpath: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/criticalpath status %d", resp.StatusCode)
	}
	var st struct {
		Enabled bool          `json:"enabled"`
		Report  *cpath.Report `json:"report"`
		Workers int           `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !st.Enabled || st.Workers != 2 {
		t.Fatalf("status: %+v", st)
	}
	if st.Report == nil || st.Report.Tasks != n {
		t.Fatalf("report: %+v", st.Report)
	}
	// A strict chain: every task is on the critical path.
	if st.Report.CPLen != n || st.Report.TInfNs <= 0 {
		t.Fatalf("chain cp-len %d (want %d), Tinf %d", st.Report.CPLen, n, st.Report.TInfNs)
	}

	tresp, err := http.Get(base + "/criticalpath?format=text")
	if err != nil {
		t.Fatalf("GET text: %v", err)
	}
	defer tresp.Body.Close()
	body, _ := io.ReadAll(tresp.Body)
	if !strings.Contains(string(body), "Tinf") || !strings.Contains(string(body), "now:") {
		t.Fatalf("text rendering:\n%s", body)
	}
}

// TestCriticalPathEndpointDisabled: without CPath.Enable the route
// must 404, so scrapers can tell "off" from "no window yet".
func TestCriticalPathEndpointDisabled(t *testing.T) {
	r := newRuntime(t, Config{Workers: 1, Obs: obs.Options{Addr: "127.0.0.1:0"}})
	defer r.Close()
	resp, err := http.Get("http://" + r.ObsAddr() + "/criticalpath")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled /criticalpath status %d, want 404", resp.StatusCode)
	}
	if r.CriticalPath() != nil || r.CPathProfiler() != nil {
		t.Fatalf("accessors non-nil with profiling off")
	}
}

// TestCPathAcrossFrozenReplay runs a strict chain through the compiled
// frozen-replay path at several region lengths: every replay iteration
// must publish its own window whose critical path covers the whole
// chain and carries ZERO discovery weight — replay's defining property
// (the graph is re-executed, never re-discovered).
func TestCPathAcrossFrozenReplay(t *testing.T) {
	for _, n := range []int{1, 5, 32} {
		t.Run(fmt.Sprintf("chain%d", n), func(t *testing.T) {
			const iters = 4
			r := newRuntime(t, Config{
				Workers: 2, Opts: graph.OptAll,
				CPath: CPathOptions{Enable: true, Precise: true},
			})
			defer r.Close()
			ran := 0
			body := func(int) {
				for i := 0; i < n; i++ {
					r.Submit(Spec{
						Label: fmt.Sprintf("link%d", i),
						InOut: []graph.Key{graph.Key(1)},
						Body:  func(any) { ran++ }, // chain: serial, race-free
					})
				}
			}
			if err := r.Persistent(iters, body, Frozen()); err != nil {
				t.Fatalf("Persistent: %v", err)
			}
			if ran != n*iters {
				t.Fatalf("bodies ran %d times, want %d", ran, n*iters)
			}
			rep := r.CriticalPath()
			if rep == nil {
				t.Fatalf("no report after frozen replay")
			}
			// The last window is the final replay iteration, exactly.
			if rep.Tasks != int64(n) {
				t.Fatalf("final window covered %d tasks, want %d", rep.Tasks, n)
			}
			if rep.CPLen != n {
				t.Fatalf("replay cp-len %d, want %d", rep.CPLen, n)
			}
			if rep.CPDiscNs != 0 || rep.SumDiscNs != 0 {
				t.Fatalf("replay window carries discovery weight: cp %d ns, sum %d ns",
					rep.CPDiscNs, rep.SumDiscNs)
			}
			if rep.TInfNs <= 0 || rep.TInfNs != rep.CPWaitNs+rep.CPExecNs {
				t.Fatalf("replay span: Tinf %d = wait %d + exec %d expected",
					rep.TInfNs, rep.CPWaitNs, rep.CPExecNs)
			}
		})
	}
}

// TestCPathOnReducedSchedule: the compiled schedule folds critical paths
// along the edges it kept, the exact oracle along every declared one. An
// implied edge's source lies on a kept path to the same target, so its
// path is never the longest: T-infinity must agree to the nanosecond on
// schedules the reduction cut — 8 800 tasks among them — and on one too
// large for it.
func TestCPathOnReducedSchedule(t *testing.T) {
	spin := func(any) {
		for i := 0; i < 200; i++ {
			runtime.Gosched()
		}
	}
	// Per chunk a chain of four and the anti-dependence from its head to
	// its tail, which the chain implies: the reduction drops one edge a
	// chunk.
	chunked := func(chunks int) func(r *Runtime) {
		return func(r *Runtime) {
			for c := 0; c < chunks; c++ {
				k := graph.Key(10 * (c + 1))
				r.Submit(Spec{Label: "force", In: []graph.Key{k}, Out: []graph.Key{k + 1}, Body: spin})
				r.Submit(Spec{Label: "vel", In: []graph.Key{k + 1}, Out: []graph.Key{k + 2}, Body: func(any) {}})
				r.Submit(Spec{Label: "pos", In: []graph.Key{k + 2}, Out: []graph.Key{k + 3}, Body: func(any) {}})
				r.Submit(Spec{Label: "eos", In: []graph.Key{k + 3}, Out: []graph.Key{k}, Body: func(any) {}})
			}
		}
	}
	// Two chains of 4 200, submitted level by level, each with the same
	// implied head-to-tail edge: a chain's elements sit two positions
	// apart in every topological order, so its reachability sets keep a
	// run per level and outgrow the reduction's scratch budget.
	const links = 4200
	chains := func(r *Runtime) {
		for l := 0; l < links; l++ {
			for c := 0; c < 2; c++ {
				link, anti := graph.Key(10*(c+1)), graph.Key(10*(c+1)+1)
				switch l {
				case 0:
					r.Submit(Spec{Label: "head", In: []graph.Key{anti}, Out: []graph.Key{link}, Body: spin})
				case links - 1:
					r.Submit(Spec{Label: "tail", InOut: []graph.Key{link}, Out: []graph.Key{anti}, Body: func(any) {}})
				default:
					r.Submit(Spec{Label: "link", InOut: []graph.Key{link}, Body: func(any) {}})
				}
			}
		}
	}
	for _, tc := range []struct {
		name            string
		body            func(r *Runtime)
		tasks, recorded int
		reduced         bool
	}{
		{"chunks64", chunked(64), 4 * 64, 4 * 64, true},
		{"chunks2200", chunked(2200), 4 * 2200, 4 * 2200, true},
		{"chains2x4200", chains, 2 * links, 2 * links, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRuntime(t, Config{
				Workers: 2, Opts: graph.OptAll,
				CPath: CPathOptions{Enable: true, Precise: true},
			})
			defer r.Close()
			rec, err := r.Record(func() { tc.body(r) })
			if err != nil {
				t.Fatalf("Record: %v", err)
			}
			if kept, recorded := rec.cs.Edges(); tc.reduced != (kept < recorded) || recorded != tc.recorded {
				t.Fatalf("schedule keeps %d of %d edges", kept, recorded)
			}
			for it := 1; it <= 3; it++ {
				if err := r.Replay(rec, it, 1); err != nil {
					t.Fatalf("Replay: %v", err)
				}
				rep := r.CriticalPath()
				exact, err := cpath.ExactCP(rec.cs.Tasks())
				if err != nil {
					t.Fatalf("ExactCP: %v", err)
				}
				if rep == nil || rep.Tasks != int64(tc.tasks) {
					t.Fatalf("iteration %d: report %+v", it, rep)
				}
				if rep.TInfNs != exact.TInfNs || rep.TInfNs <= 0 {
					t.Fatalf("iteration %d: online T-infinity %d ns, exact %d ns", it, rep.TInfNs, exact.TInfNs)
				}
			}
		})
	}
}
