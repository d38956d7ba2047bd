package trace

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestBreakdownAccumulatesStates(t *testing.T) {
	p := New(2, false)
	// worker 0: idle [0,1), work [1,3), overhead [3,4)
	p.SetState(0, Idle, 0)
	p.SetState(0, Work, 1)
	p.SetState(0, Overhead, 3)
	p.SetState(0, Idle, 4)
	// worker 1: work [0,4)
	p.SetState(1, Work, 0)
	p.Finish(4)
	b := p.Breakdown()
	if !almost(b.Work, 2+4) || !almost(b.OverheadTime, 1) || !almost(b.IdleTime, 1) {
		t.Fatalf("breakdown = %+v", b)
	}
	if !almost(b.AvgWork, 3) {
		t.Fatalf("avg work = %v", b.AvgWork)
	}
}

func TestDiscoveryWindow(t *testing.T) {
	p := New(1, false)
	p.TaskCreated(1.5)
	p.TaskCreated(2.0)
	p.TaskCreated(7.25)
	b := p.Breakdown()
	if !almost(b.Discovery, 7.25-1.5) {
		t.Fatalf("discovery = %v", b.Discovery)
	}
	if b.Tasks != 3 {
		t.Fatalf("tasks = %d", b.Tasks)
	}
}

func TestDiscoveryPerIteration(t *testing.T) {
	p := New(1, false)
	p.TaskCreated(0)
	p.TaskCreated(1)
	p.IterationEnd(1.5)
	p.TaskCreated(2)
	p.TaskCreated(2.1)
	p.IterationEnd(3)
	b := p.Breakdown()
	if len(b.DiscoveryIter) != 2 {
		t.Fatalf("iters = %v", b.DiscoveryIter)
	}
	if !almost(b.DiscoveryIter[0], 1) || !almost(b.DiscoveryIter[1], 0.1) {
		t.Fatalf("per-iter discovery = %v", b.DiscoveryIter)
	}
	if !almost(b.Discovery, 1.1) {
		t.Fatalf("total discovery = %v", b.Discovery)
	}
}

func TestCommSummaryOverlap(t *testing.T) {
	p := New(2, true)
	// Two tasks execute during the request window.
	p.TaskScheduled(TaskRecord{TaskID: 1, Worker: 0, Start: 0, End: 10})
	p.TaskScheduled(TaskRecord{TaskID: 2, Worker: 1, Start: 2, End: 6})
	p.CommPost(1, Send, 1024, 1)
	p.CommComplete(1, 5)
	s := p.CommSummary()
	if !almost(s.CommTime, 4) {
		t.Fatalf("comm time = %v", s.CommTime)
	}
	// Overlapped work: worker0 contributes [1,5] = 4, worker1 [2,5] = 3.
	if !almost(s.OverlappedWork, 7) {
		t.Fatalf("overlapped = %v", s.OverlappedWork)
	}
	if !almost(s.OverlapRatio, 7.0/(2*4)) {
		t.Fatalf("ratio = %v", s.OverlapRatio)
	}
}

func TestCommSummarySkipsRecvAndIncomplete(t *testing.T) {
	p := New(1, true)
	p.TaskScheduled(TaskRecord{TaskID: 1, Worker: 0, Start: 0, End: 10})
	p.CommPost(1, Recv, 10, 0)
	p.CommComplete(1, 5)
	p.CommPost(2, Send, 10, 0) // never completes
	p.CommPost(3, Collective, 10, 2)
	p.CommComplete(3, 4)
	s := p.CommSummary()
	if s.Requests != 1 || !almost(s.CommTime, 2) || !almost(s.CollectiveTime, 2) || !almost(s.SendTime, 0) {
		t.Fatalf("summary = %+v", s)
	}
}

// TestPropertyOverlapMatchesBruteForce cross-checks the prefix-sum
// overlap computation against direct interval intersection.
func TestPropertyOverlapMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := New(4, true)
		type iv struct{ s, e float64 }
		var ivs []iv
		n := rng.Intn(20) + 1
		for i := 0; i < n; i++ {
			s := rng.Float64() * 100
			e := s + rng.Float64()*20
			ivs = append(ivs, iv{s, e})
			p.TaskScheduled(TaskRecord{TaskID: int64(i), Worker: rng.Intn(4), Start: s, End: e})
		}
		var reqs []iv
		m := rng.Intn(8) + 1
		for j := 0; j < m; j++ {
			s := rng.Float64() * 110
			e := s + rng.Float64()*30
			reqs = append(reqs, iv{s, e})
			p.CommPost(int64(j), Send, 1, s)
			p.CommComplete(int64(j), e)
		}
		want := 0.0
		for _, r := range reqs {
			for _, v := range ivs {
				lo := math.Max(r.s, v.s)
				hi := math.Min(r.e, v.e)
				if hi > lo {
					want += hi - lo
				}
			}
		}
		got := p.CommSummary().OverlappedWork
		return math.Abs(got-want) < 1e-6*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGanttASCII(t *testing.T) {
	g := &Gantt{Tasks: []TaskRecord{
		{TaskID: 1, Label: "a", Worker: 0, Iter: 0, Start: 0, End: 1},
		{TaskID: 2, Label: "b", Worker: 1, Iter: 1, Start: 0.5, End: 2},
	}}
	var sb strings.Builder
	if err := g.WriteASCII(&sb, 40); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "worker  0") || !strings.Contains(out, "worker  1") {
		t.Fatalf("missing rows:\n%s", out)
	}
	if !strings.Contains(out, "0") || !strings.Contains(out, "1") {
		t.Fatalf("missing glyphs:\n%s", out)
	}
}

func TestGanttSVG(t *testing.T) {
	g := &Gantt{Tasks: []TaskRecord{
		{TaskID: 1, Label: "a", Worker: 0, Iter: 0, Start: 0, End: 1},
		{TaskID: 2, Label: "b", Worker: 2, Iter: 3, Start: 0.5, End: 2},
	}}
	var sb strings.Builder
	if err := g.WriteSVG(&sb, 500, 16); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "<svg") || strings.Count(out, "<rect") != 2 {
		t.Fatalf("bad svg:\n%s", out)
	}
}

func TestGanttClipWindow(t *testing.T) {
	g := &Gantt{
		Tasks: []TaskRecord{
			{TaskID: 1, Worker: 0, Start: 0, End: 1},
			{TaskID: 2, Worker: 0, Start: 5, End: 6},
		},
		T0: 4, T1: 7,
	}
	_, _, _, recs := g.bounds()
	if len(recs) != 1 || recs[0].TaskID != 2 {
		t.Fatalf("clip failed: %+v", recs)
	}
}

func TestWorkAtMonotone(t *testing.T) {
	p := New(1, true)
	p.TaskScheduled(TaskRecord{Start: 1, End: 3})
	p.TaskScheduled(TaskRecord{Start: 2, End: 5})
	// Probe via CommSummary with point requests at increasing times.
	prev := -1.0
	for i := 0; i <= 60; i++ {
		tm := float64(i) * 0.1
		q := New(1, true)
		q.TaskScheduled(TaskRecord{Start: 1, End: 3})
		q.TaskScheduled(TaskRecord{Start: 2, End: 5})
		q.CommPost(1, Send, 1, 0)
		q.CommComplete(1, tm)
		w := q.CommSummary().OverlappedWork
		if w < prev-1e-12 {
			t.Fatalf("workAt not monotone at t=%v: %v < %v", tm, w, prev)
		}
		prev = w
	}
	// Total work must equal sum of durations.
	if !almost(prev, 2+3) {
		t.Fatalf("total work = %v, want 5", prev)
	}
}

func TestJSONExportRoundTrip(t *testing.T) {
	p := New(2, true)
	p.SetState(0, Work, 0)
	p.SetState(0, Idle, 2)
	p.TaskCreated(0.5)
	p.TaskScheduled(TaskRecord{TaskID: 1, Label: "k", Worker: 0, Start: 0, End: 2})
	p.CommPost(1, Send, 64, 0.1)
	p.CommComplete(1, 0.9)
	p.Finish(3)

	var sb strings.Builder
	if err := p.WriteJSON(&sb, true); err != nil {
		t.Fatal(err)
	}
	var e Export
	if err := json.Unmarshal([]byte(sb.String()), &e); err != nil {
		t.Fatal(err)
	}
	if !almost(e.Breakdown.Work, 2) || e.Breakdown.Tasks != 1 {
		t.Fatalf("breakdown = %+v", e.Breakdown)
	}
	if len(e.Tasks) != 1 || e.Tasks[0].Label != "k" {
		t.Fatalf("tasks = %+v", e.Tasks)
	}
	if len(e.Comms) != 1 || !almost(e.Comm.CommTime, 0.8) {
		t.Fatalf("comm = %+v / %+v", e.Comms, e.Comm)
	}
	// Without records: compact.
	var sb2 strings.Builder
	if err := p.WriteJSON(&sb2, false); err != nil {
		t.Fatal(err)
	}
	var e2 Export
	if err := json.Unmarshal([]byte(sb2.String()), &e2); err != nil {
		t.Fatal(err)
	}
	if len(e2.Tasks) != 0 {
		t.Fatalf("records leaked into compact export")
	}
}
