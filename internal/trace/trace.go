package trace

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// WorkerState classifies what a worker is doing, for the breakdown.
type WorkerState int

const (
	// Idle: outside a task body with no ready task available.
	Idle WorkerState = iota
	// Overhead: outside a task body while ready tasks exist (scheduling,
	// stealing, dependence bookkeeping).
	Overhead
	// Work: inside a task body.
	Work
	// Skip: draining aborted or poisoned tasks — terminal transitions
	// whose bodies never ran (the failure-domain time bucket).
	Skip
)

// numWorkerStates sizes the per-worker accumulator array.
const numWorkerStates = 4

func (s WorkerState) String() string {
	switch s {
	case Idle:
		return "idle"
	case Overhead:
		return "overhead"
	case Work:
		return "work"
	case Skip:
		return "skip"
	}
	return fmt.Sprintf("WorkerState(%d)", int(s))
}

// TaskRecord is one scheduled task instance, enough to draw a Gantt box.
type TaskRecord struct {
	TaskID int64
	Label  string
	Worker int
	Iter   int
	Start  float64
	End    float64
	// Critical marks tasks on the window's critical path (set by
	// MarkCritical from a cpath report); the Gantt renderers and the
	// Chrome export draw them distinctly.
	Critical bool `json:",omitempty"`
}

// MarkCritical flags every record whose TaskID appears in ids — the
// critical-path overlay bridge: feed it the ID set of a
// cpath.Report.Path and the renderers highlight the span-defining
// chain. Returns how many records were marked.
func MarkCritical(recs []TaskRecord, ids map[int64]bool) int {
	n := 0
	for i := range recs {
		if ids[recs[i].TaskID] {
			recs[i].Critical = true
			n++
		}
	}
	return n
}

// CommKind distinguishes point-to-point sends from collectives, matching
// the paper's send+collective profiling scope.
type CommKind int

const (
	// Send is a point-to-point send request (MPI_Isend/MPI_Start).
	Send CommKind = iota
	// Recv is a point-to-point receive (profiled but excluded from the
	// paper's communication-time metric).
	Recv
	// Collective is an MPI_Iallreduce-style operation.
	Collective
)

func (k CommKind) String() string {
	switch k {
	case Send:
		return "send"
	case Recv:
		return "recv"
	case Collective:
		return "collective"
	}
	return fmt.Sprintf("CommKind(%d)", int(k))
}

// CommRecord is one profiled request: c(r) = Complete-Post.
type CommRecord struct {
	ReqID    int64
	Kind     CommKind
	Bytes    int
	Post     float64
	Complete float64
}

type workerClock struct {
	state   WorkerState
	since   float64
	accum   [numWorkerStates]float64
	started bool
}

// taskShard is one recording slot's task-box list. Each worker (and
// the producer-as-consumer slot) appends to its own shard under its
// own mutex, so enabling detail profiling no longer funnels every
// completion through one global lock; readers merge on demand. The
// pad keeps neighbouring shard mutexes off one cache line.
type taskShard struct {
	mu    sync.Mutex
	tasks []TaskRecord
	_     [64]byte
}

// Profile accumulates executor events. Worker-state transitions must come
// from the owning worker (or a single-threaded simulator); task records
// go to per-worker shards locked independently, and discovery/comm
// records take their own (producer- respectively engine-side) locks —
// nothing serializes the workers against each other.
type Profile struct {
	// epoch is the time origin of every stamp the runtime instruments
	// take: Now measures from it, and a runtime given this profile
	// measures its spans and critical-path stamps from it too.
	epoch    time.Time
	nWorkers int
	// workers has nWorkers+1 clocks and shards has nWorkers+2 task
	// shards: callers address slots 0..nWorkers-1 (rt additionally uses
	// slot nWorkers for the producer-as-consumer when it was created
	// with Workers+1 slots), and the trailing entry of each absorbs any
	// out-of-range slot — producer-as-consumer IDs against a profile
	// sized without the +1, or -1 contexts — instead of panicking or
	// aliasing worker 0.
	workers []workerClock
	shards  []taskShard

	detail bool // record per-task boxes

	commMu sync.Mutex
	comms  []CommRecord
	open   map[int64]int // reqID -> index into comms

	// discovery window (first to last task creation), per the paper.
	// Producer-side state under its own lock.
	discMu             sync.Mutex
	createCount        int64
	firstCreate        float64
	lastCreate         float64
	discoveryAccum     float64 // explicit per-iteration accumulation
	iterMarks          []float64
	discoveryPerIter   []float64
	currentIterStart   float64
	currentIterStarted bool
}

// New creates a profile for nWorkers workers. detail enables per-task
// records (needed for Gantt charts and overlap computation). Its epoch
// is the moment New runs.
func New(nWorkers int, detail bool) *Profile {
	return &Profile{
		epoch:    time.Now(),
		nWorkers: nWorkers,
		workers:  make([]workerClock, nWorkers+1),
		shards:   make([]taskShard, nWorkers+2),
		open:     make(map[int64]int),
		detail:   detail,
	}
}

// NumWorkers returns the worker count the profile was built for.
func (p *Profile) NumWorkers() int { return p.nWorkers }

// Epoch returns the profile's time origin.
func (p *Profile) Epoch() time.Time { return p.epoch }

// Now returns the seconds since the epoch (monotonic): the clock the
// runtime stamps worker states and task records with, and the one a
// communicator attached with a nil clock stamps requests with.
func (p *Profile) Now() float64 { return time.Since(p.epoch).Seconds() }

// clockFor maps a slot to its state clock; out-of-range slots share
// the spill clock after the addressable ones.
func (p *Profile) clockFor(w int) *workerClock {
	if w >= 0 && w < p.nWorkers {
		return &p.workers[w]
	}
	return &p.workers[p.nWorkers]
}

// shardFor maps a slot to its task shard; out-of-range slots share the
// trailing spill shard (mutex-guarded, so concurrent spillers are safe).
func (p *Profile) shardFor(w int) *taskShard {
	if w >= 0 && w < len(p.shards)-1 {
		return &p.shards[w]
	}
	return &p.shards[len(p.shards)-1]
}

// SetState transitions worker w to state at time now, accumulating the
// duration spent in the previous state. Owner-only per slot.
func (p *Profile) SetState(w int, state WorkerState, now float64) {
	wc := p.clockFor(w)
	if wc.started {
		d := now - wc.since
		if d > 0 {
			wc.accum[wc.state] += d
		}
	}
	wc.state = state
	wc.since = now
	wc.started = true
}

// Finish closes every worker's open interval at time now.
func (p *Profile) Finish(now float64) {
	for w := range p.workers {
		p.SetState(w, p.workers[w].state, now)
	}
}

// TaskCreated records a discovery event (task creation) at time now.
func (p *Profile) TaskCreated(now float64) {
	p.discMu.Lock()
	if p.createCount == 0 {
		p.firstCreate = now
	}
	p.lastCreate = now
	p.createCount++
	if !p.currentIterStarted {
		p.currentIterStart = now
		p.currentIterStarted = true
	}
	p.discMu.Unlock()
}

// IterationEnd marks the end of a discovery iteration at time now,
// recording that iteration's discovery span (first creation in the
// iteration to now is an overestimate; we use last creation).
func (p *Profile) IterationEnd(now float64) {
	p.discMu.Lock()
	if p.currentIterStarted {
		p.discoveryPerIter = append(p.discoveryPerIter, p.lastCreate-p.currentIterStart)
		p.discoveryAccum += p.lastCreate - p.currentIterStart
		p.currentIterStarted = false
	}
	p.iterMarks = append(p.iterMarks, now)
	p.discMu.Unlock()
}

// TaskScheduled records a task execution box on the executing slot's
// shard (rec.Worker), contending only with readers.
func (p *Profile) TaskScheduled(rec TaskRecord) {
	if !p.detail {
		return
	}
	sh := p.shardFor(rec.Worker)
	sh.mu.Lock()
	sh.tasks = append(sh.tasks, rec)
	sh.mu.Unlock()
}

// CommPost records the posting of request reqID at time now.
func (p *Profile) CommPost(reqID int64, kind CommKind, bytes int, now float64) {
	p.commMu.Lock()
	p.open[reqID] = len(p.comms)
	p.comms = append(p.comms, CommRecord{ReqID: reqID, Kind: kind, Bytes: bytes, Post: now, Complete: -1})
	p.commMu.Unlock()
}

// CommComplete records successful completion (MPI_Test/Wait success).
func (p *Profile) CommComplete(reqID int64, now float64) {
	p.commMu.Lock()
	if i, ok := p.open[reqID]; ok {
		p.comms[i].Complete = now
		delete(p.open, reqID)
	}
	p.commMu.Unlock()
}

// Breakdown is the per-run summary in the units of the executor clock
// (seconds). Cumulated values sum over workers; Avg* divide by workers.
type Breakdown struct {
	Workers      int
	Work         float64
	OverheadTime float64
	IdleTime     float64
	// SkipTime is the time spent draining aborted/poisoned tasks whose
	// bodies never ran (zero outside failure scenarios).
	SkipTime      float64
	AvgWork       float64
	AvgOverhead   float64
	AvgIdle       float64
	Discovery     float64 // first-to-last creation span
	DiscoveryIter []float64
	Tasks         int64
}

// Breakdown computes the time breakdown.
func (p *Profile) Breakdown() Breakdown {
	var b Breakdown
	b.Workers = p.nWorkers
	for w := range p.workers {
		b.Work += p.workers[w].accum[Work]
		b.OverheadTime += p.workers[w].accum[Overhead]
		b.IdleTime += p.workers[w].accum[Idle]
		b.SkipTime += p.workers[w].accum[Skip]
	}
	if p.nWorkers > 0 {
		b.AvgWork = b.Work / float64(p.nWorkers)
		b.AvgOverhead = b.OverheadTime / float64(p.nWorkers)
		b.AvgIdle = b.IdleTime / float64(p.nWorkers)
	}
	p.discMu.Lock()
	if p.discoveryAccum > 0 {
		b.Discovery = p.discoveryAccum
	} else if p.createCount > 0 {
		b.Discovery = p.lastCreate - p.firstCreate
	}
	b.DiscoveryIter = append([]float64(nil), p.discoveryPerIter...)
	b.Tasks = p.createCount
	p.discMu.Unlock()
	return b
}

// Tasks returns the recorded task boxes, merged across the per-worker
// shards into a deterministic order (start time, then task ID).
func (p *Profile) Tasks() []TaskRecord {
	var out []TaskRecord
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		out = append(out, sh.tasks...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].TaskID < out[j].TaskID
	})
	return out
}

// Comms returns a copy of the communication records.
func (p *Profile) Comms() []CommRecord {
	p.commMu.Lock()
	defer p.commMu.Unlock()
	out := make([]CommRecord, len(p.comms))
	copy(out, p.comms)
	return out
}

// CommSummary is the paper's communication metric triple (§4.1): C is the
// summed communication time of send and collective requests, W the summed
// work overlapping each request on any local core, and the overlap ratio
// r = W / (nThreads * C).
type CommSummary struct {
	CommTime       float64
	OverlappedWork float64
	OverlapRatio   float64
	SendTime       float64
	CollectiveTime float64
	Requests       int
}

// CommSummary computes the communication metrics from the recorded
// requests and task boxes. Only completed Send and Collective requests
// are considered, matching the paper's methodology.
func (p *Profile) CommSummary() CommSummary {
	comms := p.Comms()
	tasks := p.Tasks()

	// Build a prefix-sum of work time over merged task intervals so
	// ov(r) = W(complete) - W(post) is O(log n) per request.
	type ev struct {
		t float64
		d int // +1 start, -1 end
	}
	evs := make([]ev, 0, 2*len(tasks))
	for _, tr := range tasks {
		evs = append(evs, ev{tr.Start, 1}, ev{tr.End, -1})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].t < evs[j].t })
	// Collapse to distinct times; level[i] is the number of concurrently
	// executing tasks on [times[i], times[i+1]); cum[i] is the total
	// work time accumulated up to times[i].
	var times []float64
	var level []int
	cur := 0
	for i := 0; i < len(evs); {
		t := evs[i].t
		for i < len(evs) && evs[i].t == t {
			cur += evs[i].d
			i++
		}
		times = append(times, t)
		level = append(level, cur)
	}
	cum := make([]float64, len(times))
	for i := 1; i < len(times); i++ {
		cum[i] = cum[i-1] + float64(level[i-1])*(times[i]-times[i-1])
	}
	workAt := func(t float64) float64 {
		n := len(times)
		if n == 0 || t <= times[0] {
			return 0
		}
		if t >= times[n-1] {
			return cum[n-1] // level after last event is zero
		}
		i := sort.SearchFloat64s(times, t)
		if i < n && times[i] == t {
			return cum[i]
		}
		i--
		return cum[i] + float64(level[i])*(t-times[i])
	}

	var s CommSummary
	for _, c := range comms {
		if c.Complete < 0 || c.Kind == Recv {
			continue
		}
		d := c.Complete - c.Post
		s.CommTime += d
		switch c.Kind {
		case Send:
			s.SendTime += d
		case Collective:
			s.CollectiveTime += d
		}
		s.OverlappedWork += workAt(c.Complete) - workAt(c.Post)
		s.Requests++
	}
	if s.CommTime > 0 && p.nWorkers > 0 {
		s.OverlapRatio = s.OverlappedWork / (float64(p.nWorkers) * s.CommTime)
	}
	return s
}
