package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"taskdep/internal/rt"
	"taskdep/internal/values"
)

// ErrTenantClosed is returned to requests that race a tenant teardown.
var ErrTenantClosed = errors.New("serve: tenant closed")

// ErrPoolFull is returned when creating a tenant would exceed
// Options.MaxTenants.
var ErrPoolFull = errors.New("serve: tenant pool full")

// ErrQuota is returned when admission control rejects a request (the
// per-tenant queue or the global in-flight cap is exhausted). The HTTP
// layer maps it to 429.
var ErrQuota = errors.New("serve: over quota")

// Options configures the service: pool geometry, per-tenant runtime
// shape and admission control. The zero value gets sane defaults from
// withDefaults.
type Options struct {
	// MaxTenants bounds the runtime pool. Default 16.
	MaxTenants int
	// Workers is the per-tenant runtime worker count. Default 1.
	Workers int
	// Queue is the per-tenant admission quota: requests running or
	// waiting on the tenant's producer lock. Default 64.
	Queue int
	// GlobalInflight caps requests admitted across all tenants.
	// Default 1024.
	GlobalInflight int
	// ThrottleReady/ThrottleTotal are each tenant runtime's normal
	// throttle windows (0 = unbounded).
	ThrottleReady, ThrottleTotal int64
	// CPath enables the online critical-path profiler on every tenant
	// runtime: per-graph phase attribution and discovery-impact what-if
	// reports, served per tenant at GET /v1/tenants/{name}/criticalpath.
	// Default off (the profiler costs a few ns per task).
	CPath bool
}

func (o Options) withDefaults() Options {
	if o.MaxTenants <= 0 {
		o.MaxTenants = 16
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Queue <= 0 {
		o.Queue = 64
	}
	if o.GlobalInflight <= 0 {
		o.GlobalInflight = 1024
	}
	return o
}

// Tenant owns one isolated runtime: private workers, graph, metrics
// registry and failure domain. Requests serialize on prodMu (the
// runtime's single-producer contract); everything else about the
// tenant is safe for concurrent use.
type Tenant struct {
	name  string
	rt    *rt.Runtime
	store *values.Store // replaced by swapStore; guarded by prodMu

	prodMu sync.Mutex
	binder values.Binder // the submitting request's key buffer; guarded by prodMu
	tpl    templateCache // recorded graphs by request shape; guarded by prodMu
	sem    chan struct{} // admission quota (see Options.Queue)
	closed atomic.Bool

	submissions atomic.Int64 // graphs accepted
	tasksRun    atomic.Int64 // task bodies executed, added up when a window has drained
	failures    atomic.Int64 // graphs that drained with an error
	rejected    atomic.Int64 // admissions refused (quota)
	inflight    atomic.Int64 // admitted, not yet finished

	// The template cache as /metrics sees it: requests replayed from a
	// template and requests that were not, and what the cache holds (the
	// gauges mirror tpl, which only the producer may read).
	templateHits   atomic.Int64
	templateMisses atomic.Int64
	templates      atomic.Int64
	templateTasks  atomic.Int64
	// keys is the byte keys of tpl's templates, the snapshot the handler
	// matches bodies against without the producer lock: replaced, never
	// changed, whenever a template comes or goes; nil when none has one.
	keys atomic.Pointer[[]*byteKey]
}

// Name returns the tenant's identifier.
func (t *Tenant) Name() string { return t.name }

// Runtime exposes the tenant's runtime (introspection endpoints).
func (t *Tenant) Runtime() *rt.Runtime { return t.rt }

// tryAcquire claims one admission slot, failing fast when the
// tenant's queue quota is exhausted.
func (t *Tenant) tryAcquire() bool {
	select {
	case t.sem <- struct{}{}:
		t.inflight.Add(1)
		return true
	default:
		t.rejected.Add(1)
		return false
	}
}

func (t *Tenant) release() {
	t.inflight.Add(-1)
	<-t.sem
}

// Run executes one validated graph on the tenant's runtime, emitting
// stream events as tasks complete, one "task" event per task. emit may
// be called from worker goroutines and must not block; it is not called
// after Run returns. The caller must have acquired an admission slot.
//
// The request takes one of three arms, chosen from what Run can see —
// whether the tenant has a template of the request's shape, whether the
// shape was sighted before, and repeat (template.go). Over HTTP a body
// that matches a template's byte key is a hit found without a decode
// (see run); a Go caller's request is always looked up by its shape.
//
//   - hit: the cached graph is given the request's arguments and its
//     compiled recording replayed repeat times. Nothing is built,
//     lowered, submitted or compiled.
//   - record: a shape seen before, or any shape with repeat > 1, is
//     built, recorded and compiled (rt.Record, which runs it once), kept
//     as a template, and replayed the other repeat-1 times.
//   - cold: the first sighting of a shape with repeat 1 is a plain
//     window — a graph that never comes back never pays for a recording.
//
// Every arm runs under the same safety: Validate upstream (a byte match
// stands in for it: what matches a key is a valid request), the store
// reset, the stale-abort and disconnect handling, and g.emit = nil once
// the window has drained. A window that ends in an error or an abort
// drops the template it ran on.
func (t *Tenant) Run(ctx context.Context, req *GraphRequest, emit func(Event)) error {
	return t.run(ctx, req, nil, emitFunc(emit))
}

// sink takes a request's events as run emits them, from worker
// goroutines too, and never blocks: a task transition as the finished
// task's labels, every other event whole. The HTTP stream's mailbox is
// one; emitFunc makes one of Run's emit.
type sink interface {
	put(e Event)
	done(labels []string)
}

// emitFunc is Run's emit as a sink: a transition becomes the one "task"
// event per task that Run promises its caller.
type emitFunc func(Event)

func (f emitFunc) put(e Event)          { f(e) }
func (f emitFunc) done(labels []string) { f(Event{Type: "task", Tasks: labels, State: "done"}) }

// run is Run, and what the handler calls with its scratch sc: sc.body is
// the request's body, and either sc.key is the byte key the body matched
// and req is nil (the body is not decoded), or req is decoded from the
// body into sc, so that recording it can cut the template's byte key.
// A byte hit whose template was dropped after the match — by an eviction
// or a store swap — decodes the body here and goes the way of any other
// request.
func (t *Tenant) run(ctx context.Context, req *GraphRequest, sc *reqScratch, out sink) error {
	if t.closed.Load() {
		return ErrTenantClosed
	}
	t.prodMu.Lock()
	defer t.prodMu.Unlock()
	if t.closed.Load() {
		return ErrTenantClosed
	}
	// A previous request's disconnect may have aborted the runtime just
	// as its window drained; consume the stale flag so this request
	// starts clean.
	if t.rt.Aborted() {
		_ = t.rt.Taskwait()
	}
	if t.store.Len() > maxStoreSlots {
		t.swapStore()
	}
	t.store.Reset()

	// Which template: the one whose byte key the body matched, while it
	// is still cached, else the one of the request's shape, if any. From
	// here on the two ways are one.
	var (
		tp    *template
		hash  uint64
		arg   func(i int) json.RawMessage
		iters int
	)
	if req == nil && t.tpl.hit(sc.key.tp) {
		tp, arg, iters = sc.key.tp, sc.arg, sc.repeat
	} else {
		if req == nil { // matched, then dropped: decode after all
			if err := sc.decode(); err != nil {
				return err // not reached: a body that matches a key decodes and is valid
			}
			req = &sc.req
		}
		hash, tp = t.tpl.lookup(req)
		arg, iters = func(i int) json.RawMessage { return req.Tasks[i].Arg }, req.Repeat
	}
	iters = max(iters, 1)
	t.submissions.Add(1)
	var (
		g           *wireGraph
		results     []values.Handle
		resultNames []string
	)
	if tp != nil {
		t.templateHits.Add(1)
		tp.rebind(arg, out)
		g, results, resultNames = tp.g, tp.results, tp.resultNames
	} else {
		t.templateMisses.Add(1)
		g, results, resultNames = t.build(req, out)
	}
	// Abort the window when the client goes away mid-stream, so a
	// disconnected request never pins the tenant for its full graph.
	aborted := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		defer close(aborted)
		t.rt.Abort(fmt.Errorf("serve: client disconnected: %w", context.Cause(ctx)))
	})

	var err error
	switch {
	case tp != nil:
		err = t.rt.Replay(tp.rec, 0, iters)
	case iters > 1 || t.tpl.sighted(hash):
		// The persistent frozen-replay path: the graph is recorded once
		// and replayed as a compiled flat schedule — the typed dataflow
		// facade lowers onto plain key dependences, so the paper's
		// optimization (p) applies to served graphs unchanged.
		var rec *rt.Recording
		if rec, err = t.rt.Record(func() { t.submit(g) }); err == nil {
			tp = t.tpl.insert(hash, g, rec, results, resultNames)
			if sc != nil {
				tp.key = newByteKey(tp, sc.body, req, &sc.arenas)
			}
			err = t.rt.Replay(rec, 1, iters-1)
		}
	default:
		t.submit(g)
		err = t.rt.Taskwait()
	}
	if !stop() {
		// The disconnect fired: let its abort land while this request
		// still holds the producer lock, so that if the window had already
		// drained the next request finds the stale flag and consumes it,
		// not an abort in the middle of its own window.
		<-aborted
	}
	// The window has drained: no task will emit again. The runtime still
	// remembers each slot's last writers, and through them g, until the
	// tenant's next window — and a template keeps g for good; neither may
	// also remember the request's stream.
	g.emit = nil
	t.tasksRun.Add(g.takeRuns())
	if err != nil && tp != nil {
		t.tpl.drop(tp)
	}
	t.publishTemplates()
	if err != nil {
		t.failures.Add(1)
		return err
	}
	for i, h := range results {
		out.put(Event{Type: "result", Key: resultNames[i], Value: h.Any()})
	}
	return nil
}

// submit lowers g's tasks and submits them in order. Lowered at
// submission: the binder's keys are good until its next Lower, and Submit
// has copied them out by then.
func (t *Tenant) submit(g *wireGraph) {
	for i := range g.tasks {
		w := &g.tasks[i]
		nc := len(w.in) - w.nUpdate
		sp := t.binder.Lower(values.Spec{Label: w.label[0], Consume: w.in[:nc], Update: w.out[:w.nUpdate], Provide: w.out[w.nUpdate:]})
		sp.Do, sp.FirstPrivate = runWireTask, w
		t.rt.Submit(sp)
	}
}

// publishTemplates copies what the cache holds into what is read
// without the producer lock: the gauges Snapshot reads, and, when a
// template has come or gone, a new snapshot of the byte keys. Caller
// holds prodMu.
func (t *Tenant) publishTemplates() {
	t.templates.Store(int64(len(t.tpl.templates)))
	t.templateTasks.Store(int64(t.tpl.tasks))
	if !t.tpl.changed {
		return
	}
	t.tpl.changed = false
	var keys []*byteKey
	for _, tp := range t.tpl.templates {
		if tp.key != nil {
			keys = append(keys, tp.key)
		}
	}
	if keys == nil {
		t.keys.Store(nil)
	} else {
		t.keys.Store(&keys)
	}
}

// swapStore replaces the tenant's store with an empty one at the same
// key base, and forgets everything that indexes the old one: every
// template, and the runtime's per-key discovery frontier. An ended
// window (graph.EndWindow) already reads that frontier as empty and
// reuses its tasks' memory, but the key table keeps an entry per key it
// has seen, each still pointing at the last tasks that used the key, and
// through them keeps alive the old requests' tasks whose memory is never
// reused (a recording's, a detached task's). A store keeps
// every name it ever bound, and build binds whatever names a request
// brings, so without this a client sending fresh slot names grows the
// tenant for ever. Caller holds prodMu with nothing in flight.
func (t *Tenant) swapStore() {
	t.tpl.clear()
	t.store = values.NewStoreAt(t.store.Base())
	t.rt.Graph().ResetDiscoveryFrontier()
}

// wireGraph is one request lowered for the runtime. It is built per
// request from a fixed number of allocations, sized from the request,
// and keeps no view of the request's strings: the slots' names are the
// store's copies and the labels a string of their own, so a finished
// task that the runtime still remembers does not hold a request body.
type wireGraph struct {
	t     *Tenant
	emit  sink
	tasks []wireTask
}

// takeRuns returns the executions the graph's tasks have completed since
// the last call, and starts the count again. Only when no task is
// running: one shared counter bumped by every execution made every
// worker take its cache line in turn.
func (g *wireGraph) takeRuns() int64 {
	var n int64
	for i := range g.tasks {
		n += int64(g.tasks[i].runs)
		g.tasks[i].runs = 0
	}
	return n
}

// wireTask is one task of a wireGraph; the runtime carries a pointer
// to it as the task's FirstPrivate and runs it with runWireTask.
type wireTask struct {
	g *wireGraph
	// label is the task's label as a one-element list, the form its
	// transition is emitted in, cut at build from the graph's list of
	// labels.
	label []string
	op    *Op
	// arg and err are what op.Parse made of the argument of the request
	// the task runs for: once at build, and again for every later request
	// that replays the graph (template.rebind).
	arg Arg
	err error
	// reported is set at the first completed execution, and runs counts
	// the completed executions until Run adds them to the tenant's
	// tasksRun once the window has drained. Both are touched by one
	// execution at a time: a task never runs concurrently with itself,
	// and a frozen replay's iterations are ordered by its barrier.
	reported bool
	runs     uint32
	// The task's slots are one run of the graph's handle arena, its
	// Consume, Update and Provide slots in that order: in is the Consume
	// and Update slots (op.Do's input), out the Update and Provide slots
	// (where the result goes); they share the nUpdate Update slots.
	in, out []values.Handle
	nUpdate int
}

// parse makes the task's data from a request's argument.
func (w *wireTask) parse(arg json.RawMessage) {
	w.arg, w.err = Arg{}, nil
	if w.op.Parse != nil {
		w.arg, w.err = w.op.Parse(arg)
	}
}

// runWireTask is the Do of every served task: it runs the operator on
// the task's input handles and stores the result into its output slots,
// a number unboxed.
func runWireTask(fp any) error {
	w := fp.(*wireTask)
	if w.err != nil {
		return w.err
	}
	v, err := w.op.Do(&w.arg, w.in)
	if err != nil {
		return err
	}
	if v.IsNum {
		for _, h := range w.out {
			h.SetFloat(v.Num)
		}
	} else {
		for _, h := range w.out {
			h.SetAny(v.Val)
		}
	}
	w.runs++
	// One transition per task: the first completed execution (frozen
	// replays re-run bodies every iteration; streaming each would swamp
	// the client).
	if !w.reported {
		w.reported = true
		w.g.emit.done(w.label)
	}
	return nil
}

// build binds the request's slots in the tenant's store and lays its
// tasks out for submission; results are the slots to report once the
// graph has drained, under the names the request gave them. Caller
// holds prodMu.
func (t *Tenant) build(req *GraphRequest, emit sink) (g *wireGraph, results []values.Handle, resultNames []string) {
	var nIn, nOut, nLabel int
	for i := range req.Tasks {
		w := &req.Tasks[i]
		nIn += len(w.Consume) + len(w.Update)
		nOut += len(w.Provide)
		nLabel += len(w.Label)
	}
	g = &wireGraph{t: t, emit: emit, tasks: make([]wireTask, len(req.Tasks))}
	var (
		handles = make([]values.Handle, 0, nIn+nOut)
		byName  = make(map[string]values.Handle, nOut)
		labels  strings.Builder
		names   = make([]string, len(req.Tasks))
		name    [len("task-") + 20]byte
	)
	// Room for every label plus a "task-<index>" for every task, so the
	// labels are substrings of one string.
	labels.Grow(nLabel + len(req.Tasks)*(len("task-")+len(strconv.Itoa(len(req.Tasks)))))
	bind := func(names []string) {
		for _, n := range names {
			h, ok := byName[n]
			if !ok {
				h = t.store.Bind(n)
				byName[n] = h
			}
			handles = append(handles, h)
		}
	}
	// With no results named, every slot is reported, in the order the
	// request first provides them.
	reportAll := len(req.Results) == 0
	var provided []string
	if reportAll {
		provided = make([]string, 0, nOut)
	}
	for i := range req.Tasks {
		w := &req.Tasks[i]
		start := labels.Len()
		if w.Label != "" {
			labels.WriteString(w.Label)
		} else {
			labels.Write(strconv.AppendInt(append(name[:0], "task-"...), int64(i), 10))
		}
		// The task's run of the arena: its Consume, Update and Provide
		// slots, in that order.
		run := len(handles)
		bind(w.Consume)
		bind(w.Update)
		if reportAll {
			for _, n := range w.Provide {
				if _, ok := byName[n]; !ok {
					provided = append(provided, n)
				}
			}
		}
		bind(w.Provide)
		hs := handles[run:len(handles):len(handles)]
		names[i] = labels.String()[start:]
		g.tasks[i] = wireTask{
			g:       g,
			label:   names[i : i+1 : i+1],
			op:      Ops[w.Op],
			in:      hs[: len(w.Consume)+len(w.Update) : len(w.Consume)+len(w.Update)],
			out:     hs[len(w.Consume):],
			nUpdate: len(w.Update),
		}
		g.tasks[i].parse(w.Arg)
	}
	resultNames = req.Results
	if reportAll {
		resultNames = provided
	}
	results = make([]values.Handle, len(resultNames))
	for i, n := range resultNames {
		results[i] = byName[n]
	}
	return g, results, resultNames
}

// shutdown closes the tenant: aborts any running window, waits for
// the active request to drain off the producer lock, then joins the
// runtime's workers. Idempotent.
func (t *Tenant) shutdown() {
	if t.closed.Swap(true) {
		return
	}
	t.rt.Abort(ErrTenantClosed)
	t.prodMu.Lock()
	defer t.prodMu.Unlock()
	_ = t.rt.Close()
	t.tpl.clear()
	t.publishTemplates()
}

// Manager is the bounded tenant pool plus global admission state.
type Manager struct {
	opt Options

	mu      sync.Mutex
	tenants map[string]*Tenant
	closed  bool

	inflight       atomic.Int64
	rejectedGlobal atomic.Int64
}

// NewManager builds a pool with the given options (zero value OK).
func NewManager(opt Options) *Manager {
	return &Manager{opt: opt.withDefaults(), tenants: make(map[string]*Tenant)}
}

// Options returns the effective (defaulted) options.
func (m *Manager) Options() Options { return m.opt }

// validTenantName accepts DNS-label-ish names: letters, digits, and
// [._-], nonempty, bounded.
func validTenantName(s string) bool {
	if s == "" || len(s) > MaxNameLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Tenant returns the named tenant, creating it on first use. Creation
// fails with ErrPoolFull when the pool is at MaxTenants.
func (m *Manager) Tenant(name string) (*Tenant, error) {
	if !validTenantName(name) {
		return nil, fmt.Errorf("serve: invalid tenant name %q", name)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrTenantClosed
	}
	if t, ok := m.tenants[name]; ok {
		return t, nil
	}
	if len(m.tenants) >= m.opt.MaxTenants {
		return nil, ErrPoolFull
	}
	runtime, err := rt.NewRuntime(rt.Config{
		Workers:       m.opt.Workers,
		ThrottleReady: m.opt.ThrottleReady,
		ThrottleTotal: m.opt.ThrottleTotal,
		CPath:         rt.CPathOptions{Enable: m.opt.CPath},
	})
	if err != nil {
		return nil, err
	}
	t := &Tenant{
		name:  name,
		rt:    runtime,
		store: values.NewStore(),
		tpl:   templateCache{seed: maphash.MakeSeed()},
		sem:   make(chan struct{}, m.opt.Queue),
	}
	m.tenants[name] = t
	return t, nil
}

// Lookup returns the named tenant without creating it.
func (m *Manager) Lookup(name string) (*Tenant, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.tenants[name]
	return t, ok
}

// Admit performs both admission checks for one request on t. On
// success the caller must call the returned release exactly once.
func (m *Manager) Admit(t *Tenant) (release func(), err error) {
	if !t.tryAcquire() {
		return nil, fmt.Errorf("%w: tenant %s queue (%d) full", ErrQuota, t.name, m.opt.Queue)
	}
	n := m.inflight.Add(1)
	if n > int64(m.opt.GlobalInflight) {
		m.inflight.Add(-1)
		t.release()
		m.rejectedGlobal.Add(1)
		return nil, fmt.Errorf("%w: global in-flight cap (%d) reached", ErrQuota, m.opt.GlobalInflight)
	}
	return func() {
		m.inflight.Add(-1)
		t.release()
	}, nil
}

// Inflight returns the globally admitted request count.
func (m *Manager) Inflight() int64 { return m.inflight.Load() }

// Close removes the named tenant from the pool and shuts its runtime
// down, waiting for the active request (if any) to drain. Reports
// whether the tenant existed.
func (m *Manager) Close(name string) bool {
	m.mu.Lock()
	t, ok := m.tenants[name]
	delete(m.tenants, name)
	m.mu.Unlock()
	if !ok {
		return false
	}
	t.shutdown()
	return true
}

// CloseAll tears down every tenant and marks the pool closed.
func (m *Manager) CloseAll() {
	m.mu.Lock()
	m.closed = true
	ts := make([]*Tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		ts = append(ts, t)
	}
	m.tenants = make(map[string]*Tenant)
	m.mu.Unlock()
	for _, t := range ts {
		t.shutdown()
	}
}

// TenantSnap is one tenant's stats row in the service snapshot.
type TenantSnap struct {
	Submissions int64 `json:"submissions"`
	// Tasks counts the task executions of the tenant's finished requests:
	// a request's are added when its window has drained, so the count
	// does not move while a long request runs.
	Tasks    int64 `json:"tasks"`
	Failures int64 `json:"failures"`
	Rejected int64 `json:"rejected"`
	Inflight int64 `json:"inflight"`
	// TemplateHits counts requests replayed from a cached recording of
	// their shape, TemplateMisses the rest; Templates and TemplateTasks
	// are what the tenant's cache holds now.
	TemplateHits   int64       `json:"template_hits"`
	TemplateMisses int64       `json:"template_misses"`
	Templates      int64       `json:"templates"`
	TemplateTasks  int64       `json:"template_tasks"`
	Runtime        rt.Snapshot `json:"runtime"`
}

// Snapshot captures per-tenant stats plus runtime introspection, for
// /graphz and /metrics.
func (m *Manager) Snapshot() map[string]TenantSnap {
	m.mu.Lock()
	ts := make(map[string]*Tenant, len(m.tenants))
	for n, t := range m.tenants {
		ts[n] = t
	}
	m.mu.Unlock()
	out := make(map[string]TenantSnap, len(ts))
	for n, t := range ts {
		out[n] = TenantSnap{
			Submissions: t.submissions.Load(),
			Tasks:       t.tasksRun.Load(),
			Failures:    t.failures.Load(),
			Rejected:    t.rejected.Load(),
			Inflight:    t.inflight.Load(),

			TemplateHits:   t.templateHits.Load(),
			TemplateMisses: t.templateMisses.Load(),
			Templates:      t.templates.Load(),
			TemplateTasks:  t.templateTasks.Load(),

			Runtime: t.rt.Introspect(),
		}
	}
	return out
}
