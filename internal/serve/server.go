package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"taskdep/internal/cpath"
	"taskdep/internal/fault"
)

// Server is the HTTP front end over a tenant Manager. Build one with
// New, mount Handler on a listener (cmd/tdgserve uses obs.Serve), and
// Shutdown when done.
type Server struct {
	m     *Manager
	start time.Time

	requests    atomic.Int64 // POST /v1/graphs accepted past validation
	rejected    atomic.Int64 // 429s (tenant or global quota)
	badRequests atomic.Int64 // 4xx validation failures
	graphErrors atomic.Int64 // streams that ended in an error event
	disconnects atomic.Int64 // streams whose client went away
}

// New builds a Server with its own Manager.
func New(opt Options) *Server {
	return &Server{m: NewManager(opt), start: time.Now()}
}

// Manager exposes the tenant pool (tests, cmd wiring).
func (s *Server) Manager() *Manager { return s.m }

// Shutdown tears down every tenant runtime.
func (s *Server) Shutdown() { s.m.CloseAll() }

// Handler returns the service mux:
//
//	POST   /v1/graphs                 submit a graph, stream NDJSON events
//	GET    /v1/tenants                tenant list with stats
//	DELETE /v1/tenants/{name}         tear a tenant down
//	GET    /v1/tenants/{name}/metrics the tenant runtime's Prometheus text
//	GET    /v1/tenants/{name}/graphz  the tenant runtime's live snapshot
//	GET    /v1/tenants/{name}/criticalpath  last critical-path window + what-if
//	GET    /metrics                   service-level + tenant-labeled series
//	GET    /graphz                    service snapshot (all tenants)
//	GET    /healthz                   liveness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/graphs", s.handleGraphs)
	mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	mux.HandleFunc("DELETE /v1/tenants/{name}", s.handleTenantDelete)
	mux.HandleFunc("GET /v1/tenants/{name}/metrics", s.handleTenantMetrics)
	mux.HandleFunc("GET /v1/tenants/{name}/graphz", s.handleTenantGraphz)
	mux.HandleFunc("GET /v1/tenants/{name}/criticalpath", s.handleTenantCriticalPath)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /graphz", s.handleGraphz)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return mux
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// tenantOf resolves the request's tenant name: X-Tenant header, then
// ?tenant=, then "default".
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	if t := r.URL.Query().Get("tenant"); t != "" {
		return t
	}
	return "default"
}

func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	sc := scratchPool.Get().(*reqScratch)
	s.serveGraph(w, r, sc)
	// Not deferred: were serveGraph to panic, the request's producer could
	// still be reading the scratch, which is then dropped, not pooled.
	sc.release()
}

// serveGraph is one POST /v1/graphs: read, decode, validate, admit, run
// and stream, all in sc. A body that matches a byte key of its tenant's
// templates (template.go) skips decode and validate: it is a request the
// decoder and Validate accept, of that template's shape. Only an existing
// tenant is matched against (Manager.Lookup), so nothing is created for a
// body before it is decoded.
func (s *Server) serveGraph(w http.ResponseWriter, r *http.Request, sc *reqScratch) {
	var err error
	sc.body, err = readBody(http.MaxBytesReader(w, r.Body, MaxBodyBytes), sc.body, r.ContentLength)
	if err != nil {
		s.badRequests.Add(1)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, "serve: request body exceeds %d bytes", MaxBodyBytes)
		} else {
			httpError(w, http.StatusBadRequest, "serve: read body: %v", err)
		}
		return
	}
	name := tenantOf(r)
	tn, ok := s.m.Lookup(name)
	if !ok || !sc.match(tn.keys.Load()) {
		if err = sc.decode(); err != nil {
			s.badRequests.Add(1)
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if !ok {
		if tn, err = s.m.Tenant(name); err != nil {
			switch {
			case errors.Is(err, ErrPoolFull):
				s.rejected.Add(1)
				httpError(w, http.StatusTooManyRequests, "%v", err)
			default:
				s.badRequests.Add(1)
				httpError(w, http.StatusBadRequest, "%v", err)
			}
			return
		}
	}
	release, err := s.m.Admit(tn)
	if err != nil {
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	defer release()
	s.requests.Add(1)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	req, tasks, events, repeat := &sc.req, 0, 0, 0
	if sc.key != nil {
		req, tasks, events, repeat = nil, sc.key.tasks, sc.key.events, sc.repeat
	} else {
		tasks, events, repeat = len(req.Tasks), maxEvents(req), req.Repeat
	}
	sc.stream.reserve(tasks, events)
	stream(w, flush, &sc.stream, Event{Type: "accepted", Key: name}, func(m *mailbox) {
		t0 := time.Now()
		err := tn.run(r.Context(), req, sc, m)
		if err != nil {
			s.graphErrors.Add(1)
			if r.Context().Err() != nil {
				s.disconnects.Add(1)
			}
			emitErrors(m.put, err)
		}
		m.put(Event{Type: "done", Iters: max(repeat, 1), Elapsed: time.Since(t0).Seconds()})
	})
}

// maxEvents bounds the events besides task transitions that one
// request's producer emits: the result slots, the error tail and done.
func maxEvents(req *GraphRequest) int {
	n := len(req.Results) + maxErrorEvents + 1
	if len(req.Results) == 0 {
		for i := range req.Tasks {
			n += len(req.Tasks[i].Provide)
		}
	}
	return n
}

// maxErrorEvents bounds the error tail of a stream: the primary
// failure plus a few siblings from the same window.
const maxErrorEvents = 8

// emitErrors renders a drain error as stream events: TaskErrors get
// the failing task's label, plain errors just the message.
func emitErrors(emit func(Event), err error) {
	var te *fault.TaskError
	if !errors.As(err, &te) {
		emit(Event{Type: "error", Err: err.Error()})
		return
	}
	emit(Event{Type: "error", Tasks: []string{te.Label}, Err: te.Cause.Error()})
	var sibs []error
	if te.Siblings != nil {
		if joined, ok := te.Siblings.(interface{ Unwrap() []error }); ok {
			sibs = joined.Unwrap()
		} else {
			sibs = []error{te.Siblings}
		}
	}
	n := 1
	for _, sib := range sibs {
		if n >= maxErrorEvents {
			break
		}
		var st *fault.TaskError
		if errors.As(sib, &st) {
			emit(Event{Type: "error", Tasks: []string{st.Label}, Err: st.Cause.Error()})
		} else {
			emit(Event{Type: "error", Err: sib.Error()})
		}
		n++
	}
}

func (s *Server) handleTenants(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.m.Snapshot())
}

func (s *Server) handleTenantDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.m.Close(name) {
		httpError(w, http.StatusNotFound, "serve: no tenant %q", name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleTenantMetrics(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.m.Lookup(r.PathValue("name"))
	if !ok {
		httpError(w, http.StatusNotFound, "serve: no tenant %q", r.PathValue("name"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = tn.Runtime().Obs().WriteMetrics(w)
}

func (s *Server) handleTenantGraphz(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.m.Lookup(r.PathValue("name"))
	if !ok {
		httpError(w, http.StatusNotFound, "serve: no tenant %q", r.PathValue("name"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(tn.Runtime().Introspect())
}

// tenantCPSummary is the per-tenant critical-path payload: the
// runtime's last window report plus a coarse classification of what
// bounds the tenant's graphs — the service-level answer to the paper's
// question ("is discovery on this workload's critical path?").
//
// The last window of a request served from a template (a hit, see
// template.go) is a compiled replay, as is that of any repeat > 1
// request: its report carries zero discovery weight by construction —
// nothing was discovered — so it never reads "discovery" or
// discovery_impacted. That is the answer for a replayed graph, not a gap
// in the profile: whether a tenant's requests are hits is on /metrics
// (tdgserve_tenant_template_hits_total against _misses_total), and a
// discovery-bound report can only come from a cold or recording window.
type tenantCPSummary struct {
	Tenant  string        `json:"tenant"`
	Enabled bool          `json:"enabled"`
	Report  *cpath.Report `json:"report,omitempty"`
	// Bound names the dominant critical-path component: "discovery",
	// "ready-wait" or "execute". Empty until a window completes.
	Bound string `json:"bound,omitempty"`
	// DiscoveryImpacted is true when eliminating discovery would shrink
	// the projected makespan by more than 5% (WhatIf.Speedup > 1.05).
	DiscoveryImpacted bool `json:"discovery_impacted"`
}

// classifyCP derives the summary's classification fields from a report.
func classifyCP(rep *cpath.Report) (bound string, impacted bool) {
	if rep == nil {
		return "", false
	}
	bound = "execute"
	max := rep.CPExecNs
	if rep.CPWaitNs > max {
		bound, max = "ready-wait", rep.CPWaitNs
	}
	if rep.CPDiscNs > max {
		bound = "discovery"
	}
	return bound, rep.WhatIf.Speedup > 1.05
}

func (s *Server) handleTenantCriticalPath(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.m.Lookup(r.PathValue("name"))
	if !ok {
		httpError(w, http.StatusNotFound, "serve: no tenant %q", r.PathValue("name"))
		return
	}
	sum := tenantCPSummary{
		Tenant:  tn.Name(),
		Enabled: tn.Runtime().CPathProfiler() != nil,
		Report:  tn.Runtime().CriticalPath(),
	}
	if !sum.Enabled {
		httpError(w, http.StatusNotFound, "serve: tenant %q has critical-path profiling disabled (serve.Options.CPath)", tn.Name())
		return
	}
	sum.Bound, sum.DiscoveryImpacted = classifyCP(sum.Report)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(sum)
}

// handleMetrics writes the service-level series plus one
// tenant-labeled row per tenant per series, Prometheus text format.
// Deep runtime series live at /v1/tenants/{name}/metrics — keeping
// them per-tenant avoids colliding the runtimes' unlabeled series.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap := s.m.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# TYPE tdgserve_requests_total counter\ntdgserve_requests_total %d\n", s.requests.Load())
	fmt.Fprintf(w, "# TYPE tdgserve_rejected_total counter\ntdgserve_rejected_total %d\n", s.rejected.Load())
	fmt.Fprintf(w, "# TYPE tdgserve_bad_requests_total counter\ntdgserve_bad_requests_total %d\n", s.badRequests.Load())
	fmt.Fprintf(w, "# TYPE tdgserve_graph_errors_total counter\ntdgserve_graph_errors_total %d\n", s.graphErrors.Load())
	fmt.Fprintf(w, "# TYPE tdgserve_disconnects_total counter\ntdgserve_disconnects_total %d\n", s.disconnects.Load())
	fmt.Fprintf(w, "# TYPE tdgserve_inflight gauge\ntdgserve_inflight %d\n", s.m.Inflight())
	fmt.Fprintf(w, "# TYPE tdgserve_tenants gauge\ntdgserve_tenants %d\n", len(snap))
	fmt.Fprintf(w, "# TYPE tdgserve_uptime_seconds gauge\ntdgserve_uptime_seconds %.3f\n", time.Since(s.start).Seconds())
	for _, series := range []struct {
		name string
		get  func(TenantSnap) int64
	}{
		{"tdgserve_tenant_submissions_total", func(t TenantSnap) int64 { return t.Submissions }},
		{"tdgserve_tenant_tasks_total", func(t TenantSnap) int64 { return t.Tasks }},
		{"tdgserve_tenant_failures_total", func(t TenantSnap) int64 { return t.Failures }},
		{"tdgserve_tenant_rejected_total", func(t TenantSnap) int64 { return t.Rejected }},
		{"tdgserve_tenant_inflight", func(t TenantSnap) int64 { return t.Inflight }},
		{"tdgserve_tenant_live_tasks", func(t TenantSnap) int64 { return t.Runtime.Live }},
		{"tdgserve_tenant_template_hits_total", func(t TenantSnap) int64 { return t.TemplateHits }},
		{"tdgserve_tenant_template_misses_total", func(t TenantSnap) int64 { return t.TemplateMisses }},
		{"tdgserve_tenant_templates", func(t TenantSnap) int64 { return t.Templates }},
		{"tdgserve_tenant_template_tasks", func(t TenantSnap) int64 { return t.TemplateTasks }},
	} {
		for _, n := range names {
			fmt.Fprintf(w, "%s{tenant=%q} %d\n", series.name, n, series.get(snap[n]))
		}
	}
}

// Graphz is the service-level /graphz payload.
type Graphz struct {
	Inflight int64                 `json:"inflight"`
	Options  Options               `json:"options"`
	Tenants  map[string]TenantSnap `json:"tenants"`
}

func (s *Server) handleGraphz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(Graphz{
		Inflight: s.m.Inflight(),
		Options:  s.m.Options(),
		Tenants:  s.m.Snapshot(),
	})
}
