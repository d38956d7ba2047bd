package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// GraphzFunc produces the /graphz snapshot; rt supplies one backed by
// the live graph and scheduler state.
type GraphzFunc func() any

// Handler returns the introspection mux: /metrics (Prometheus text),
// /graphz (JSON snapshot from graphz, may be nil), /spans (drain the
// span rings as Chrome trace JSON; ?keep=1 snapshots without
// consuming), and net/http/pprof under /debug/pprof/.
func (r *Registry) Handler(graphz GraphzFunc) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteMetrics(w)
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var evs []SpanEvent
		if req.URL.Query().Get("keep") != "" {
			evs = r.SnapshotSpans()
		} else {
			evs = r.DrainSpans()
		}
		_ = WriteChrome(w, nil, evs)
	})
	mux.HandleFunc("/graphz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var snap any
		if graphz != nil {
			snap = graphz()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snap)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running introspection endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server and releases the listener.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}

// Serve binds handler to addr and serves it on a background goroutine
// until Close. rt calls this when Config.Obs.Addr is set; it is also
// usable standalone.
func Serve(addr string, handler http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}
