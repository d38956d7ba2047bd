package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHandlerEndpoints(t *testing.T) {
	r := New(2, time.Now(), Options{Spans: true})
	r.IncSlot(0, CTasksExecuted)
	sp := r.BeginSpan(0, SpanTaskBody, 1, 0, 0)
	sp.End()
	srv := httptest.NewServer(r.Handler(func() any {
		return map[string]int{"live": 3}
	}))
	defer srv.Close()

	get := func(path string) (int, string, http.Header) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header
	}

	code, body, hdr := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain") {
		t.Errorf("/metrics Content-Type = %q", hdr.Get("Content-Type"))
	}
	for c := Counter(0); c < NumCounters; c++ {
		if !strings.Contains(body, c.Name()) {
			t.Errorf("/metrics missing %s", c.Name())
		}
	}

	code, body, _ = get("/graphz")
	if code != http.StatusOK {
		t.Fatalf("/graphz status %d", code)
	}
	var gz map[string]int
	if err := json.Unmarshal([]byte(body), &gz); err != nil || gz["live"] != 3 {
		t.Fatalf("/graphz body %q: %v", body, err)
	}

	code, body, _ = get("/spans?keep=1")
	if code != http.StatusOK {
		t.Fatalf("/spans status %d", code)
	}
	validateChromeTrace(t, []byte(body))

	// keep=1 must not consume; a plain /spans drain still sees the span.
	code, body, _ = get("/spans")
	if code != http.StatusOK {
		t.Fatalf("/spans status %d", code)
	}
	if !strings.Contains(body, `"task"`) {
		t.Fatalf("/spans drain lost the recorded span: %s", body)
	}

	code, _, _ = get("/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
}

func TestServeAndClose(t *testing.T) {
	r := New(1, time.Now(), Options{})
	srv, err := Serve("127.0.0.1:0", r.Handler(nil))
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if addr == "" {
		t.Fatal("Serve returned empty address")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	var nilSrv *Server
	if nilSrv.Addr() != "" {
		t.Fatal("nil server must report empty address")
	}
	if err := nilSrv.Close(); err != nil {
		t.Fatal(err)
	}
}
