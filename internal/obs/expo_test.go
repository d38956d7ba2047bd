package obs

import (
	"bufio"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// familyOf maps a sample name to its metric family: histogram series
// expose base_bucket/base_sum/base_count samples under one family.
func familyOf(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return name
}

// TestPrometheusExpositionConformance audits the full /metrics output
// against the Prometheus text exposition conventions: valid metric
// names, known types, at most one HELP and exactly one TYPE per
// family, HELP before TYPE, metadata before any sample, samples of a
// family contiguous, and every sample value parseable. It also pins
// the presence of the four critical-path phase series.
func TestPrometheusExpositionConformance(t *testing.T) {
	r := New(4, time.Now(), Options{})
	// Populate a little of everything, including the registered-callback
	// series paths.
	r.IncSlot(0, CTasksSubmitted)
	r.AddSlot(1, CPhaseReleaseNs, 42)
	r.Add(CPhaseDiscoveryNs, 7)
	r.FlushAll()
	r.ObserveSlot(0, HTaskBodyNs, 1500)
	r.RegisterGauge("taskdep_test_gauge", func() float64 { return 1.5 }, "A test gauge.")
	r.RegisterCounterFunc("taskdep_test_cfunc", func() int64 { return 3 }, "A test counter.")

	var sb strings.Builder
	if err := r.WriteMetrics(&sb); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	out := sb.String()

	helps := map[string]int{}
	types := map[string]string{}
	closed := map[string]bool{} // family already left behind in the stream
	current := ""
	sampleSeen := map[string]bool{}

	leave := func(next string) {
		if current != "" && current != next {
			closed[current] = true
		}
		current = next
	}

	sc := bufio.NewScanner(strings.NewReader(out))
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		switch {
		case strings.HasPrefix(text, "# HELP "):
			rest := strings.TrimPrefix(text, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: HELP without text: %q", line, text)
			}
			if !metricNameRe.MatchString(name) {
				t.Fatalf("line %d: bad metric name %q", line, name)
			}
			if helps[name]++; helps[name] > 1 {
				t.Fatalf("line %d: duplicate HELP for %s", line, name)
			}
			if _, typed := types[name]; typed {
				t.Fatalf("line %d: HELP for %s after its TYPE", line, name)
			}
			if closed[name] {
				t.Fatalf("line %d: family %s reopened", line, name)
			}
			leave(name)
		case strings.HasPrefix(text, "# TYPE "):
			rest := strings.TrimPrefix(text, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: TYPE without a type: %q", line, text)
			}
			if !metricNameRe.MatchString(name) {
				t.Fatalf("line %d: bad metric name %q", line, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown type %q for %s", line, typ, name)
			}
			if _, dup := types[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", line, name)
			}
			if sampleSeen[name] {
				t.Fatalf("line %d: TYPE for %s after its samples", line, name)
			}
			if closed[name] {
				t.Fatalf("line %d: family %s reopened", line, name)
			}
			types[name] = typ
			leave(name)
		case strings.HasPrefix(text, "#"):
			t.Fatalf("line %d: stray comment %q", line, text)
		default:
			fields := strings.Fields(text)
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed sample %q", line, text)
			}
			name := fields[0]
			if i := strings.IndexByte(name, '{'); i >= 0 {
				if !strings.HasSuffix(name, "}") {
					t.Fatalf("line %d: unterminated label set %q", line, name)
				}
				name = name[:i]
			}
			if !metricNameRe.MatchString(name) {
				t.Fatalf("line %d: bad sample name %q", line, name)
			}
			fam := familyOf(name, types)
			if _, typed := types[fam]; !typed {
				t.Fatalf("line %d: sample %s before its TYPE", line, name)
			}
			if closed[fam] {
				t.Fatalf("line %d: samples of %s not contiguous", line, fam)
			}
			if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
				t.Fatalf("line %d: unparseable value %q: %v", line, fields[1], err)
			}
			sampleSeen[fam] = true
			leave(fam)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}

	for fam := range sampleSeen {
		if _, ok := types[fam]; !ok {
			t.Errorf("family %s has samples but no TYPE", fam)
		}
	}
	for _, want := range []string{
		"taskdep_phase_discovery_ns_total",
		"taskdep_phase_ready_wait_ns_total",
		"taskdep_phase_execute_ns_total",
		"taskdep_phase_release_ns_total",
	} {
		if !sampleSeen[want] {
			t.Errorf("phase series %s missing from exposition", want)
		}
		if types[want] != "counter" {
			t.Errorf("phase series %s typed %q, want counter", want, types[want])
		}
	}
}
