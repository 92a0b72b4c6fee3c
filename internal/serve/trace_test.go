package serve

import (
	"expvar"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"cds/internal/trace"
)

func getTraces(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestCompareWithTrace(t *testing.T) {
	s := New(Config{})
	w := post(t, s.Handler(), "/v1/compare?trace=1", `{"workload":"MPEG"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("compare = %d: %s", w.Code, w.Body.String())
	}
	resp := decode[CompareResponse](t, w)
	if len(resp.Traces) != 3 {
		t.Fatalf("%d trace analytics, want 3 (basic/ds/cds)", len(resp.Traces))
	}
	labels := []string{"basic", "ds", "cds"}
	for i, a := range resp.Traces {
		if a.Label != labels[i] {
			t.Errorf("trace %d labeled %q, want %q", i, a.Label, labels[i])
		}
		if a.Makespan <= 0 || a.RCUtilPct <= 0 || a.DMAUtilPct <= 0 {
			t.Errorf("trace %d has empty analytics: %+v", i, a)
		}
		if sum := a.Path.Compute + a.Path.ExposedCtx + a.Path.ExposedLoad +
			a.Path.ExposedStore + a.Path.Dead; sum != a.Makespan {
			t.Errorf("trace %d decomposition %d != makespan %d", i, sum, a.Makespan)
		}
	}
	// The analytics totals must agree with the scheduler results served
	// in the same answer.
	if resp.Traces[0].Makespan != resp.Basic.TotalCycles ||
		resp.Traces[2].Makespan != resp.CDS.TotalCycles {
		t.Errorf("trace makespans %d/%d != results %d/%d",
			resp.Traces[0].Makespan, resp.Traces[2].Makespan,
			resp.Basic.TotalCycles, resp.CDS.TotalCycles)
	}
	// The overlap story orders the schedulers.
	if !(resp.Traces[2].OverlapPct > resp.Traces[0].OverlapPct) {
		t.Errorf("cds overlap %.1f%% not above basic %.1f%%",
			resp.Traces[2].OverlapPct, resp.Traces[0].OverlapPct)
	}

	// Without ?trace=1 the answer carries no analytics.
	w = post(t, s.Handler(), "/v1/compare", `{"workload":"MPEG"}`)
	if resp := decode[CompareResponse](t, w); len(resp.Traces) != 0 {
		t.Errorf("untraced answer carries %d analytics", len(resp.Traces))
	}
}

func TestCompareTraceCachedAnswer(t *testing.T) {
	s := New(Config{})
	// Warm the result cache without tracing...
	if w := post(t, s.Handler(), "/v1/compare", `{"workload":"E1"}`); w.Code != http.StatusOK {
		t.Fatalf("warmup = %d", w.Code)
	}
	// ...then ask the cached answer for analytics.
	w := post(t, s.Handler(), "/v1/compare?trace=1", `{"workload":"E1"}`)
	resp := decode[CompareResponse](t, w)
	if !resp.Cached {
		t.Skip("result caching disabled in this configuration")
	}
	if len(resp.Traces) != 3 {
		t.Fatalf("cached answer has %d trace analytics, want 3", len(resp.Traces))
	}
	if resp.Traces[2].Makespan != resp.CDS.TotalCycles {
		t.Errorf("cached trace makespan %d != result %d", resp.Traces[2].Makespan, resp.CDS.TotalCycles)
	}
}

func TestDebugTracesRing(t *testing.T) {
	s := New(Config{})
	// Ring starts empty.
	w := getTraces(t, s.Handler(), "/debug/traces")
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/traces = %d", w.Code)
	}
	if resp := decode[TracesResponse](t, w); len(resp.Entries) != 0 {
		t.Fatalf("fresh ring has %d entries", len(resp.Entries))
	}

	post(t, s.Handler(), "/v1/compare?trace=1", `{"workload":"MPEG"}`)
	post(t, s.Handler(), "/v1/compare?trace=1", `{"workload":"E1"}`)
	resp := decode[TracesResponse](t, getTraces(t, s.Handler(), "/debug/traces"))
	if len(resp.Entries) != 2 {
		t.Fatalf("%d ring entries, want 2", len(resp.Entries))
	}
	if resp.Entries[0].Label != "MPEG" || resp.Entries[1].Label != "E1" {
		t.Errorf("labels %q/%q", resp.Entries[0].Label, resp.Entries[1].Label)
	}
	if resp.Stats.TraceRequests != 2 || resp.Stats.Recorded != 2 || resp.Stats.Bytes <= 0 {
		t.Errorf("stats %+v", resp.Stats)
	}
	// Analytics come back but Chrome payloads need ?full=1.
	if resp.Entries[0].Analytics.Makespan <= 0 {
		t.Error("entry missing analytics")
	}
	if len(resp.Entries[0].Chrome) != 0 {
		t.Error("chrome payload served without ?full=1")
	}

	full := decode[TracesResponse](t, getTraces(t, s.Handler(), "/debug/traces?full=1"))
	if len(full.Entries[0].Chrome) == 0 {
		t.Fatal("?full=1 did not include the chrome payload")
	}
	if _, err := trace.ValidateChrome(strings.NewReader(string(full.Entries[0].Chrome))); err != nil {
		t.Errorf("ring chrome payload invalid: %v", err)
	}
}

// TestDebugTracesBounded pins the no-unbounded-growth guarantee: a tiny
// byte budget keeps the ring within bounds no matter how many traced
// requests arrive, while analytics keep flowing inline.
func TestDebugTracesBounded(t *testing.T) {
	s := New(Config{TraceRingEntries: 4, TraceRingBytes: 512})
	for i := 0; i < 12; i++ {
		w := post(t, s.Handler(), "/v1/compare?trace=1", `{"workload":"E1"}`)
		if w.Code != http.StatusOK {
			t.Fatalf("compare %d = %d", i, w.Code)
		}
		if resp := decode[CompareResponse](t, w); len(resp.Traces) == 0 {
			t.Fatalf("request %d lost its inline analytics", i)
		}
		st := decode[TracesResponse](t, getTraces(t, s.Handler(), "/debug/traces")).Stats
		if st.Entries > 4 || st.Bytes > 512 {
			t.Fatalf("ring exceeded bounds after %d requests: %+v", i, st)
		}
	}
	st := decode[TracesResponse](t, getTraces(t, s.Handler(), "/debug/traces")).Stats
	if st.TraceRequests != 12 {
		t.Errorf("trace_requests = %d, want 12", st.TraceRequests)
	}
	// An E1 triple-trace is bigger than 512 B, so every admission was
	// either evicted-to-fit or rejected oversize — both bounded.
	if st.Recorded+st.Oversize != 12 {
		t.Errorf("recorded %d + oversize %d != 12", st.Recorded, st.Oversize)
	}
}

func TestTraceSampling(t *testing.T) {
	s := New(Config{TraceSampleEvery: 3})
	for i := 0; i < 7; i++ {
		w := post(t, s.Handler(), "/v1/compare?trace=1", `{"workload":"E1"}`)
		if resp := decode[CompareResponse](t, w); len(resp.Traces) == 0 {
			t.Fatalf("request %d: sampling must not drop inline analytics", i)
		}
	}
	st := decode[TracesResponse](t, getTraces(t, s.Handler(), "/debug/traces")).Stats
	// Requests 1, 4 and 7 are kept.
	if st.Recorded != 3 {
		t.Errorf("recorded %d of 7 with sample-every=3, want 3", st.Recorded)
	}
	if st.TraceRequests != 7 {
		t.Errorf("trace_requests = %d, want 7", st.TraceRequests)
	}
}

// TestTraceExpvar checks the "schedd_traces" expvar publishes through
// the once-guarded registry: constructing many servers (as tests do)
// must not panic on duplicate expvar names, and the var must reflect
// ring activity.
func TestTraceExpvar(t *testing.T) {
	a := New(Config{})
	b := New(Config{}) // second server in one process: must not panic
	post(t, a.Handler(), "/v1/compare?trace=1", `{"workload":"E1"}`)

	v := expvar.Get("schedd_traces")
	if v == nil {
		t.Fatal("schedd_traces expvar not published")
	}
	out := fmt.Sprint(v)
	if !strings.Contains(out, "trace_requests") {
		t.Errorf("expvar output missing counters: %s", out)
	}

	// The hardening counters sum over every registered server: bumping
	// a's and b's counters moves each expvar by exactly the bump.
	sums := map[string]func(*Server) *atomic.Int64{
		"schedd_panics":          func(s *Server) *atomic.Int64 { return &s.panics },
		"schedd_idem_hits":       func(s *Server) *atomic.Int64 { return &s.idemHits },
		"schedd_idem_collisions": func(s *Server) *atomic.Int64 { return &s.idemCollisions },
	}
	for name, counter := range sums {
		v := expvar.Get(name)
		if v == nil {
			t.Fatalf("%s expvar not published", name)
		}
		before := v.(expvar.Func)().(int64)
		counter(a).Add(2)
		counter(b).Add(3)
		if got := v.(expvar.Func)().(int64); got != before+5 {
			t.Errorf("%s = %d after bumping a by 2 and b by 3, want %d", name, got, before+5)
		}
	}
}
