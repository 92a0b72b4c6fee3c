package serve

import (
	"bytes"
	"encoding/json"
	"expvar"
	"net/http"
	"sync"

	"cds"
	"cds/internal/sim"
	"cds/internal/trace"
)

// Tracing in the serving layer: /v1/compare?trace=1 answers with
// per-scheduler timeline analytics inline (utilization, overlap
// efficiency, critical-path decomposition), and a sampled, byte-budgeted
// in-memory ring keeps the most recent traced comparisons for
// GET /debug/traces — post-hoc inspection of a live daemon without
// unbounded growth. Timelines are re-derived from the deterministic
// schedules, so cached comparison answers trace exactly like fresh ones.

// TraceRingStats is the counters block of a /debug/traces answer.
type TraceRingStats struct {
	// TraceRequests counts /v1/compare answers that carried analytics.
	TraceRequests int64 `json:"trace_requests"`
	// Recorded/Evicted/Oversize are the ring's admission counters.
	Recorded int64 `json:"recorded"`
	Evicted  int64 `json:"evicted"`
	Oversize int64 `json:"oversize"`
	// Entries and Bytes gauge the ring's current residency.
	Entries int `json:"entries"`
	Bytes   int `json:"bytes"`
}

// TraceEntry is one recorded comparison in a /debug/traces answer.
type TraceEntry struct {
	Label string `json:"label"`
	Seq   int64  `json:"seq"`
	// Analytics summarizes the best schedule's timeline (CDS when it
	// survived, else the last surviving scheduler's).
	Analytics trace.Analytics `json:"analytics"`
	// Chrome is the full Chrome trace of every surviving scheduler's
	// timeline, included only under ?full=1.
	Chrome json.RawMessage `json:"chrome,omitempty"`
}

// TracesResponse is the JSON answer of GET /debug/traces.
type TracesResponse struct {
	Stats   TraceRingStats `json:"stats"`
	Entries []TraceEntry   `json:"entries"`
}

// The schedd_* expvars aggregate over every server in the process:
// "schedd_traces" snapshots each server's ring counters, and
// "schedd_panics", "schedd_idem_hits" and "schedd_idem_collisions" sum
// the hardening counters (harden.go). Publish panics on duplicate
// names, so servers enter a registry and one sync.Once publishes Funcs
// that read it — the same pattern as the "rescache" expvar (multiple
// servers per process, tests constructing servers repeatedly).
var (
	expvarOnce       sync.Once
	serverRegistryMu sync.Mutex
	serverRegistry   []*Server
)

func registerExpvars(s *Server) {
	serverRegistryMu.Lock()
	serverRegistry = append(serverRegistry, s)
	serverRegistryMu.Unlock()
	expvarOnce.Do(func() {
		expvar.Publish("schedd_traces", expvar.Func(func() any {
			serverRegistryMu.Lock()
			defer serverRegistryMu.Unlock()
			out := make([]TraceRingStats, 0, len(serverRegistry))
			for _, srv := range serverRegistry {
				out = append(out, srv.traceStats())
			}
			return out
		}))
		expvar.Publish("schedd_panics", sumExpvar(func(srv *Server) int64 { return srv.panics.Load() }))
		expvar.Publish("schedd_idem_hits", sumExpvar(func(srv *Server) int64 { return srv.idemHits.Load() }))
		expvar.Publish("schedd_idem_collisions", sumExpvar(func(srv *Server) int64 { return srv.idemCollisions.Load() }))
	})
}

// sumExpvar is an expvar whose value is counter summed over every
// registered server.
func sumExpvar(counter func(*Server) int64) expvar.Func {
	return func() any {
		serverRegistryMu.Lock()
		defer serverRegistryMu.Unlock()
		var total int64
		for _, srv := range serverRegistry {
			total += counter(srv)
		}
		return total
	}
}

func (s *Server) traceStats() TraceRingStats {
	st := s.traces.Stats()
	return TraceRingStats{
		TraceRequests: s.traceReqs.Load(),
		Recorded:      st.Recorded,
		Evicted:       st.Evicted,
		Oversize:      st.Oversize,
		Entries:       st.Entries,
		Bytes:         st.Bytes,
	}
}

// maybeTrace derives the per-scheduler timeline analytics for a
// comparison answer when the request asked for them, and (sampled)
// records the full trace into the debug ring. Tracing is re-simulation
// of the surviving schedules — deterministic and cheap relative to
// scheduling — so it works identically for cached and fresh answers.
func (s *Server) maybeTrace(want bool, target string, cmp *cds.Comparison) []trace.Analytics {
	if !want || cmp == nil {
		return nil
	}
	var tls []*trace.Timeline
	for _, res := range []*cds.Result{cmp.Basic, cmp.DS, cmp.CDS} {
		if res == nil {
			continue
		}
		_, tl, err := sim.Trace(res.Schedule)
		if err != nil {
			// A schedule that was produced but does not simulate is a bug
			// elsewhere; the comparison answer must not fail over tracing.
			s.cfg.Logf("serve: trace %s: %v", target, err)
			continue
		}
		tls = append(tls, tl)
	}
	if len(tls) == 0 {
		return nil
	}
	out := make([]trace.Analytics, len(tls))
	for i, tl := range tls {
		out[i] = trace.Analyze(tl)
	}
	s.traceReqs.Add(1)

	// Sampled ring admission: every Nth traced answer keeps its full
	// Chrome payload for /debug/traces.
	every := int64(s.cfg.TraceSampleEvery)
	if n := s.traceSeen.Add(1); (n-1)%every == 0 {
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, tls...); err == nil {
			s.traces.Add(trace.RingEntry{
				Label:     target,
				Analytics: out[len(out)-1],
				Chrome:    buf.Bytes(),
			})
		}
	}
	return out
}

// handleTraces serves the bounded ring of recently traced comparisons:
// analytics per entry, plus the full Chrome payloads under ?full=1.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	full := r.URL.Query().Get("full") == "1"
	snap := s.traces.Snapshot()
	resp := TracesResponse{
		Stats:   s.traceStats(),
		Entries: make([]TraceEntry, 0, len(snap)),
	}
	for _, e := range snap {
		te := TraceEntry{Label: e.Label, Seq: e.Seq, Analytics: e.Analytics}
		if full {
			te.Chrome = json.RawMessage(e.Chrome)
		}
		resp.Entries = append(resp.Entries, te)
	}
	WriteJSON(w, http.StatusOK, resp)
}
