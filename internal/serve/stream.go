package serve

// POST /v1/stream: the incremental online-scheduling endpoint. The body
// is a StreamRequest wrapping an arrival log (internal/stream's JSON
// shape). The server plans it with its daemon-lived planner — segment
// schedules are memoized across requests under content fingerprints, so
// a client following an evolving stream re-posts the whole log and pays
// CDS only for the segments that changed — then executes the stitched
// schedule under the streaming simulator (serialized and prefetching),
// audits both runs against the prefetch invariant family, and answers
// with the per-segment plan, the reuse split and both makespans.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"cds/internal/scherr"
	"cds/internal/sim"
	"cds/internal/stream"
	"cds/internal/trace"
	"cds/internal/verify"
)

// StreamRequest is the POST /v1/stream body.
type StreamRequest struct {
	// Log is the arrival log to plan (stream.Log's JSON shape).
	Log json.RawMessage `json:"log"`
}

// StreamSegment is one segment's slice of the StreamResponse.
type StreamSegment struct {
	Name string `json:"name"`
	At   int    `json:"at"`
	// Fingerprint is the content key (hex) the segment's schedule is
	// memoized under.
	Fingerprint string `json:"fingerprint"`
	RF          int    `json:"rf"`
	Visits      int    `json:"visits"`
	// Reused reports whether this request took the segment's schedule
	// from the memo instead of running CDS.
	Reused bool `json:"reused"`
}

// StreamResponse is the JSON answer of /v1/stream.
type StreamResponse struct {
	Name     string          `json:"name"`
	Segments []StreamSegment `json:"segments"`
	// Reused and Replanned count this request's memo hits and CDS runs;
	// MemoSegments is the planner's residency after the request.
	Reused       int `json:"reused"`
	Replanned    int `json:"replanned"`
	MemoSegments int `json:"memo_segments"`
	// SerialCycles and PrefetchCycles are the streamed makespans without
	// and with context prefetch; PrefetchedBursts counts hoisted context
	// loads.
	SerialCycles     int    `json:"serial_cycles"`
	PrefetchCycles   int    `json:"prefetch_cycles"`
	PrefetchedBursts int    `json:"prefetched_bursts"`
	WorkerID         string `json:"worker_id,omitempty"`
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.writeErr(w, fmt.Errorf("reading request body: %v: %w", err, scherr.ErrInvalidSpec))
		return
	}
	var req StreamRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.writeErr(w, fmt.Errorf("decoding request body: %v: %w", err, scherr.ErrInvalidSpec))
		return
	}
	if len(req.Log) == 0 {
		s.writeErr(w, fmt.Errorf("request needs an arrival log: %w", scherr.ErrInvalidSpec))
		return
	}
	lg, err := stream.ParseLog(req.Log)
	if err != nil {
		s.writeErr(w, err)
		return
	}

	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	s.served.Add(1)
	s.streamReqs.Add(1)

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	plan, err := s.planner.Plan(ctx, lg)
	if err != nil {
		s.cfg.Logf("serve: stream %s: %v", lg.Name, err)
		s.writeErr(w, err)
		return
	}
	s.streamReused.Add(int64(plan.Reused))

	resp := StreamResponse{
		Name:         plan.Name,
		Reused:       plan.Reused,
		Replanned:    plan.Replanned,
		MemoSegments: s.planner.MemoLen(),
		WorkerID:     s.cfg.WorkerID,
	}
	for _, seg := range plan.Segments {
		resp.Segments = append(resp.Segments, StreamSegment{
			Name:        seg.Name,
			At:          seg.At,
			Fingerprint: fmt.Sprintf("%x", seg.Fingerprint),
			RF:          seg.RF,
			Visits:      seg.Schedule.NumVisits(),
			Reused:      seg.Reused,
		})
	}
	for _, prefetch := range []bool{false, true} {
		res, tl, rerr := plan.Trace(prefetch, plan.Name)
		if rerr != nil {
			s.writeErr(w, rerr)
			return
		}
		if verr := s.verifyStream(plan, prefetch, res, tl); verr != nil {
			s.cfg.Logf("serve: stream %s: %v", lg.Name, verr)
			s.writeErr(w, verr)
			return
		}
		if prefetch {
			resp.PrefetchCycles = res.TotalCycles
			resp.PrefetchedBursts = res.PrefetchCount
		} else {
			resp.SerialCycles = res.TotalCycles
		}
	}

	s.cfg.Logf("serve: stream %s: ok (%d segments, %d reused, %d replanned)",
		lg.Name, len(plan.Segments), plan.Reused, plan.Replanned)
	WriteJSON(w, http.StatusOK, resp)
}

// verifyStream audits one streamed execution before it is served: a
// schedule that fails its own invariants must never reach a client.
func (s *Server) verifyStream(plan *stream.Plan, prefetch bool, res *sim.Result, tl *trace.Timeline) error {
	return verify.StreamTimeline(plan.Schedule, plan.Opts(prefetch), res, tl)
}
