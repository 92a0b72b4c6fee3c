package sim

// The streaming execution model. The static policy models the offline
// machine: every visit's transfers are known up front, so the DMA issues
// them as soon as the channel frees — overlap with the previous visit's
// compute is emergent and unconditional.
//
// An online executor does not have that luxury. Work arrives as a
// stream (each visit carries a Ready cycle — its segment's arrival
// time), and the naive executor only turns to visit v's transfers after
// visit v-1's compute completes: context and data loads serialize
// behind the previous compute window. RunStream models exactly that
// baseline, and — with Prefetch enabled — recovers the overlap where
// residency permits, following Resano et al.'s prefetch heuristic:
//
//   - FB residency: visit v's loads refill v's Frame Buffer set, so they
//     may only run under visit v-1's compute when v-1 computes out of a
//     DIFFERENT set (the double buffer);
//   - CM residency: hoisting v's context words must not evict a context
//     group the executing visit still runs under. With group-granularity
//     FIFO eviction the conservative safe condition is that v's context
//     words fit beside v-1's whole context working set
//     (v.CtxWords + GroupWords(v-1) <= CMWords).
//
// When either condition fails the executor falls back to the serialized
// baseline for that visit. The baseline and prefetch are the online and
// prefetch issue policies of the one walk; everything else is the static
// machine. Hoisted context bursts are recorded as trace.KindPrefetch
// spans; internal/verify's "prefetch" invariant family checks the
// residency conditions and the single-channel DMA serialization over the
// recorded timeline.

import (
	"fmt"

	"cds/internal/core"
	"cds/internal/trace"
)

// StreamVisit carries one visit's streaming-side inputs, parallel to the
// schedule's execution order.
type StreamVisit struct {
	// Ready is the earliest cycle the visit's DMA transfers may issue —
	// its stream segment's arrival time. 0 means known at t=0.
	Ready int
	// GroupWords is the visit's context working set: the deduplicated
	// context words of every group its kernels run under (not the words
	// actually transferred, which CM reuse may have reduced). The
	// prefetch CM-residency check reads it.
	GroupWords int
}

// StreamOpts configures one streaming simulation.
type StreamOpts struct {
	// Visits holds the per-visit streaming inputs; nil means every visit
	// is ready at t=0 with a zero context working set (which disables
	// only the CM half of the residency check when CtxWords is 0 too).
	// When non-nil its length must match the schedule's visit count.
	Visits []StreamVisit
	// Prefetch enables hoisting the next visit's transfers into the
	// current compute window where residency permits. Off, RunStream is
	// the serialized online baseline.
	Prefetch bool
}

// RunStream simulates the schedule under the online streaming model and
// returns the timing result (PrefetchCycles/PrefetchCount report the
// hoisted context traffic).
func RunStream(s *core.Schedule, o StreamOpts) (*Result, error) {
	return RunStreamTraced(s, nil, o)
}

// RunStreamTraced is RunStream recording every span into rec — the same
// walk, so traced and untraced results are identical by construction.
func RunStreamTraced(s *core.Schedule, rec *trace.Recorder, o StreamOpts) (*Result, error) {
	if err := checkSchedule(s); err != nil {
		return nil, err
	}
	if o.Visits != nil && len(o.Visits) != s.NumVisits() {
		return nil, fmt.Errorf("sim: stream opts carry %d visits, schedule has %d",
			len(o.Visits), s.NumVisits())
	}
	l := newLane(s)
	l.stream = o.Visits
	pol := online
	if o.Prefetch {
		pol = prefetch
	}
	return walkOne(l, pol, rec), nil
}

// TraceStream simulates the schedule under the streaming model and
// returns both the result and the recorded timeline.
func TraceStream(s *core.Schedule, label string, o StreamOpts) (*Result, *trace.Timeline, error) {
	rec := trace.NewRecorder()
	r, err := RunStreamTraced(s, rec, o)
	if err != nil {
		return nil, nil, err
	}
	if label == "" {
		label = "stream"
		if s.Scheduler != "" {
			label = s.Scheduler
		}
	}
	return r, rec.Timeline(label, r.TotalCycles), nil
}
