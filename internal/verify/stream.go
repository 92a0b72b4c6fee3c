package verify

// The "prefetch" invariant family: post-hoc checks over a streamed
// execution (sim.RunStream). The streaming executor may hoist the next
// visit's context words into the current visit's compute window, and
// this family proves the hoisting never cheated:
//
//   - single-channel DMA serialization still holds (the recorded spans
//     tile each resource track without overlap);
//   - every visit's context and data loads complete before its compute
//     starts (contexts resident before execution), and never issue
//     before the visit's stream arrival (Ready);
//   - every prefetch span really was a hoist (it starts inside the
//     previous visit's compute window) and was legal: the previous
//     visit computes out of a different FB set, and the hoisted words
//     fit beside the previous visit's context working set in the CM;
//   - without prefetch, no transfer for visit v starts before visit
//     v-1's compute ends (the serialized online baseline), and no
//     prefetch spans exist at all;
//   - the trace's busy totals equal the simulator's reported cycles,
//     with hoisted context bursts counted as context traffic.
//
// Violations match scherr.ErrVerify like every other family.

import (
	"cds/internal/core"
	"cds/internal/sim"
	"cds/internal/trace"
)

// Stream simulates the schedule under the streaming model with the
// given options and audits the prefetch invariant family against the
// recorded timeline. A nil error means the streamed execution is sound.
func Stream(s *core.Schedule, o sim.StreamOpts) error {
	if s == nil {
		return violated("prefetch", "nil schedule")
	}
	res, tl, err := sim.TraceStream(s, "", o)
	if err != nil {
		return &Error{Invariant: "prefetch", Err: err}
	}
	return StreamTimeline(s, o, res, tl)
}

// StreamTimeline audits an already-recorded streamed execution. Callers
// that traced the run themselves (serving layers, the CLI) use it to
// avoid simulating twice.
func StreamTimeline(s *core.Schedule, o sim.StreamOpts, res *sim.Result, tl *trace.Timeline) error {
	if s == nil || res == nil || tl == nil {
		return violated("prefetch", "nil schedule, result or timeline")
	}
	n := s.NumVisits()
	if o.Visits != nil && len(o.Visits) != n {
		return violated("prefetch", "stream opts carry %d visits, schedule has %d", len(o.Visits), n)
	}
	ready := func(vi int) int {
		if o.Visits == nil {
			return 0
		}
		return o.Visits[vi].Ready
	}
	groupWords := func(vi int) int {
		if o.Visits == nil {
			return 0
		}
		return o.Visits[vi].GroupWords
	}

	// DMA serialization and exact tiling of both resource tracks.
	if err := trace.CheckTiling(tl); err != nil {
		return &Error{Invariant: "prefetch", Err: err}
	}

	if len(res.VisitStart) != n || len(res.VisitEnd) != n {
		return violated("prefetch", "result carries %d visit intervals, schedule has %d",
			len(res.VisitStart), n)
	}

	prefetchBusy := 0
	for _, sp := range tl.Spans {
		if sp.Resource != trace.DMA {
			continue
		}
		vi := sp.Visit
		if vi < 0 || vi >= n {
			return violated("prefetch", "span %q [%d,%d) names visit %d of %d",
				sp.Name, sp.Start, sp.End, vi, n)
		}
		switch sp.Kind {
		case trace.KindStore:
			// Stores drain after their visit's compute; the tiling check
			// already constrains them.
			continue
		case trace.KindContext, trace.KindPrefetch, trace.KindLoad:
			if sp.End > res.VisitStart[vi] {
				return violated("prefetch", "visit %d: %s %q [%d,%d) not resident before compute start %d",
					vi, sp.Kind, sp.Name, sp.Start, sp.End, res.VisitStart[vi])
			}
			if sp.Start < ready(vi) {
				return violated("prefetch", "visit %d: %s %q issues at %d before stream arrival %d",
					vi, sp.Kind, sp.Name, sp.Start, ready(vi))
			}
			if !o.Prefetch && vi > 0 && sp.Start < res.VisitEnd[vi-1] {
				return violated("prefetch", "visit %d: %s %q issues at %d inside the previous compute window ending %d with prefetch disabled",
					vi, sp.Kind, sp.Name, sp.Start, res.VisitEnd[vi-1])
			}
		}
		if sp.Kind != trace.KindPrefetch {
			continue
		}
		prefetchBusy += sp.Dur()
		if !o.Prefetch {
			return violated("prefetch", "visit %d: prefetch span [%d,%d) recorded with prefetch disabled",
				vi, sp.Start, sp.End)
		}
		if vi == 0 {
			return violated("prefetch", "visit 0: prefetch span [%d,%d) has no predecessor to hide under",
				sp.Start, sp.End)
		}
		if sp.Start >= res.VisitEnd[vi-1] {
			return violated("prefetch", "visit %d: prefetch span starts at %d, after the previous compute window ends at %d",
				vi, sp.Start, res.VisitEnd[vi-1])
		}
		v := s.Visit(vi)
		if v.Set == s.Visit(vi-1).Set {
			return violated("prefetch", "visit %d: prefetch into FB set %d while visit %d computes out of it",
				vi, v.Set, vi-1)
		}
		if v.CtxWords+groupWords(vi-1) > s.Arch.CMWords {
			return violated("prefetch", "visit %d: prefetching %d context words would evict visit %d's %d-word working set (CM holds %d)",
				vi, v.CtxWords, vi-1, groupWords(vi-1), s.Arch.CMWords)
		}
	}

	// Busy totals: the trace must account for exactly the simulator's
	// reported traffic, hoisted context bursts included.
	if busy := tl.BusyKind(trace.KindContext) + tl.BusyKind(trace.KindPrefetch); busy != res.CtxCycles {
		return violated("prefetch", "context spans total %d cycles, simulator reports %d", busy, res.CtxCycles)
	}
	if prefetchBusy != res.PrefetchCycles {
		return violated("prefetch", "prefetch spans total %d cycles, simulator reports %d", prefetchBusy, res.PrefetchCycles)
	}
	if busy := tl.BusyKind(trace.KindLoad) + tl.BusyKind(trace.KindStore); busy != res.DataCycles {
		return violated("prefetch", "data spans total %d cycles, simulator reports %d", busy, res.DataCycles)
	}
	if busy := tl.BusyKind(trace.KindCompute); busy != res.ComputeCycles {
		return violated("prefetch", "compute spans total %d cycles, simulator reports %d", busy, res.ComputeCycles)
	}
	return nil
}
