package sim

import (
	"cmp"
	"fmt"
	"slices"

	"cds/internal/core"
	"cds/internal/trace"
)

// policy says when a visit's transfers may issue on the DMA channel.
type policy int8

const (
	// static issues as soon as the channel is free: the offline machine,
	// where every transfer is known up front.
	static policy = iota
	// online issues only after the lane's previous visit computed: the
	// serialized streaming baseline.
	online
	// prefetch is online, except that a visit whose FB set and context
	// words fit beside the executing visit issues under its compute
	// (Resano et al.'s hybrid prefetch).
	prefetch
)

// lane is one schedule the walk executes, plus the walk's per-lane
// output.
type lane struct {
	s *core.Schedule
	// stream holds per-visit streaming inputs, parallel to s.Visits;
	// nil means every visit is ready at cycle 0 with an empty context
	// working set.
	stream []StreamVisit
	// arrive is the first cycle any of the lane's transfers may issue.
	arrive int
	// oneSet maps every visit onto a single FB set: a machine without
	// the double buffer, where a visit's loads wait for the previous
	// visit's stores.
	oneSet bool

	// res accumulates the lane's traffic, stalls and visit intervals;
	// its TotalCycles is left to the caller.
	res Result
	// done is the cycle the lane's last compute or store finished.
	done int
}

func newLane(s *core.Schedule) lane {
	return lane{s: s, res: Result{
		VisitStart: make([]int, len(s.Visits)),
		VisitEnd:   make([]int, len(s.Visits)),
	}}
}

// checkSchedule rejects a nil schedule or an invalid machine.
func checkSchedule(s *core.Schedule) error {
	if s == nil {
		return fmt.Errorf("sim: nil schedule")
	}
	return s.Arch.Validate()
}

// walkOne walks a single lane over all its visits and returns its result.
func walkOne(l lane, pol policy, rec *trace.Recorder) *Result {
	lanes := []lane{l}
	total := walk(lanes, []TenantSlice{{N: len(l.s.Visits)}}, pol, rec, nil)
	lanes[0].res.TotalCycles = total
	return &lanes[0].res
}

func (l *lane) streamVisit(vi int) StreamVisit {
	if l.stream == nil {
		return StreamVisit{}
	}
	return l.stream[vi]
}

// pending is a visit whose stores have not drained yet; at most one per
// (lane, FB set).
type pending struct{ lane, set, visit, end int }

// walk is the machine model (see the package comment). It executes the
// slices of order, each a run of one lane's visits, on one DMA channel
// and one RC array, and returns the makespan. Each visit:
//
//  1. drains the stores of the lane's previous visit on its FB set,
//     which cannot start before that visit's compute ends;
//  2. issues its context burst and then its data loads, no earlier than
//     the channel frees, the lane arrives, the visit is ready, and what
//     the policy allows;
//  3. computes once its loads are done and the array is free.
//
// Trailing stores drain last, oldest compute first. Lanes never share
// FB sets: tenant quotas partition the Frame Buffer. When sliceStart is
// non-nil, sliceStart[si] receives the cycle slice si's first transfer
// issued. A nil rec records nothing and costs nothing.
func walk(lanes []lane, order []TenantSlice, pol policy, rec *trace.Recorder, sliceStart []int) int {
	// At most one pending visit per (lane, FB set): a small stack buffer
	// keeps the common cases off the heap.
	var buf [8]pending
	stores := buf[:0]
	dmaFree, rcFree := 0, 0

	drain := func(q pending) {
		l := &lanes[q.lane]
		v := &l.s.Visits[q.visit]
		start := max(dmaFree, q.end)
		for _, m := range v.Stores {
			cost := l.s.Arch.DataCycles(m.Bytes)
			rec.Span(trace.Span{
				Resource: trace.DMA, Kind: trace.KindStore, Name: m.Datum,
				Start: start, End: start + cost,
				Cluster: v.Cluster, Block: v.Block, Visit: q.visit, Set: v.Set,
				Bytes: m.Bytes,
			})
			start += cost
			l.res.DataCycles += cost
			l.res.StoreBytes += m.Bytes
		}
		dmaFree = start
		l.done = max(l.done, start)
	}

	for si, sl := range order {
		l := &lanes[sl.Lane]
		p := l.s.Arch
		for vi := sl.First; vi < sl.First+sl.N; vi++ {
			v := &l.s.Visits[vi]
			set := v.Set
			if l.oneSet {
				set = 0
			}
			pi := slices.IndexFunc(stores, func(q pending) bool { return q.lane == sl.Lane && q.set == set })
			if pi >= 0 {
				drain(stores[pi])
			}

			issue := max(dmaFree, l.arrive, l.streamVisit(vi).Ready)
			prefetched := false
			if vi > 0 && pol != static {
				pv, prevEnd := &l.s.Visits[vi-1], l.res.VisitEnd[vi-1]
				hoist := pol == prefetch && v.Set != pv.Set &&
					v.CtxWords+l.streamVisit(vi-1).GroupWords <= p.CMWords
				if !hoist {
					issue = max(issue, prevEnd)
				}
				prefetched = hoist && issue < prevEnd
			}
			if sliceStart != nil && vi == sl.First {
				sliceStart[si] = issue
			}

			ctxCost := p.ContextCycles(v.CtxWords)
			kind := trace.KindContext
			if prefetched && ctxCost > 0 {
				kind = trace.KindPrefetch
				l.res.PrefetchCycles += ctxCost
				l.res.PrefetchCount++
			}
			rec.Span(trace.Span{
				Resource: trace.DMA, Kind: kind,
				Start: issue, End: issue + ctxCost,
				Cluster: v.Cluster, Block: v.Block, Visit: vi, Set: v.Set,
				Words: v.CtxWords,
			})
			l.res.CtxCycles += ctxCost
			l.res.CtxWords += v.CtxWords
			dmaFree = issue + ctxCost
			for _, m := range v.Loads {
				cost := p.DataCycles(m.Bytes)
				rec.Span(trace.Span{
					Resource: trace.DMA, Kind: trace.KindLoad, Name: m.Datum,
					Start: dmaFree, End: dmaFree + cost,
					Cluster: v.Cluster, Block: v.Block, Visit: vi, Set: v.Set,
					Bytes: m.Bytes,
				})
				dmaFree += cost
				l.res.DataCycles += cost
				l.res.LoadBytes += m.Bytes
			}

			start := max(dmaFree, rcFree)
			l.res.StallCycles += start - rcFree
			rcFree = start + v.ComputeCycles
			l.res.VisitStart[vi] = start
			l.res.VisitEnd[vi] = rcFree
			l.res.ComputeCycles += v.ComputeCycles
			l.done = max(l.done, rcFree)
			rec.Span(trace.Span{
				Resource: trace.RCArray, Kind: trace.KindCompute,
				Start: start, End: rcFree,
				Cluster: v.Cluster, Block: v.Block, Visit: vi, Set: v.Set,
			})
			if rec != nil && vi > 0 && v.Set != l.s.Visits[vi-1].Set {
				rec.Mark(trace.Mark{
					Kind: trace.MarkFBSwitch, Cycle: start, Visit: vi,
					Name: switchLabel(l.s.Visits[vi-1].Set, v.Set),
				})
			}

			if next := (pending{sl.Lane, set, vi, rcFree}); pi >= 0 {
				stores[pi] = next
			} else {
				stores = append(stores, next)
			}
		}
	}

	slices.SortFunc(stores, func(a, b pending) int {
		return cmp.Or(cmp.Compare(a.end, b.end), cmp.Compare(a.lane, b.lane), cmp.Compare(a.visit, b.visit))
	})
	for _, q := range stores {
		drain(q)
	}
	return max(rcFree, dmaFree)
}

// switchLabel names an FB set switch mark. The two-set machine's labels
// are constants, so recording them allocates nothing.
func switchLabel(from, to int) string {
	switch {
	case from == 0 && to == 1:
		return "set 0 -> 1"
	case from == 1 && to == 0:
		return "set 1 -> 0"
	}
	return fmt.Sprintf("set %d -> %d", from, to)
}
