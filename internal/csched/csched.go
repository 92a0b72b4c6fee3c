// Package csched is the context scheduler of the MorphoSys compilation
// framework (Maestre et al., ISSS'99): given a data schedule, it decides
// when each kernel's context words are transferred so that as few context
// loads as possible are exposed (i.e. fail to overlap with computation).
//
// The mechanism on M1: while one cluster computes, the DMA may fill the
// Context Memory for the next cluster, provided the CM has room for both
// clusters' contexts at once. The context scheduler verifies that
// double-buffering condition and classifies each visit's context traffic
// as overlapped or exposed. Its walk is a store-free estimate of
// internal/sim's machine model: context and data loads share the DMA
// channel and compute waits for them, but stores never occupy the
// channel, so wherever stores contend for it this DMA horizon runs ahead
// of the simulator's.
package csched

import (
	"fmt"

	"cds/internal/core"
)

// VisitPlan describes the placement of one visit's context loads.
type VisitPlan struct {
	// Visit indexes into Schedule.Visits.
	Visit int
	// Words is the context volume the visit loads.
	Words int
	// Cycles is its DMA cost.
	Cycles int
	// OverlappedCycles is the part hidden under the previous visit's
	// computation; ExposedCycles the part the RC array waits for.
	OverlappedCycles, ExposedCycles int
}

// Plan is the context schedule for a whole data schedule.
type Plan struct {
	Visits []VisitPlan
	// TotalWords, TotalCycles summarize the context traffic.
	TotalWords, TotalCycles int
	// ExposedCycles is the context time on the application's critical
	// path; the context scheduler's objective is to minimize it.
	ExposedCycles int
	// DoubleBuffered reports whether every adjacent pair of clusters
	// fits the CM together, enabling full prefetch.
	DoubleBuffered bool
}

// Build computes the context-load placement for a schedule.
//
// Placement rule: a visit's context words are prefetched during the
// previous visit's compute window. The overlap achieved is bounded by that
// window's length minus the data traffic already claiming the DMA (data
// loads for the same visit share the channel; the simulator gives data
// priority ordering ctx-then-data, so exposure is computed conservatively
// from the window remaining after earlier DMA work).
func Build(s *core.Schedule) (*Plan, error) {
	if s == nil {
		return nil, fmt.Errorf("csched: nil schedule")
	}
	p := s.Arch
	if err := p.Validate(); err != nil {
		return nil, err
	}
	plan := &Plan{DoubleBuffered: true}

	// CM double-buffering check: each adjacent pair of clusters in visit
	// order must fit the CM together for full prefetch.
	a := s.P.App
	clusterWords := make([]int, len(s.P.Clusters))
	for i, c := range s.P.Clusters {
		seen := map[string]bool{}
		for _, ki := range c.Kernels {
			k := a.Kernels[ki]
			if seen[k.CtxGroup()] {
				continue // tiled sub-kernels share one configuration
			}
			seen[k.CtxGroup()] = true
			clusterWords[i] += k.ContextWords
		}
	}
	for vi := 1; vi < s.NumVisits(); vi++ {
		prev, cur := s.Visit(vi-1).Cluster, s.Visit(vi).Cluster
		if clusterWords[prev]+clusterWords[cur] > p.CMWords {
			plan.DoubleBuffered = false
			break
		}
	}

	// Walk the visits with the sim's two-timeline model, attributing to
	// each visit's context load the share that fits before the previous
	// visit's compute ends.
	dmaFree, rcFree := 0, 0
	prevComputeEnd := 0
	for vi := range s.NumVisits() {
		v := s.Visit(vi)
		ctxCycles := p.ContextCycles(v.CtxWords)
		vp := VisitPlan{Visit: vi, Words: v.CtxWords, Cycles: ctxCycles}

		start := dmaFree
		end := start + ctxCycles
		// The portion of [start, end) lying before prevComputeEnd is
		// hidden; the rest delays the RC array (if the RC would
		// otherwise be ready).
		hiddenUntil := prevComputeEnd
		if hiddenUntil > end {
			hiddenUntil = end
		}
		if hiddenUntil > start {
			vp.OverlappedCycles = hiddenUntil - start
		}
		vp.ExposedCycles = ctxCycles - vp.OverlappedCycles
		dmaFree = end

		// Account the data loads too so later visits see a realistic
		// DMA horizon.
		for _, m := range v.Loads {
			dmaFree += p.DataCycles(m.Bytes)
		}
		computeStart := dmaFree
		if rcFree > computeStart {
			computeStart = rcFree
		}
		rcFree = computeStart + v.ComputeCycles
		prevComputeEnd = rcFree

		plan.Visits = append(plan.Visits, vp)
		plan.TotalWords += vp.Words
		plan.TotalCycles += vp.Cycles
		plan.ExposedCycles += vp.ExposedCycles
	}
	return plan, nil
}

// OverlapRatio returns the fraction of context cycles hidden under
// computation (1.0 when every context load is free).
func (p *Plan) OverlapRatio() float64 {
	if p.TotalCycles == 0 {
		return 1
	}
	return float64(p.TotalCycles-p.ExposedCycles) / float64(p.TotalCycles)
}
