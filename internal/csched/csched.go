// Package csched reports the context side of a data schedule, the part
// the MorphoSys compilation framework's context scheduler (Maestre et
// al., ISSS'99) is concerned with: how much of each visit's context
// burst hides under computation and how much is exposed.
//
// The mechanism on M1: while one cluster computes, the DMA may fill the
// Context Memory for the next cluster, provided the CM has room for both
// clusters' contexts at once. csched checks that double-buffering
// condition and measures each visit's context burst as overlapped or
// exposed on internal/sim's machine model, the walk the makespan comes
// from. It places no transfer itself: the machine model issues every
// context burst as soon as the DMA channel frees.
package csched

import (
	"cds/internal/core"
	"cds/internal/sim"
	"cds/internal/trace"
)

// VisitPlan is one visit's context burst on the machine model's
// timeline.
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

// Plan is the context traffic of a whole data schedule.
type Plan struct {
	Visits []VisitPlan
	// TotalWords, TotalCycles summarize the context traffic.
	TotalWords, TotalCycles int
	// ExposedCycles is the context time on the application's critical
	// path: the reconfiguration overhead left exposed.
	ExposedCycles int
	// DoubleBuffered reports whether every adjacent pair of clusters
	// fits the CM together, enabling full prefetch.
	DoubleBuffered bool
}

// Build measures a schedule's context bursts on its timeline on the
// machine model (sim.Trace). A visit's context burst issues as soon as
// the DMA channel frees, so it runs under the previous visit's compute
// where the channel frees early enough: the part of the burst that ends
// by the previous visit's compute end is overlapped, the rest the RC
// array waits for. The exposed cycles sum to the context
// share of the timeline's critical path (trace.Analyze).
func Build(s *core.Schedule) (*Plan, error) {
	r, tl, err := sim.Trace(s)
	if err != nil {
		return nil, err
	}
	p := s.Arch
	plan := &Plan{Visits: make([]VisitPlan, s.NumVisits()), DoubleBuffered: true}

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
	prev := -1
	for vi := range plan.Visits {
		v := s.Visit(vi)
		if prev >= 0 && clusterWords[prev]+clusterWords[v.Cluster] > p.CMWords {
			plan.DoubleBuffered = false
		}
		prev = v.Cluster
		c := p.ContextCycles(v.CtxWords)
		plan.Visits[vi] = VisitPlan{Visit: vi, Words: v.CtxWords, Cycles: c, ExposedCycles: c}
		plan.TotalWords += v.CtxWords
		plan.TotalCycles += c
	}
	for _, sp := range tl.Spans {
		if sp.Kind == trace.KindContext && sp.Visit > 0 {
			vp := &plan.Visits[sp.Visit]
			vp.OverlappedCycles = max(0, min(sp.End, r.VisitEnd[sp.Visit-1])-sp.Start)
			vp.ExposedCycles -= vp.OverlappedCycles
		}
	}
	for _, vp := range plan.Visits {
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
