package verify

// The fairness invariant family: post-hoc audit of a multi-tenant plan
// (internal/tenant) — K applications time-sharing one array under
// spatial FB/CM quotas and weighted-fair cluster interleaving. The
// checks are algorithm-independent: they consume only the per-tenant
// schedules, the tenant parameters and the emitted slice order, and
// re-derive every claim from scratch, so ANY interleaver output can be
// audited — not just the one internal/tenant's WFQ happens to produce.
//
// Invariants (all reported under the "fairness" family):
//
//   - quota — per-tenant quotas are positive and SUM within the base
//     machine (the spatial-partition precondition), each tenant's
//     schedule was computed against a machine no larger than its quota
//     with the base's unchanged DMA cost model, and each schedule
//     passes the full solo invariant families under that view;
//   - boundary — the emitted order covers every tenant's visits exactly
//     once, in order, and every preemption point (slice start) lands on
//     a cluster boundary of its lane — no cluster run is ever split;
//   - priority — each emitted slice belongs to the highest priority
//     band that had an eligible (arrived, backlogged) tenant, and no
//     slice is served before its tenant's arrival cycle;
//   - lag — within a band, no backlogged tenant's ideal weighted share
//     ever exceeds its delivered service by more than K * the largest
//     emitted slice cost (bounded starvation at cluster granularity);
//   - execution — the stitched timeline simulates (sim.RunTenants),
//     wall clock dominates both total compute and serialized DMA busy
//     time, and no tenant finishes before its arrival-shifted solo
//     lower bound (sharing one array never makes anyone faster).

import (
	"cds/internal/arch"
	"cds/internal/core"
	"cds/internal/sim"
)

// TenantLane is one tenant's row of a fairness audit: the parameters it
// was admitted under plus the schedule the quota view produced. The
// struct is self-contained so callers above the verifier (the tenant
// layer, diffuzz, serving code) can hand plans down without this
// package importing them.
type TenantLane struct {
	ID       string
	Weight   int
	Priority int
	Arrive   int
	FBQuota  int
	CMQuota  int
	Schedule *core.Schedule
}

// Fairness audits a stitched multi-tenant plan: lanes are the admitted
// tenants (weights already normalized to >= 1), order is the global
// slice emission the plan executes. A nil error means every fairness
// invariant holds.
func Fairness(base arch.Params, lanes []TenantLane, order []sim.TenantSlice) error {
	if err := base.Validate(); err != nil {
		return violated("fairness", "base machine: %v", err)
	}
	if len(lanes) == 0 {
		return violated("fairness", "no tenant lanes")
	}
	if err := checkQuotas(base, lanes); err != nil {
		return err
	}
	if err := checkBoundaries(lanes, order); err != nil {
		return err
	}
	if err := checkPriorityAndLag(lanes, order); err != nil {
		return err
	}
	return checkTenantExecution(lanes, order)
}

// checkQuotas asserts the spatial-partition precondition and audits each
// lane's schedule with the full solo invariant families under its view.
func checkQuotas(base arch.Params, lanes []TenantLane) error {
	sumFB, sumCM := 0, 0
	for _, l := range lanes {
		if l.Weight < 1 {
			return violated("fairness", "tenant %q: weight %d < 1", l.ID, l.Weight)
		}
		if l.Arrive < 0 {
			return violated("fairness", "tenant %q: negative arrival %d", l.ID, l.Arrive)
		}
		if l.FBQuota <= 0 || l.CMQuota <= 0 {
			return violated("fairness", "tenant %q: non-positive quota (FB %d, CM %d)", l.ID, l.FBQuota, l.CMQuota)
		}
		sumFB += l.FBQuota
		sumCM += l.CMQuota
		if l.Schedule == nil {
			return violated("fairness", "tenant %q: nil schedule", l.ID)
		}
		a := l.Schedule.Arch
		if a.FBSetBytes > l.FBQuota {
			return violated("fairness", "tenant %q: schedule uses a %d-byte FB set, quota is %d (quota overrun)",
				l.ID, a.FBSetBytes, l.FBQuota)
		}
		if a.CMWords > l.CMQuota {
			return violated("fairness", "tenant %q: schedule uses %d CM words, quota is %d (quota overrun)",
				l.ID, a.CMWords, l.CMQuota)
		}
		// The view may only narrow FB/CM: a different DMA cost model
		// would make the schedule's cycle prices lies on the real machine.
		if a.BusBytes != base.BusBytes || a.DMASetupCycles != base.DMASetupCycles ||
			a.CtxWordBytes != base.CtxWordBytes || a.FBSets != base.FBSets {
			return violated("fairness", "tenant %q: quota view changed the DMA cost model (bus %d/%d, setup %d/%d)",
				l.ID, a.BusBytes, base.BusBytes, a.DMASetupCycles, base.DMASetupCycles)
		}
		if err := Schedule(l.Schedule); err != nil {
			return violated("fairness", "tenant %q: schedule fails solo verification under its quota view: %v", l.ID, err)
		}
	}
	if sumFB > base.FBSetBytes {
		return violated("fairness", "FB quotas sum to %d bytes, machine set holds %d (quota overrun)", sumFB, base.FBSetBytes)
	}
	if sumCM > base.CMWords {
		return violated("fairness", "CM quotas sum to %d words, machine holds %d (quota overrun)", sumCM, base.CMWords)
	}
	return nil
}

// checkBoundaries asserts the order is a boundary-respecting cover:
// every lane's visits exactly once, in order, every slice starting at a
// cluster boundary of its lane.
func checkBoundaries(lanes []TenantLane, order []sim.TenantSlice) error {
	next := make([]int, len(lanes))
	for si, sl := range order {
		if sl.Lane < 0 || sl.Lane >= len(lanes) {
			return violated("fairness", "slice %d: lane %d out of range", si, sl.Lane)
		}
		s := lanes[sl.Lane].Schedule
		if sl.N < 1 {
			return violated("fairness", "slice %d: empty slice on tenant %q", si, lanes[sl.Lane].ID)
		}
		if sl.First != next[sl.Lane] {
			return violated("fairness", "slice %d: tenant %q resumes at visit %d, expected %d (out-of-order emission)",
				si, lanes[sl.Lane].ID, sl.First, next[sl.Lane])
		}
		if sl.First+sl.N > s.NumVisits() {
			return violated("fairness", "slice %d: tenant %q overruns its %d visits", si, lanes[sl.Lane].ID, s.NumVisits())
		}
		if c := s.Visit(sl.First).Cluster; sl.First > 0 && s.Visit(sl.First-1).Cluster == c {
			return violated("fairness", "slice %d: tenant %q preempted inside cluster %d (visit %d is not a cluster boundary)",
				si, lanes[sl.Lane].ID, c, sl.First)
		}
		next[sl.Lane] += sl.N
	}
	for i, n := range next {
		if n != lanes[i].Schedule.NumVisits() {
			return violated("fairness", "tenant %q: order covers %d of %d visits (starved outright)",
				lanes[i].ID, n, lanes[i].Schedule.NumVisits())
		}
	}
	return nil
}

// sliceCost prices one emitted slice in busy cycles under its lane's
// schedule arch — the same currency the interleaver charges.
func sliceCost(l *TenantLane, sl sim.TenantSlice) int {
	cost := 0
	for vi := sl.First; vi < sl.First+sl.N; vi++ {
		v := l.Schedule.Visit(vi)
		cost += sim.VisitCost(l.Schedule.Arch, &v)
	}
	return cost
}

// checkPriorityAndLag replays the emission order on a plan-time clock
// and asserts the scheduling-policy invariants: arrivals respected,
// strict priority between bands, bounded weighted-share lag within a
// band. The replay is fluid-GPS accounting: while a slice runs, every
// backlogged band-mate accrues ideal service in proportion to its
// weight; a correct weighted-fair interleaver keeps every lane's
// (ideal - delivered) below K * max emitted slice cost.
func checkPriorityAndLag(lanes []TenantLane, order []sim.TenantSlice) error {
	n := len(lanes)
	remaining := make([]int, n)
	for i, l := range lanes {
		remaining[i] = l.Schedule.NumVisits()
	}
	costs := make([]int, len(order))
	maxCost := 0
	for si, sl := range order {
		costs[si] = sliceCost(&lanes[sl.Lane], sl)
		if costs[si] > maxCost {
			maxCost = costs[si]
		}
	}
	bound := float64(maxCost * n)

	ideal := make([]float64, n)
	service := make([]float64, n)
	clock := 0
	for si, sl := range order {
		// Idle jump: with nobody eligible the machine waits for the
		// earliest arrival, exactly like the interleaver's clock.
		for {
			any := false
			for i := 0; i < n; i++ {
				if remaining[i] > 0 && lanes[i].Arrive <= clock {
					any = true
					break
				}
			}
			if any {
				break
			}
			nextArrive := -1
			for i := 0; i < n; i++ {
				if remaining[i] > 0 && (nextArrive < 0 || lanes[i].Arrive < nextArrive) {
					nextArrive = lanes[i].Arrive
				}
			}
			clock = nextArrive
		}
		if lanes[sl.Lane].Arrive > clock {
			return violated("fairness", "slice %d: tenant %q served at plan cycle %d before its arrival %d",
				si, lanes[sl.Lane].ID, clock, lanes[sl.Lane].Arrive)
		}
		band := -1
		for i := 0; i < n; i++ {
			if remaining[i] > 0 && lanes[i].Arrive <= clock && lanes[i].Priority > band {
				band = lanes[i].Priority
			}
		}
		if lanes[sl.Lane].Priority < band {
			return violated("fairness", "slice %d: tenant %q (band %d) served while band %d had eligible work (priority inversion)",
				si, lanes[sl.Lane].ID, lanes[sl.Lane].Priority, band)
		}
		cost := float64(costs[si])
		wsum := 0
		for i := 0; i < n; i++ {
			if remaining[i] > 0 && lanes[i].Arrive <= clock && lanes[i].Priority == band {
				wsum += lanes[i].Weight
			}
		}
		for i := 0; i < n; i++ {
			if remaining[i] > 0 && lanes[i].Arrive <= clock && lanes[i].Priority == band {
				ideal[i] += cost * float64(lanes[i].Weight) / float64(wsum)
			}
		}
		service[sl.Lane] += cost
		for i := 0; i < n; i++ {
			if remaining[i] > 0 && lanes[i].Arrive <= clock && lanes[i].Priority == band {
				if lag := ideal[i] - service[i]; lag > bound {
					return violated("fairness", "slice %d: tenant %q lags its ideal share by %.0f cycles, bound is %.0f (starvation)",
						si, lanes[i].ID, lag, bound)
				}
			}
		}
		remaining[sl.Lane] -= sl.N
		clock += costs[si]
	}
	return nil
}

// checkTenantExecution runs the stitched order on the shared machine
// and asserts the timing dominance facts: the global walk simulates,
// wall clock covers both shared resources' busy time, and every lane
// finishes no earlier than its arrival-shifted solo lower bound.
func checkTenantExecution(lanes []TenantLane, order []sim.TenantSlice) error {
	scheds := make([]*core.Schedule, len(lanes))
	arrive := make([]int, len(lanes))
	for i, l := range lanes {
		scheds[i] = l.Schedule
		arrive[i] = l.Arrive
	}
	res, err := sim.RunTenants(scheds, arrive, order)
	if err != nil {
		return violated("fairness", "stitched execution: %v", err)
	}
	totalCompute := 0
	for _, c := range res.LaneCompute {
		totalCompute += c
	}
	if res.TotalCycles < totalCompute {
		return violated("fairness", "makespan %d below total compute %d (RC array oversubscribed)",
			res.TotalCycles, totalCompute)
	}
	if dma := res.DataCycles + res.CtxCycles; res.TotalCycles < dma {
		return violated("fairness", "makespan %d below DMA busy time %d (channel oversubscribed)",
			res.TotalCycles, dma)
	}
	for i, l := range lanes {
		solo, err := sim.Run(l.Schedule)
		if err != nil {
			return violated("fairness", "tenant %q: solo simulation: %v", l.ID, err)
		}
		if len(solo.VisitEnd) == 0 {
			continue
		}
		lower := l.Arrive + solo.VisitEnd[len(solo.VisitEnd)-1]
		if res.LaneEnd[i] < lower {
			return violated("fairness", "tenant %q finishes at cycle %d, below its solo lower bound %d (shared timeline cannot beat solo)",
				l.ID, res.LaneEnd[i], lower)
		}
	}
	return nil
}
