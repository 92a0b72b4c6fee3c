package sim

// The multi-tenant executor: one RC array and one DMA channel time-shared
// by K independent schedules. The tenant layer (internal/tenant) computes
// each application's schedule against a quota-restricted machine view and
// stitches the per-tenant cluster runs into one global emission order;
// RunTenants executes that order on the one walk, one lane per tenant:
// the FB sets of DIFFERENT tenants are disjoint quota partitions, so
// only the RC array and the DMA channel are contended, and a tenant's
// own visit sequence keeps the same dependency structure it has solo.

import (
	"fmt"

	"cds/internal/arch"
	"cds/internal/core"
)

// TenantSlice addresses one contiguous run of visits of one lane's
// schedule: visits [First, First+N) of scheds[Lane]. A global emission
// order is a sequence of slices that covers every lane's visits exactly
// once, in each lane's own order — the tenant interleaver guarantees
// that and verify's fairness family re-checks it.
type TenantSlice struct {
	Lane  int `json:"lane"`
	First int `json:"first"`
	N     int `json:"n"`
}

// TenantResult is the outcome of one multi-tenant execution.
type TenantResult struct {
	// TotalCycles is the global makespan (all lanes' work and stores
	// drained).
	TotalCycles int
	// ComputeCycles/DataCycles/CtxCycles/StallCycles aggregate across
	// all lanes, with the same meaning as Result's fields.
	ComputeCycles int
	DataCycles    int
	CtxCycles     int
	StallCycles   int
	// LaneVisitStart/LaneVisitEnd give each visit's compute interval,
	// indexed [lane][visit] like the input schedules' execution order.
	LaneVisitStart [][]int
	LaneVisitEnd   [][]int
	// LaneEnd is the cycle each lane's last compute finished; LaneDone
	// additionally waits for the lane's trailing stores to drain.
	LaneEnd  []int
	LaneDone []int
	// LaneCompute is each lane's RC-array busy time.
	LaneCompute []int
	// SliceStart/SliceEnd give each emitted slice's span on the shared
	// machine (first transfer issue through last compute end), indexed
	// like the order passed to RunTenants. Fairness curves plot service
	// against SliceEnd.
	SliceStart []int
	SliceEnd   []int
}

// VisitCost prices one visit's busy cycles on the shared machine under
// p: its context-load burst, its data loads and stores, and its compute.
// The tenant interleaver charges virtual time by this cost and verify's
// fairness lag bound is stated in units of it, so both must price a
// visit identically — which is why it lives here, next to the walk that
// realizes those cycles.
func VisitCost(p arch.Params, v *core.Visit) int {
	c := v.ComputeCycles + p.ContextCycles(v.CtxWords)
	for _, m := range v.Loads {
		c += p.DataCycles(m.Bytes)
	}
	for _, m := range v.Stores {
		c += p.DataCycles(m.Bytes)
	}
	return c
}

// RunTenants executes K schedules interleaved on one machine, in the
// given slice order. scheds[i] is lane i's schedule against its own
// (quota-restricted) machine view; arrive[i] is the cycle lane i's work
// becomes available — none of its DMA transfers may issue earlier (nil
// means every lane is present at cycle 0).
//
// Pending stores are tracked per (lane, FB set) — tenant quotas
// partition the Frame Buffer spatially, so one tenant's refill never
// waits on another tenant's stores — while the DMA channel and the RC
// array are single shared timelines. Within a lane the visit semantics
// are exactly the solo semantics of Run.
func RunTenants(scheds []*core.Schedule, arrive []int, order []TenantSlice) (*TenantResult, error) {
	if len(scheds) == 0 {
		return nil, fmt.Errorf("sim: no tenant schedules")
	}
	for i, s := range scheds {
		if s == nil {
			return nil, fmt.Errorf("sim: lane %d: nil schedule", i)
		}
		if err := s.Arch.Validate(); err != nil {
			return nil, fmt.Errorf("sim: lane %d: %w", i, err)
		}
	}
	if arrive == nil {
		arrive = make([]int, len(scheds))
	}
	if len(arrive) != len(scheds) {
		return nil, fmt.Errorf("sim: %d arrival cycles for %d lanes", len(arrive), len(scheds))
	}
	for i, at := range arrive {
		if at < 0 {
			return nil, fmt.Errorf("sim: lane %d: negative arrival cycle %d", i, at)
		}
	}
	// The order must cover each lane's visits exactly once, in order.
	next := make([]int, len(scheds))
	for si, sl := range order {
		if sl.Lane < 0 || sl.Lane >= len(scheds) {
			return nil, fmt.Errorf("sim: slice %d: lane %d out of range", si, sl.Lane)
		}
		if sl.N < 1 {
			return nil, fmt.Errorf("sim: slice %d: empty slice", si)
		}
		if sl.First != next[sl.Lane] {
			return nil, fmt.Errorf("sim: slice %d: lane %d visits start at %d, expected %d",
				si, sl.Lane, sl.First, next[sl.Lane])
		}
		next[sl.Lane] += sl.N
		if next[sl.Lane] > scheds[sl.Lane].NumVisits() {
			return nil, fmt.Errorf("sim: slice %d: lane %d overruns its %d visits",
				si, sl.Lane, scheds[sl.Lane].NumVisits())
		}
	}
	for i, n := range next {
		if n != scheds[i].NumVisits() {
			return nil, fmt.Errorf("sim: order covers %d of lane %d's %d visits",
				n, i, scheds[i].NumVisits())
		}
	}

	lanes := make([]lane, len(scheds))
	for i, s := range scheds {
		lanes[i] = newLane(s)
		lanes[i].arrive = arrive[i]
	}
	res := &TenantResult{
		LaneVisitStart: make([][]int, len(scheds)),
		LaneVisitEnd:   make([][]int, len(scheds)),
		LaneEnd:        make([]int, len(scheds)),
		LaneDone:       make([]int, len(scheds)),
		LaneCompute:    make([]int, len(scheds)),
		SliceStart:     make([]int, len(order)),
		SliceEnd:       make([]int, len(order)),
	}
	res.TotalCycles = walk(lanes, order, static, nil, res.SliceStart)
	for i := range lanes {
		l := &lanes[i]
		r := &l.res
		res.ComputeCycles += r.ComputeCycles
		res.DataCycles += r.DataCycles
		res.CtxCycles += r.CtxCycles
		res.StallCycles += r.StallCycles
		res.LaneVisitStart[i] = r.VisitStart
		res.LaneVisitEnd[i] = r.VisitEnd
		if n := len(r.VisitEnd); n > 0 {
			res.LaneEnd[i] = r.VisitEnd[n-1]
		}
		res.LaneDone[i] = l.done
		res.LaneCompute[i] = r.ComputeCycles
	}
	for si, sl := range order {
		res.SliceEnd[si] = res.LaneVisitEnd[sl.Lane][sl.First+sl.N-1]
	}
	return res, nil
}
