package sim

import (
	"strings"
	"testing"

	"cds/internal/arch"
	"cds/internal/core"
)

// tenantVisit builds one visit with the given cluster/set and volumes.
func tenantVisit(cluster, set, ctxWords, compute, loadBytes, storeBytes int) core.Visit {
	v := core.Visit{
		Cluster: cluster, Set: set, Block: 0, Iters: 1,
		CtxWords: ctxWords, ComputeCycles: compute,
	}
	if loadBytes > 0 {
		v.Loads = []core.Movement{{Datum: "in", Bytes: loadBytes}}
	}
	if storeBytes > 0 {
		v.Stores = []core.Movement{{Datum: "out", Bytes: storeBytes}}
	}
	return v
}

// laneSched wraps visits in a minimal schedule the executor accepts.
func laneSched(p arch.Params, visits ...core.Visit) *core.Schedule {
	return core.Schedule{Scheduler: "test", Arch: p}.WithVisits(visits)
}

// fullCover emits one slice per visit, in order — the trivial valid order
// for a single lane.
func fullCover(lane int, s *core.Schedule) []TenantSlice {
	out := make([]TenantSlice, s.NumVisits())
	for i := range out {
		out[i] = TenantSlice{Lane: lane, First: i, N: 1}
	}
	return out
}

// TestRunTenantsSingleLaneMatchesRun pins the executor to the solo model:
// one lane, trivially ordered, must reproduce sim.Run cycle for cycle.
func TestRunTenantsSingleLaneMatchesRun(t *testing.T) {
	p := arch.M1()
	s := laneSched(p,
		tenantVisit(0, 0, 40, 200, 512, 128),
		tenantVisit(0, 0, 0, 180, 256, 64),
		tenantVisit(1, 1, 32, 150, 384, 96),
		tenantVisit(0, 0, 8, 120, 128, 32),
	)
	solo, err := Run(s)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	res, err := RunTenants([]*core.Schedule{s}, nil, fullCover(0, s))
	if err != nil {
		t.Fatalf("RunTenants: %v", err)
	}
	if res.TotalCycles != solo.TotalCycles {
		t.Errorf("TotalCycles = %d, solo Run = %d", res.TotalCycles, solo.TotalCycles)
	}
	if res.ComputeCycles != solo.ComputeCycles || res.DataCycles != solo.DataCycles ||
		res.CtxCycles != solo.CtxCycles || res.StallCycles != solo.StallCycles {
		t.Errorf("breakdown = compute %d data %d ctx %d stall %d, solo = %d/%d/%d/%d",
			res.ComputeCycles, res.DataCycles, res.CtxCycles, res.StallCycles,
			solo.ComputeCycles, solo.DataCycles, solo.CtxCycles, solo.StallCycles)
	}
	for vi := range s.NumVisits() {
		if res.LaneVisitStart[0][vi] != solo.VisitStart[vi] || res.LaneVisitEnd[0][vi] != solo.VisitEnd[vi] {
			t.Errorf("visit %d: [%d,%d), solo [%d,%d)", vi,
				res.LaneVisitStart[0][vi], res.LaneVisitEnd[0][vi],
				solo.VisitStart[vi], solo.VisitEnd[vi])
		}
	}
	if res.LaneEnd[0] != solo.VisitEnd[s.NumVisits()-1] {
		t.Errorf("LaneEnd = %d, want %d", res.LaneEnd[0], solo.VisitEnd[s.NumVisits()-1])
	}
}

// TestRunTenantsVisitCost pins the pricing helper to the cost model the
// walk realizes.
func TestRunTenantsVisitCost(t *testing.T) {
	p := arch.M1()
	v := tenantVisit(0, 0, 16, 100, 512, 128)
	want := 100 + p.ContextCycles(16) + p.DataCycles(512) + p.DataCycles(128)
	if got := VisitCost(p, &v); got != want {
		t.Errorf("VisitCost = %d, want %d", got, want)
	}
}

// TestRunTenantsArrivalGatesDMA asserts a late lane's transfers never
// issue before its arrival cycle.
func TestRunTenantsArrivalGatesDMA(t *testing.T) {
	p := arch.M1()
	s := laneSched(p, tenantVisit(0, 0, 16, 100, 256, 0))
	res, err := RunTenants([]*core.Schedule{s}, []int{1000}, fullCover(0, s))
	if err != nil {
		t.Fatalf("RunTenants: %v", err)
	}
	if res.SliceStart[0] < 1000 {
		t.Errorf("slice starts at %d, before arrival 1000", res.SliceStart[0])
	}
	transfers := p.ContextCycles(16) + p.DataCycles(256)
	if want := 1000 + transfers; res.LaneVisitStart[0][0] != want {
		t.Errorf("compute starts at %d, want %d", res.LaneVisitStart[0][0], want)
	}
}

// TestRunTenantsInterleavedAccounting runs two lanes slice-interleaved and
// checks the shared-machine dominance facts plus per-lane bookkeeping.
func TestRunTenantsInterleavedAccounting(t *testing.T) {
	p := arch.M1()
	a := laneSched(p,
		tenantVisit(0, 0, 24, 150, 512, 128),
		tenantVisit(1, 1, 24, 150, 512, 128),
	)
	b := laneSched(p, tenantVisit(0, 0, 16, 400, 256, 64))
	order := []TenantSlice{
		{Lane: 0, First: 0, N: 1},
		{Lane: 1, First: 0, N: 1},
		{Lane: 0, First: 1, N: 1},
	}
	res, err := RunTenants([]*core.Schedule{a, b}, nil, order)
	if err != nil {
		t.Fatalf("RunTenants: %v", err)
	}
	if want := 150 + 150 + 400; res.ComputeCycles != want {
		t.Errorf("ComputeCycles = %d, want %d", res.ComputeCycles, want)
	}
	if res.TotalCycles < res.ComputeCycles {
		t.Errorf("makespan %d below total compute %d", res.TotalCycles, res.ComputeCycles)
	}
	if dma := res.DataCycles + res.CtxCycles; res.TotalCycles < dma {
		t.Errorf("makespan %d below DMA busy %d", res.TotalCycles, dma)
	}
	if res.LaneCompute[0] != 300 || res.LaneCompute[1] != 400 {
		t.Errorf("LaneCompute = %v, want [300 400]", res.LaneCompute)
	}
	if res.LaneEnd[0] != res.LaneVisitEnd[0][1] || res.LaneEnd[1] != res.LaneVisitEnd[1][0] {
		t.Errorf("LaneEnd = %v inconsistent with LaneVisitEnd %v", res.LaneEnd, res.LaneVisitEnd)
	}
	// Lane B computes between A's two visits: the RC array serializes.
	if res.LaneVisitStart[0][1] < res.LaneVisitEnd[1][0] {
		t.Errorf("lane 0 visit 1 starts at %d while lane 1 computes until %d",
			res.LaneVisitStart[0][1], res.LaneVisitEnd[1][0])
	}
	// LaneDone covers the trailing stores; the makespan covers LaneDone.
	for i, done := range res.LaneDone {
		if done < res.LaneEnd[i] {
			t.Errorf("lane %d: done %d before compute end %d", i, done, res.LaneEnd[i])
		}
		if res.TotalCycles < done {
			t.Errorf("makespan %d below lane %d done %d", res.TotalCycles, i, done)
		}
	}
}

// TestRunTenantsRejects walks the validation surface.
func TestRunTenantsRejects(t *testing.T) {
	p := arch.M1()
	s := laneSched(p, tenantVisit(0, 0, 8, 100, 128, 0), tenantVisit(1, 1, 8, 100, 128, 0))
	cases := []struct {
		name   string
		scheds []*core.Schedule
		arrive []int
		order  []TenantSlice
		want   string
	}{
		{"no schedules", nil, nil, nil, "no tenant schedules"},
		{"nil schedule", []*core.Schedule{nil}, nil, nil, "nil schedule"},
		{"arrive length", []*core.Schedule{s}, []int{1, 2}, fullCover(0, s), "arrival cycles for"},
		{"negative arrival", []*core.Schedule{s}, []int{-1}, fullCover(0, s), "negative arrival"},
		{"lane out of range", []*core.Schedule{s}, nil,
			[]TenantSlice{{Lane: 3, First: 0, N: 1}}, "out of range"},
		{"empty slice", []*core.Schedule{s}, nil,
			[]TenantSlice{{Lane: 0, First: 0, N: 0}}, "empty slice"},
		{"out of order", []*core.Schedule{s}, nil,
			[]TenantSlice{{Lane: 0, First: 1, N: 1}, {Lane: 0, First: 0, N: 1}}, "expected"},
		{"overrun", []*core.Schedule{s}, nil,
			[]TenantSlice{{Lane: 0, First: 0, N: 3}}, "overruns"},
		{"incomplete cover", []*core.Schedule{s}, nil,
			[]TenantSlice{{Lane: 0, First: 0, N: 1}}, "covers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunTenants(tc.scheds, tc.arrive, tc.order)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}
