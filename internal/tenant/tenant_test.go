package tenant

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"cds"
	"cds/internal/arch"
	"cds/internal/scherr"
	"cds/internal/workloads"
)

// testMix is the canonical two-tenant scenario: the E1 synthetic pipeline
// and the ATR focus-of-attention stage, each under half an M1's memories
// (both run solo at exactly that design point in the paper's Table 1).
func testMix() (arch.Params, []Tenant) {
	base := arch.M1()
	return base, []Tenant{
		{ID: "video", Weight: 2, Quota: Quota{FBBytes: arch.KiB, CMWords: 512}, Part: workloads.E1().Part},
		{ID: "radar", Weight: 1, Quota: Quota{FBBytes: arch.KiB, CMWords: 512}, Part: workloads.ATRFI(0).Part},
	}
}

func mustPlan(t *testing.T, base arch.Params, tenants []Tenant) *Plan {
	t.Helper()
	p, err := Schedule(context.Background(), base, tenants)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	return p
}

func TestValidateRejects(t *testing.T) {
	base, good := testMix()
	mutate := func(f func(ts []Tenant) []Tenant) []Tenant {
		ts := make([]Tenant, len(good))
		copy(ts, good)
		return f(ts)
	}
	cases := []struct {
		name    string
		tenants []Tenant
		want    string
	}{
		{"no tenants", nil, "no tenants"},
		{"empty id", mutate(func(ts []Tenant) []Tenant { ts[0].ID = ""; return ts }), "empty id"},
		{"duplicate id", mutate(func(ts []Tenant) []Tenant { ts[1].ID = ts[0].ID; return ts }), "duplicate id"},
		{"nil partition", mutate(func(ts []Tenant) []Tenant { ts[0].Part = nil; return ts }), "no application partition"},
		{"zero FB quota", mutate(func(ts []Tenant) []Tenant { ts[0].Quota.FBBytes = 0; return ts }), "FB quota"},
		{"zero CM quota", mutate(func(ts []Tenant) []Tenant { ts[0].Quota.CMWords = 0; return ts }), "CM quota"},
		{"negative arrival", mutate(func(ts []Tenant) []Tenant { ts[0].Arrive = -1; return ts }), "negative arrival"},
		{"negative priority", mutate(func(ts []Tenant) []Tenant { ts[0].Priority = -2; return ts }), "negative priority"},
		{"FB oversubscribed", mutate(func(ts []Tenant) []Tenant { ts[0].Quota.FBBytes = base.FBSetBytes; return ts }), "FB quotas sum"},
		{"CM oversubscribed", mutate(func(ts []Tenant) []Tenant { ts[0].Quota.CMWords = base.CMWords; return ts }), "CM quotas sum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := normalize(tc.tenants)
			err := Validate(base, ts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
			if !errors.Is(err, scherr.ErrInvalidSpec) {
				t.Errorf("error does not match scherr.ErrInvalidSpec: %v", err)
			}
		})
	}
}

// TestScheduleTwoTenants runs the whole pipeline on the canonical mix and
// audits the plan end to end.
func TestScheduleTwoTenants(t *testing.T) {
	base, tenants := testMix()
	p := mustPlan(t, base, tenants)
	if len(p.Lanes) != 2 || p.Exec == nil {
		t.Fatalf("plan has %d lanes, exec %v", len(p.Lanes), p.Exec)
	}
	if err := VerifyPlan(context.Background(), p); err != nil {
		t.Fatalf("VerifyPlan: %v", err)
	}
	if p.MaxLag > p.LagBound() {
		t.Errorf("MaxLag %.1f exceeds LagBound %.1f", p.MaxLag, p.LagBound())
	}
	// The order interleaves: with comparable service demands neither
	// tenant should run start-to-finish before the other begins.
	firstLane := p.Order[0].Lane
	mixed := false
	for _, sl := range p.Order {
		if sl.Lane != firstLane {
			mixed = true
			break
		}
	}
	if !mixed {
		t.Error("order never switches lanes — no interleaving happened")
	}
	for _, l := range p.Lanes {
		if l.View.FBSetBytes != l.Tenant.Quota.FBBytes || l.View.CMWords != l.Tenant.Quota.CMWords {
			t.Errorf("%s: view %d/%d does not match quota %d/%d", l.Tenant.ID,
				l.View.FBSetBytes, l.View.CMWords, l.Tenant.Quota.FBBytes, l.Tenant.Quota.CMWords)
		}
		if l.Service <= 0 || len(l.Slices) == 0 {
			t.Errorf("%s: no slices priced (service %d)", l.Tenant.ID, l.Service)
		}
	}
	if _, ok := p.ByID("video"); !ok {
		t.Error("ByID(video) not found")
	}
	if ids := p.SortedIDs(); !reflect.DeepEqual(ids, []string{"radar", "video"}) {
		t.Errorf("SortedIDs = %v", ids)
	}
}

// TestScheduleDeterministic pins the interleaver: same input, same plan.
func TestScheduleDeterministic(t *testing.T) {
	base, tenants := testMix()
	p1 := mustPlan(t, base, tenants)
	p2 := mustPlan(t, base, tenants)
	if !reflect.DeepEqual(p1.Order, p2.Order) {
		t.Errorf("orders differ:\n%v\n%v", p1.Order, p2.Order)
	}
	if !reflect.DeepEqual(p1.Steps, p2.Steps) {
		t.Error("credit bookkeeping differs between identical runs")
	}
	if p1.Exec.TotalCycles != p2.Exec.TotalCycles {
		t.Errorf("makespans differ: %d vs %d", p1.Exec.TotalCycles, p2.Exec.TotalCycles)
	}
}

// TestSoloEquivalenceGolden is the acceptance-criteria golden test: with
// result caching OFF (forcing true recomputation), every lane's schedule
// in the plan must be byte-identical to a fresh solo CDS run under the
// same quota view.
func TestSoloEquivalenceGolden(t *testing.T) {
	prev := cds.SetResultCaching(false)
	defer cds.SetResultCaching(prev)

	base, tenants := testMix()
	p := mustPlan(t, base, tenants)
	if err := SoloEquivalence(context.Background(), p); err != nil {
		t.Fatalf("SoloEquivalence: %v", err)
	}
	// And the detector actually detects: tamper one visit and the audit
	// must flag the lane as diverged from its solo run.
	s := p.Lanes[0].Result.Schedule
	vs := s.Visits()
	vs[0].ComputeCycles++
	p.Lanes[0].Result.Schedule = s.WithVisits(vs)
	err := SoloEquivalence(context.Background(), p)
	if err == nil || !errors.Is(err, scherr.ErrVerify) {
		t.Fatalf("tampered plan passed solo-equivalence (err = %v)", err)
	}
	if !strings.Contains(err.Error(), p.Lanes[0].Tenant.ID) {
		t.Errorf("divergence error does not name the tenant: %v", err)
	}
}

// TestWeightedFinishOrder gives two tenants the same application and a
// 3:1 weight split: the heavier tenant must drain first even though the
// tie-break favors the lighter lane's index.
func TestWeightedFinishOrder(t *testing.T) {
	base := arch.M1()
	part := workloads.E1().Part
	tenants := []Tenant{
		{ID: "light", Weight: 1, Quota: Quota{FBBytes: arch.KiB, CMWords: 512}, Part: part},
		{ID: "heavy", Weight: 3, Quota: Quota{FBBytes: arch.KiB, CMWords: 512}, Part: part},
	}
	p := mustPlan(t, base, tenants)
	if err := VerifyPlan(context.Background(), p); err != nil {
		t.Fatalf("VerifyPlan: %v", err)
	}
	if p.Exec.LaneEnd[1] >= p.Exec.LaneEnd[0] {
		t.Errorf("heavy lane ends at %d, light at %d — weights ignored",
			p.Exec.LaneEnd[1], p.Exec.LaneEnd[0])
	}
	shares := p.IdealShares()
	if math.Abs(shares[0]-0.25) > 1e-9 || math.Abs(shares[1]-0.75) > 1e-9 {
		t.Errorf("IdealShares = %v, want [0.25 0.75]", shares)
	}
}

// TestPriorityPreemption: a priority-1 tenant must run all its slices
// before any priority-0 slice is emitted.
func TestPriorityPreemption(t *testing.T) {
	base, tenants := testMix()
	tenants[1].Priority = 1
	p := mustPlan(t, base, tenants)
	if err := VerifyPlan(context.Background(), p); err != nil {
		t.Fatalf("VerifyPlan: %v", err)
	}
	hiSlices := len(p.Lanes[1].Slices)
	for si := 0; si < hiSlices; si++ {
		if p.Order[si].Lane != 1 {
			t.Fatalf("slice %d belongs to lane %d while the priority band is backlogged", si, p.Order[si].Lane)
		}
	}
}

// TestArrivalIdle: when every tenant arrives late the plan clock jumps to
// the first arrival instead of accruing phantom credit at cycle 0.
func TestArrivalIdle(t *testing.T) {
	base, tenants := testMix()
	tenants[0].Arrive = 500
	tenants[1].Arrive = 800
	p := mustPlan(t, base, tenants)
	if err := VerifyPlan(context.Background(), p); err != nil {
		t.Fatalf("VerifyPlan: %v", err)
	}
	if p.Steps[0].Clock != 500 || p.Order[0].Lane != 0 {
		t.Errorf("first step = lane %d at clock %d, want lane 0 at 500",
			p.Order[0].Lane, p.Steps[0].Clock)
	}
	if p.Exec.SliceStart[0] < 500 {
		t.Errorf("execution starts at %d, before the first arrival", p.Exec.SliceStart[0])
	}
}

// TestInfeasibleTenantFailsWholePlan: a quota too small for a tenant's
// application rejects the whole mix, naming the tenant.
func TestInfeasibleTenantFailsWholePlan(t *testing.T) {
	base := arch.M1()
	tenants := []Tenant{
		{ID: "big", Weight: 1, Quota: Quota{FBBytes: 512, CMWords: 256}, Part: workloads.ATRSLD(0).Part},
		{ID: "small", Weight: 1, Quota: Quota{FBBytes: arch.KiB, CMWords: 512}, Part: workloads.ATRFI(0).Part},
	}
	_, err := Schedule(context.Background(), base, tenants)
	if err == nil || !errors.Is(err, scherr.ErrInfeasible) {
		t.Fatalf("error = %v, want scherr.ErrInfeasible", err)
	}
	if !strings.Contains(err.Error(), "big") {
		t.Errorf("error does not name the infeasible tenant: %v", err)
	}
}

// TestCurves: every sample row sums to 1 once service started, and each
// lane's final share reflects the whole mix.
func TestCurves(t *testing.T) {
	base, tenants := testMix()
	p := mustPlan(t, base, tenants)
	curves := p.Curves()
	if len(curves) != len(p.Lanes) {
		t.Fatalf("%d curves for %d lanes", len(curves), len(p.Lanes))
	}
	for si := range p.Steps {
		sum := 0.0
		for li := range curves {
			sum += curves[li][si].Share
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("step %d: shares sum to %f", si, sum)
		}
	}
	last := len(p.Steps) - 1
	for li, l := range p.Lanes {
		want := float64(l.Service) / float64(p.Lanes[0].Service+p.Lanes[1].Service)
		if got := curves[li][last].Share; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: final share %f, want %f", l.Tenant.ID, got, want)
		}
	}
}

func TestGanttSVG(t *testing.T) {
	base, tenants := testMix()
	p := mustPlan(t, base, tenants)
	var buf bytes.Buffer
	if err := WriteGanttSVG(&buf, p); err != nil {
		t.Fatalf("WriteGanttSVG: %v", err)
	}
	svg := buf.String()
	for _, want := range []string{"<svg", "</svg>", "video", "radar", "<rect"} {
		if !strings.Contains(svg, want) {
			t.Errorf("gantt SVG missing %q", want)
		}
	}
	buf.Reset()
	if err := WriteCurvesSVG(&buf, p); err != nil {
		t.Fatalf("WriteCurvesSVG: %v", err)
	}
	svg = buf.String()
	for _, want := range []string{"<svg", "</svg>", "polyline", "stroke-dasharray"} {
		if !strings.Contains(svg, want) {
			t.Errorf("curves SVG missing %q", want)
		}
	}
	if err := WriteGanttSVG(&buf, nil); err == nil {
		t.Error("WriteGanttSVG accepted a nil plan")
	}
}
