// Package tenant schedules K concurrent applications onto ONE
// MorphoSys-class array by temporal partitioning — the multi-task CGRA
// model grafted onto the paper's data scheduler.
//
// Each tenant brings its own application (a partitioned spec), an FB/CM
// quota, a weight, a priority band and an arrival cycle. The on-chip
// memories are partitioned SPATIALLY: the per-tenant quotas must sum to
// at most the machine's Frame Buffer set and Context Memory capacities,
// and each tenant's schedule is produced by the unmodified CDS pipeline
// against a quota-restricted machine view. That is the load-bearing
// design decision: because a tenant never touches another tenant's FB or
// CM bytes, interleaving cluster runs from different tenants cannot
// invalidate anyone's schedule — every tenant's sub-schedule of the
// stitched timeline IS its solo CDS schedule, byte for byte (the
// fairness family's solo-equivalence invariant).
//
// What is time-shared is the RC array and the single DMA channel. The
// interleaver (interleave.go) orders whole cluster runs — never splitting
// one — by weighted-fair queueing with virtual-time credit accounting
// over estimated busy cycles, inside strict priority bands: a
// higher-priority tenant preempts lower bands at the next cluster
// boundary, and within a band lag against the ideal weighted share is
// bounded (verify.Fairness re-derives and checks both properties).
// sim.RunTenants executes the stitched order on the shared machine.
package tenant

import (
	"context"
	"fmt"
	"sort"

	"cds"
	"cds/internal/app"
	"cds/internal/arch"
	"cds/internal/conc"
	"cds/internal/scherr"
	"cds/internal/sim"
)

// Quota is one tenant's spatial share of the on-chip memories: FBBytes
// of every Frame Buffer set and CMWords of the Context Memory.
type Quota struct {
	FBBytes int `json:"fb_bytes"`
	CMWords int `json:"cm_words"`
}

// Tenant is one application time-sharing the array.
type Tenant struct {
	// ID names the tenant in reports, invariants and the serve queue.
	ID string `json:"id"`
	// Weight is the tenant's share of the array inside its priority
	// band (>= 1; 0 normalizes to 1).
	Weight int `json:"weight"`
	// Priority is the tenant's band: a higher band preempts lower bands
	// at the next cluster boundary and starves them while it has work —
	// fairness (and the lag bound) hold only among band-mates.
	Priority int `json:"priority,omitempty"`
	// Arrive is the cycle the tenant's work becomes available; none of
	// its DMA transfers issue earlier.
	Arrive int `json:"arrive,omitempty"`
	// Quota is the tenant's FB/CM partition.
	Quota Quota `json:"quota"`
	// Part is the tenant's partitioned application.
	Part *app.Partition `json:"-"`
}

// View returns the quota-restricted machine the tenant's schedule is
// computed against: base with the Frame Buffer set and Context Memory
// narrowed to the quota. Everything the DMA cost model reads (bus
// width, setup cycles, context word size) is untouched, so a visit
// costs the same cycles under the view as on the real machine.
func (t Tenant) View(base arch.Params) arch.Params {
	v := base
	v.Name = base.Name + "/" + t.ID
	v.FBSetBytes = t.Quota.FBBytes
	v.CMWords = t.Quota.CMWords
	return v
}

// Slice is one schedulable unit: a maximal run of consecutive visits of
// one cluster in a lane's schedule (all its RF blocks). Preemption only
// ever happens between slices.
type Slice struct {
	// Lane indexes Plan.Lanes; Cluster is the cluster the run executes.
	Lane    int `json:"lane"`
	Cluster int `json:"cluster"`
	// First/N address visits [First, First+N) of the lane's schedule.
	First int `json:"first"`
	N     int `json:"n"`
	// Cost is the slice's busy cycles (compute + DMA) under the lane's
	// view — the currency of the interleaver's credit accounting.
	Cost int `json:"cost"`
}

// Lane is one tenant's half of the plan: its solo CDS outcome under the
// quota view plus the slice decomposition the interleaver consumed.
type Lane struct {
	Tenant Tenant
	// View is the quota-restricted machine the schedule was computed on.
	View arch.Params
	// Result is the solo CDS run (schedule, timing, allocation) under
	// View — by solo-equivalence, also the tenant's exact sub-schedule
	// of the stitched timeline.
	Result *cds.Result
	// Slices is the lane's cluster-run decomposition, in visit order.
	Slices []Slice
	// Service is the lane's total slice cost (what WFQ metered out).
	Service int
}

// SoloCycles is the lane's solo makespan under its quota view.
func (l *Lane) SoloCycles() int { return l.Result.Timing.TotalCycles }

// SoloLastCompute is the cycle the lane's last visit finishes computing
// in the solo run — the per-lane lower bound the stitched execution can
// never beat (plus the arrival offset).
func (l *Lane) SoloLastCompute() int {
	ve := l.Result.Timing.VisitEnd
	if len(ve) == 0 {
		return 0
	}
	return ve[len(ve)-1]
}

// Step is one interleaver decision, recorded for fairness curves and
// audits: which slice ran, at what plan-time clock, and the credit state
// after charging it.
type Step struct {
	// Lane and Slice identify the emitted slice (Plan.Lanes[Lane].Slices[Slice]).
	Lane  int `json:"lane"`
	Slice int `json:"slice"`
	// Clock is the plan-time cycle the slice was dispatched at (the sum
	// of all prior slice costs plus idle gaps waiting for arrivals).
	Clock int `json:"clock"`
	// VTime is the lane's virtual time after being charged Cost/Weight.
	VTime float64 `json:"vtime"`
}

// Plan is a stitched multi-tenant schedule: per-lane solo CDS schedules
// plus the global emission order and its execution on the shared machine.
type Plan struct {
	// Base is the real machine all quota views were carved from.
	Base arch.Params
	// Lanes holds one entry per tenant, in input order.
	Lanes []*Lane
	// Order is the global emission sequence sim.RunTenants executed.
	Order []sim.TenantSlice
	// Steps mirrors Order with the interleaver's credit bookkeeping.
	Steps []Step
	// Exec is the stitched execution on the shared machine.
	Exec *sim.TenantResult
	// MaxLag is the largest backlog-time lag any lane accumulated
	// against its ideal weighted share (plan-time cycles); always below
	// LagBound for a correct interleaver.
	MaxLag float64
}

// LagBound is the fairness guarantee the plan is checked against: no
// backlogged tenant ever lags its ideal weighted share by more than
// K * max-slice-cost plan-time cycles (K = number of tenants). One
// slice is the preemption granularity, so a tenant can wait at most the
// K-1 others' worst slices plus its own — coarser clusters mean weaker
// fairness, exactly the trade the paper's cluster granularity sets.
func (p *Plan) LagBound() float64 {
	maxCost := 0
	for _, l := range p.Lanes {
		for _, s := range l.Slices {
			if s.Cost > maxCost {
				maxCost = s.Cost
			}
		}
	}
	return float64(maxCost * len(p.Lanes))
}

// Arrivals returns the per-lane arrival cycles in lane order.
func (p *Plan) Arrivals() []int {
	at := make([]int, len(p.Lanes))
	for i, l := range p.Lanes {
		at[i] = l.Tenant.Arrive
	}
	return at
}

// Schedules returns the per-lane schedules in lane order.
func (p *Plan) Schedules() []*cds.Schedule {
	out := make([]*cds.Schedule, len(p.Lanes))
	for i, l := range p.Lanes {
		out[i] = l.Result.Schedule
	}
	return out
}

// normalize defaults zero weights to 1 and returns a defensive copy.
func normalize(tenants []Tenant) []Tenant {
	out := make([]Tenant, len(tenants))
	copy(out, tenants)
	for i := range out {
		if out[i].Weight <= 0 {
			out[i].Weight = 1
		}
	}
	return out
}

// Validate checks the tenant set against the base machine: unique
// non-empty IDs, positive quotas that SUM within the machine (the
// spatial-partition precondition solo-equivalence rests on), sane
// arrival cycles and priorities, and a partition per tenant. All
// rejections match scherr.ErrInvalidSpec.
func Validate(base arch.Params, tenants []Tenant) error {
	if err := base.Validate(); err != nil {
		return fmt.Errorf("tenant: base machine: %w: %w", scherr.ErrInvalidSpec, err)
	}
	if len(tenants) == 0 {
		return fmt.Errorf("tenant: no tenants: %w", scherr.ErrInvalidSpec)
	}
	seen := map[string]bool{}
	sumFB, sumCM := 0, 0
	for i, t := range tenants {
		switch {
		case t.ID == "":
			return fmt.Errorf("tenant: tenants[%d]: empty id: %w", i, scherr.ErrInvalidSpec)
		case seen[t.ID]:
			return fmt.Errorf("tenant: duplicate id %q: %w", t.ID, scherr.ErrInvalidSpec)
		case t.Part == nil:
			return fmt.Errorf("tenant: %s: no application partition: %w", t.ID, scherr.ErrInvalidSpec)
		case t.Quota.FBBytes <= 0:
			return fmt.Errorf("tenant: %s: FB quota must be positive, got %d: %w", t.ID, t.Quota.FBBytes, scherr.ErrInvalidSpec)
		case t.Quota.CMWords <= 0:
			return fmt.Errorf("tenant: %s: CM quota must be positive, got %d: %w", t.ID, t.Quota.CMWords, scherr.ErrInvalidSpec)
		case t.Arrive < 0:
			return fmt.Errorf("tenant: %s: negative arrival cycle %d: %w", t.ID, t.Arrive, scherr.ErrInvalidSpec)
		case t.Priority < 0:
			return fmt.Errorf("tenant: %s: negative priority %d: %w", t.ID, t.Priority, scherr.ErrInvalidSpec)
		}
		seen[t.ID] = true
		sumFB += t.Quota.FBBytes
		sumCM += t.Quota.CMWords
	}
	if sumFB > base.FBSetBytes {
		return fmt.Errorf("tenant: FB quotas sum to %d bytes, machine set holds %d: %w",
			sumFB, base.FBSetBytes, scherr.ErrInvalidSpec)
	}
	if sumCM > base.CMWords {
		return fmt.Errorf("tenant: CM quotas sum to %d words, machine holds %d: %w",
			sumCM, base.CMWords, scherr.ErrInvalidSpec)
	}
	return nil
}

// Schedule builds the multi-tenant plan: per-tenant CDS schedules under
// quota views (fanned out across goroutines), the cluster-run slice
// decomposition, the weighted-fair interleave, and the stitched
// execution on the shared machine.
//
// A tenant whose application cannot be scheduled under its quota fails
// the whole plan with an error naming it (matching scherr.ErrInfeasible)
// — a mix is only admitted whole. Failures carry the scherr taxonomy
// through from the CDS pipeline.
func Schedule(ctx context.Context, base arch.Params, tenants []Tenant) (*Plan, error) {
	tenants = normalize(tenants)
	if err := Validate(base, tenants); err != nil {
		return nil, err
	}
	p := &Plan{Base: base, Lanes: make([]*Lane, len(tenants))}
	errs := make([]error, len(tenants))
	_ = conc.ForEach(ctx, conc.DefaultLimit(), len(tenants), func(i int) error {
		errs[i] = conc.Safe(func() error {
			t := tenants[i]
			view := t.View(base)
			res, err := cds.RunCtx(ctx, cds.CDS, view, t.Part)
			if err != nil {
				return err
			}
			p.Lanes[i] = &Lane{Tenant: t, View: view, Result: res}
			return nil
		})
		return nil
	})
	if err := scherr.FromContext(ctx); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("tenant: %s: %w", tenants[i].ID, err)
		}
	}
	for i, l := range p.Lanes {
		l.Slices = slices(i, l)
		for _, s := range l.Slices {
			l.Service += s.Cost
		}
	}
	p.Order, p.Steps, p.MaxLag = interleave(p.Lanes)
	exec, err := sim.RunTenants(p.Schedules(), p.Arrivals(), p.Order)
	if err != nil {
		return nil, fmt.Errorf("tenant: executing stitched plan: %w", err)
	}
	p.Exec = exec
	return p, nil
}

// slices decomposes a lane's schedule into maximal same-cluster visit
// runs, priced by sim.VisitCost under the lane's view.
func slices(lane int, l *Lane) []Slice {
	visits := l.Result.Schedule.Visits()
	var out []Slice
	for vi := 0; vi < len(visits); {
		first, cluster := vi, visits[vi].Cluster
		cost := 0
		for vi < len(visits) && visits[vi].Cluster == cluster {
			cost += sim.VisitCost(l.View, &visits[vi])
			vi++
		}
		out = append(out, Slice{Lane: lane, Cluster: cluster, First: first, N: vi - first, Cost: cost})
	}
	return out
}

// ByID returns the lane of the given tenant.
func (p *Plan) ByID(id string) (*Lane, bool) {
	for _, l := range p.Lanes {
		if l.Tenant.ID == id {
			return l, true
		}
	}
	return nil, false
}

// SharePoint is one sample of a tenant's cumulative service share.
type SharePoint struct {
	// Cycle is the executed cycle the sample was taken at (the emitting
	// slice's end on the shared machine).
	Cycle int `json:"cycle"`
	// Share is the lane's fraction of all service delivered so far.
	Share float64 `json:"share"`
}

// Curves derives each lane's fairness curve from the executed plan: at
// every slice completion, the lane's cumulative delivered cost over the
// total delivered cost. The last point of lane i's curve converges to
// its weighted share of the work it stayed backlogged for.
func (p *Plan) Curves() [][]SharePoint {
	out := make([][]SharePoint, len(p.Lanes))
	service := make([]int, len(p.Lanes))
	total := 0
	for si, st := range p.Steps {
		cost := p.Lanes[st.Lane].Slices[st.Slice].Cost
		service[st.Lane] += cost
		total += cost
		cycle := p.Exec.SliceEnd[si]
		for li := range p.Lanes {
			out[li] = append(out[li], SharePoint{Cycle: cycle, Share: float64(service[li]) / float64(total)})
		}
	}
	return out
}

// IdealShares returns each lane's weight fraction within the whole mix
// (the dashed reference line of the fairness curve rendering).
func (p *Plan) IdealShares() []float64 {
	sum := 0
	for _, l := range p.Lanes {
		sum += l.Tenant.Weight
	}
	out := make([]float64, len(p.Lanes))
	for i, l := range p.Lanes {
		out[i] = float64(l.Tenant.Weight) / float64(sum)
	}
	return out
}

// SortedIDs returns the tenant IDs in lexical order (stable reporting).
func (p *Plan) SortedIDs() []string {
	ids := make([]string, len(p.Lanes))
	for i, l := range p.Lanes {
		ids[i] = l.Tenant.ID
	}
	sort.Strings(ids)
	return ids
}
