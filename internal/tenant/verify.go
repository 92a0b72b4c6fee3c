package tenant

// Plan verification. Two layers:
//
//   - verify.Fairness re-derives the scheduling-policy invariants
//     (quotas, boundary-only preemption, priority, bounded lag, the
//     execution dominance facts) from the plan's raw parts — it lives in
//     internal/verify with the other invariant families and knows
//     nothing about this package;
//   - solo-equivalence lives HERE because it needs the CDS pipeline:
//     each lane's schedule must be byte-identical to a fresh solo CDS
//     run under the same quota view. The scheduler is a pure function of
//     (machine, partition), so any divergence means the tenant layer
//     leaked state between tenants or mutated a schedule while
//     stitching.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"cds"
	"cds/internal/core"
	"cds/internal/scherr"
	"cds/internal/verify"
)

// VerifyLanes converts the plan into the verifier's self-contained rows.
func (p *Plan) VerifyLanes() []verify.TenantLane {
	lanes := make([]verify.TenantLane, len(p.Lanes))
	for i, l := range p.Lanes {
		lanes[i] = verify.TenantLane{
			ID:       l.Tenant.ID,
			Weight:   l.Tenant.Weight,
			Priority: l.Tenant.Priority,
			Arrive:   l.Tenant.Arrive,
			FBQuota:  l.Tenant.Quota.FBBytes,
			CMQuota:  l.Tenant.Quota.CMWords,
			Schedule: l.Result.Schedule,
		}
	}
	return lanes
}

// VerifyPlan audits the plan end to end: the fairness invariant family
// plus per-lane solo-equivalence. All violations match scherr.ErrVerify.
func VerifyPlan(ctx context.Context, p *Plan) error {
	if p == nil {
		return fmt.Errorf("tenant: nil plan: %w", scherr.ErrVerify)
	}
	if err := verify.Fairness(p.Base, p.VerifyLanes(), p.Order); err != nil {
		return err
	}
	return SoloEquivalence(ctx, p)
}

// canonicalSchedule is the byte-compared projection of a schedule: the
// decisions a scheduler makes, free of pointer-carrying analysis state.
type canonicalSchedule struct {
	Scheduler string          `json:"scheduler"`
	RF        int             `json:"rf"`
	Retained  []core.Retained `json:"retained,omitempty"`
	Visits    []core.Visit    `json:"visits"`
}

// MarshalCanonicalSchedule renders the schedule's decision content as
// deterministic JSON, for byte-level equivalence checks and golden
// files.
func MarshalCanonicalSchedule(s *core.Schedule) ([]byte, error) {
	return json.Marshal(canonicalSchedule{
		Scheduler: s.Scheduler,
		RF:        s.RF,
		Retained:  s.Retained,
		Visits:    s.Visits(),
	})
}

// SoloEquivalence re-runs CDS solo for every lane — same quota view,
// same partition — and asserts the plan's lane schedule is byte-identical
// to the fresh run. With result caching enabled the fresh run may be the
// memoized comparison; golden tests disable caching to force a true
// recomputation (cds.SetResultCaching).
func SoloEquivalence(ctx context.Context, p *Plan) error {
	for _, l := range p.Lanes {
		solo, err := cds.RunCtx(ctx, cds.CDS, l.View, l.Tenant.Part)
		if err != nil {
			return fmt.Errorf("tenant: %s: solo re-run: %w", l.Tenant.ID, err)
		}
		want, err := MarshalCanonicalSchedule(solo.Schedule)
		if err != nil {
			return fmt.Errorf("tenant: %s: %w", l.Tenant.ID, err)
		}
		got, err := MarshalCanonicalSchedule(l.Result.Schedule)
		if err != nil {
			return fmt.Errorf("tenant: %s: %w", l.Tenant.ID, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("tenant: %s: plan schedule diverges from the solo CDS run under the same quota (%d vs %d bytes canonical): %w",
				l.Tenant.ID, len(got), len(want), scherr.ErrVerify)
		}
	}
	return nil
}
