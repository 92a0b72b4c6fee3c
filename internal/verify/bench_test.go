package verify_test

import (
	"context"
	"errors"
	"testing"

	"cds/internal/core"
	"cds/internal/scherr"
	"cds/internal/tenant"
	"cds/internal/verify"
	"cds/internal/workloads"
)

// genSpecSchedules returns the Basic, DS and CDS schedules of
// GenSpec(1, 0..n-1), skipping infeasible ones.
func genSpecSchedules(tb testing.TB, n int) []*core.Schedule {
	tb.Helper()
	var out []*core.Schedule
	for i := 0; i < n; i++ {
		part, p, err := workloads.GenSpec(1, i).Build()
		if err != nil {
			tb.Fatalf("GenSpec(1, %d): %v", i, err)
		}
		for _, sched := range []core.Scheduler{core.Basic{}, core.DataScheduler{}, core.CompleteDataScheduler{}} {
			s, err := sched.Schedule(p, part)
			if errors.Is(err, scherr.ErrInfeasible) {
				continue
			}
			if err != nil {
				tb.Fatalf("GenSpec(1, %d)/%s: %v", i, sched.Name(), err)
			}
			out = append(out, s)
		}
	}
	return out
}

func mpegCDSSchedule(tb testing.TB) *core.Schedule {
	tb.Helper()
	e := workloads.MPEG()
	s, err := (core.CompleteDataScheduler{}).Schedule(e.Arch, e.Part)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// BenchmarkVerifySchedule measures the full audit of one schedule: the
// MPEG CDS schedule, and a fixed corpus sample (the Basic, DS and CDS
// schedules of GenSpec(1, 0..63)) audited round-robin, one schedule per
// op.
func BenchmarkVerifySchedule(b *testing.B) {
	for _, bc := range []struct {
		name   string
		scheds func(testing.TB) []*core.Schedule
	}{
		{"MPEG-CDS", func(tb testing.TB) []*core.Schedule { return []*core.Schedule{mpegCDSSchedule(tb)} }},
		{"GenSpec", func(tb testing.TB) []*core.Schedule { return genSpecSchedules(tb, 64) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			scheds := bc.scheds(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := verify.Schedule(scheds[i%len(scheds)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerifyFairness measures the fairness audit of a fixed sample
// of generated tenant mixes (GenTenantMix(1, 0..15)), one plan per op.
func BenchmarkVerifyFairness(b *testing.B) {
	type audit struct {
		plan *tenant.Plan
		mix  *workloads.TenantMix
	}
	var audits []audit
	for i := 0; i < 16; i++ {
		mix := workloads.GenTenantMix(1, i)
		tenants := make([]tenant.Tenant, len(mix.Tenants))
		for j, ts := range mix.Tenants {
			part, _, err := ts.Spec.Build()
			if err != nil {
				b.Fatalf("mix %d tenant %s: %v", i, ts.ID, err)
			}
			tenants[j] = tenant.Tenant{
				ID: ts.ID, Weight: ts.Weight, Priority: ts.Priority, Arrive: ts.Arrive,
				Quota: tenant.Quota{FBBytes: ts.Spec.Arch.FBSetBytes, CMWords: ts.Spec.Arch.CMWords},
				Part:  part,
			}
		}
		plan, err := tenant.Schedule(context.Background(), mix.Base, tenants)
		if errors.Is(err, scherr.ErrInfeasible) {
			continue
		}
		if err != nil {
			b.Fatalf("mix %d: %v", i, err)
		}
		audits = append(audits, audit{plan, mix})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := audits[i%len(audits)]
		if err := verify.Fairness(a.mix.Base, a.plan.VerifyLanes(), a.plan.Order); err != nil {
			b.Fatal(err)
		}
	}
}
