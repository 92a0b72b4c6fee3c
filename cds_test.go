package cds

import (
	"context"
	"strings"
	"testing"

	"cds/internal/core"
	"cds/internal/workloads"
)

// LookupComparison is the (arch, partition)-addressed lookup the cache
// tests read through: LookupComparisonByKey under ComparisonKey.
func LookupComparison(pa Arch, part *Part) (*Comparison, bool) {
	return LookupComparisonByKey(ComparisonKey(pa, part))
}

func facadePartition(t *testing.T) *Part {
	t.Helper()
	b := NewApp("facade", 8).
		Datum("in", 128).
		Datum("tbl", 192).
		Datum("mid", 64).
		Datum("sr", 96).
		Datum("out1", 64).
		Datum("out2", 64)
	b.Kernel("k1", 96, 150).In("in", "tbl").Out("mid")
	b.Kernel("k2", 96, 150).In("mid").Out("out1", "sr")
	b.Kernel("k3", 96, 150).In("out1")
	b.Kernel("k4", 96, 150).In("tbl", "sr").Out("out2")
	a, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Partition(a, 2, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func facadeArch() Arch {
	pa := M1()
	pa.FBSetBytes = 1 * KiB
	pa.CMWords = 256
	return pa
}

func TestRunAllKinds(t *testing.T) {
	part := facadePartition(t)
	for _, kind := range []SchedulerKind{Basic, DS, CDS} {
		res, err := Run(kind, facadeArch(), part)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Timing.TotalCycles <= 0 {
			t.Errorf("%v: non-positive total time", kind)
		}
		if res.Schedule.Scheduler != kind.String() {
			t.Errorf("%v: schedule labeled %q", kind, res.Schedule.Scheduler)
		}
		if res.Allocation == nil || len(res.Allocation.PeakUsed) == 0 {
			t.Errorf("%v: missing allocation report", kind)
		}
	}
}

func TestRunUnknownKind(t *testing.T) {
	if _, err := Run(SchedulerKind(42), facadeArch(), facadePartition(t)); err == nil {
		t.Error("unknown scheduler kind accepted")
	}
}

func TestCompareAll(t *testing.T) {
	cmp, err := CompareAll(facadeArch(), facadePartition(t))
	if err != nil {
		t.Fatal(err)
	}
	if cmp.BasicErr != nil {
		t.Fatalf("basic unexpectedly infeasible: %v", cmp.BasicErr)
	}
	if cmp.ImprovementCDS < cmp.ImprovementDS {
		t.Errorf("CDS improvement %.1f below DS %.1f", cmp.ImprovementCDS, cmp.ImprovementDS)
	}
	if cmp.RF < 1 {
		t.Errorf("RF = %d", cmp.RF)
	}
	if cmp.DTBytes <= 0 {
		t.Errorf("DTBytes = %d, want retention savings on this workload", cmp.DTBytes)
	}
}

func TestCompareAllBasicInfeasible(t *testing.T) {
	pa := facadeArch()
	pa.FBSetBytes = 560 // basic needs in+tbl+mid+out1+sr = 544... cluster 0 fits; shrink more
	pa.FBSetBytes = 500
	cmp, err := CompareAll(pa, facadePartition(t))
	if err != nil {
		t.Fatal(err)
	}
	if cmp.BasicErr == nil {
		t.Skip("basic fits at this size; adjust the workload if this fires")
	}
	if cmp.ImprovementDS != 100 || cmp.ImprovementCDS != 100 {
		t.Errorf("improvements = %.0f/%.0f, want 100/100 when basic cannot run",
			cmp.ImprovementDS, cmp.ImprovementCDS)
	}
}

func TestSchedulerKindString(t *testing.T) {
	if Basic.String() != "basic" || DS.String() != "ds" || CDS.String() != "cds" {
		t.Error("SchedulerKind names broken")
	}
	if !strings.Contains(SchedulerKind(7).String(), "7") {
		t.Error("unknown kind should render numerically")
	}
}

// TestScheduleAllocs pins the guarded schedulers' cost on MPEG with the
// simulator as their evaluator, as the pipeline runs them: the RF guard
// walks a candidate's transfers for its DMA demand without allocating,
// and builds and simulates only a candidate that demand cannot rule out.
// Both schedulers run one Context Memory for all their candidates. DS
// made 33 allocations and CDS 51 when every candidate was built and
// scored.
func TestScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items, so the feasibility scratch pool allocates at random")
	}
	e := workloads.MPEG()
	for _, c := range []struct {
		sched core.Scheduler
		max   float64
	}{
		{core.DataScheduler{Eval: new(guardTiming).eval}, 13},
		{core.CompleteDataScheduler{Eval: new(guardTiming).eval}, 35},
	} {
		run := func() {
			if _, err := c.sched.ScheduleCtx(context.Background(), e.Arch, e.Part); err != nil {
				t.Fatal(err)
			}
		}
		run() // the memoized analysis
		if allocs := testing.AllocsPerRun(100, run); allocs > c.max {
			t.Errorf("%s: ScheduleCtx makes %.0f allocations, want <= %.0f", c.sched.Name(), allocs, c.max)
		}
	}
}
