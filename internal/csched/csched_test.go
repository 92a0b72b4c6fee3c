package csched

import (
	"fmt"
	"testing"

	"cds/internal/app"
	"cds/internal/arch"
	"cds/internal/core"
	"cds/internal/sim"
	"cds/internal/trace"
	"cds/internal/workloads"
)

func testSchedule(t *testing.T, fb, cm, computeCycles int) *core.Schedule {
	t.Helper()
	b := app.NewBuilder("cs", 16).
		Datum("in", 200).
		Datum("mid", 100).
		Datum("out", 50)
	b.Kernel("k1", 64, computeCycles).In("in").Out("mid")
	b.Kernel("k2", 64, computeCycles).In("mid").Out("out")
	part := app.MustPartition(b.MustBuild(), 2, 1, 1)
	pa := arch.M1()
	pa.FBSetBytes = fb
	pa.CMWords = cm
	s, err := (core.DataScheduler{}).Schedule(pa, part)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildOverlapsWithLongCompute(t *testing.T) {
	// Long compute windows hide every context load except the first.
	s := testSchedule(t, 2048, 96, 100000)
	plan, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Visits) != s.NumVisits() {
		t.Fatalf("plan has %d visits, want %d", len(plan.Visits), s.NumVisits())
	}
	if plan.Visits[0].OverlappedCycles != 0 {
		t.Error("first visit has nothing to overlap with")
	}
	for i := 1; i < len(plan.Visits); i++ {
		vp := plan.Visits[i]
		if vp.Words > 0 && vp.ExposedCycles != 0 {
			t.Errorf("visit %d: %d exposed cycles despite huge compute window", i, vp.ExposedCycles)
		}
	}
	if plan.OverlapRatio() <= 0.5 {
		t.Errorf("overlap ratio = %v, want > 0.5", plan.OverlapRatio())
	}
}

func TestBuildExposedWithTinyCompute(t *testing.T) {
	// With 1-cycle kernels nothing can hide: all context time exposed.
	s := testSchedule(t, 2048, 96, 1)
	plan, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ExposedCycles == 0 {
		t.Error("expected exposed context cycles with tiny compute")
	}
	if plan.OverlapRatio() > 0.5 {
		t.Errorf("overlap ratio = %v, want small", plan.OverlapRatio())
	}
}

func TestBuildDoubleBufferedFlag(t *testing.T) {
	// CM holds both clusters' contexts (64+64 <= 192): double-buffered.
	s := testSchedule(t, 2048, 192, 1000)
	plan, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.DoubleBuffered {
		t.Error("CM fits both clusters: want DoubleBuffered")
	}
	// CM too small for both (64+64 > 96): not double-buffered.
	s = testSchedule(t, 2048, 96, 1000)
	plan, err = Build(s)
	if err != nil {
		t.Fatal(err)
	}
	if plan.DoubleBuffered {
		t.Error("CM cannot fit adjacent clusters: want !DoubleBuffered")
	}
}

func TestBuildTotals(t *testing.T) {
	s := testSchedule(t, 2048, 96, 1000)
	plan, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	wantWords := s.TotalCtxWords()
	if plan.TotalWords != wantWords {
		t.Errorf("TotalWords = %d, want %d", plan.TotalWords, wantWords)
	}
	sumExp, sumOv := 0, 0
	for _, vp := range plan.Visits {
		if vp.ExposedCycles < 0 || vp.OverlappedCycles < 0 {
			t.Errorf("negative cycle classification: %+v", vp)
		}
		if vp.ExposedCycles+vp.OverlappedCycles != vp.Cycles {
			t.Errorf("visit %d: exposed+overlapped != total (%d+%d != %d)",
				vp.Visit, vp.ExposedCycles, vp.OverlappedCycles, vp.Cycles)
		}
		sumExp += vp.ExposedCycles
		sumOv += vp.OverlappedCycles
	}
	if sumExp != plan.ExposedCycles {
		t.Errorf("ExposedCycles = %d, visits sum to %d", plan.ExposedCycles, sumExp)
	}
	if sumExp+sumOv != plan.TotalCycles {
		t.Errorf("TotalCycles = %d, visits sum to %d", plan.TotalCycles, sumExp+sumOv)
	}
}

func TestBuildNilAndInvalid(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Error("nil schedule accepted")
	}
	s := testSchedule(t, 2048, 96, 1000)
	s.Arch.BusBytes = 0
	if _, err := Build(s); err == nil {
		t.Error("invalid arch accepted")
	}
}

func TestOverlapRatioEmptyPlan(t *testing.T) {
	p := &Plan{}
	if p.OverlapRatio() != 1 {
		t.Error("empty plan should report full overlap")
	}
}

// makespan scores a reuse factor candidate by its simulated makespan,
// the RF guard of the cds facade.
func makespan(s *core.Schedule) (int, error) {
	r, err := sim.Run(s)
	if err != nil {
		return 0, err
	}
	return r.TotalCycles, nil
}

// TestPlanMatchesMachineModel: over Basic, DS and CDS of Table 1 and
// GenSpec(1, 0..543), the plan's exposed context cycles are the context
// share of the traced timeline's critical path, and every visit's
// context cycles split into exposed and overlapped.
func TestPlanMatchesMachineModel(t *testing.T) {
	inputs := workloads.All()
	for i := 0; i < 544; i++ {
		part, p, err := workloads.GenSpec(1, i).Build()
		if err != nil {
			t.Fatalf("GenSpec(1, %d): %v", i, err)
		}
		inputs = append(inputs, workloads.Experiment{Name: fmt.Sprintf("spec/%03d", i), Arch: p, Part: part})
	}
	n := 0
	for _, e := range inputs {
		for _, sched := range []core.Scheduler{core.Basic{}, core.DataScheduler{Eval: makespan},
			core.CompleteDataScheduler{Eval: makespan}} {
			s, err := sched.Schedule(e.Arch, e.Part)
			if err != nil {
				continue
			}
			n++
			plan, err := Build(s)
			if err != nil {
				t.Fatalf("%s/%s: %v", e.Name, s.Scheduler, err)
			}
			_, tl, err := sim.Trace(s)
			if err != nil {
				t.Fatal(err)
			}
			if want := trace.Analyze(tl).Path.ExposedCtx; plan.ExposedCycles != want {
				t.Errorf("%s/%s: plan exposes %d context cycles, the timeline %d",
					e.Name, s.Scheduler, plan.ExposedCycles, want)
			}
			for _, vp := range plan.Visits {
				if vp.ExposedCycles+vp.OverlappedCycles != vp.Cycles || vp.OverlappedCycles < 0 {
					t.Fatalf("%s/%s: visit %d: %d exposed + %d overlapped != %d cycles",
						e.Name, s.Scheduler, vp.Visit, vp.ExposedCycles, vp.OverlappedCycles, vp.Cycles)
				}
			}
		}
	}
	t.Logf("%d schedules", n)
}
