package csched

import (
	"testing"

	"cds/internal/app"
	"cds/internal/arch"
	"cds/internal/core"
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
