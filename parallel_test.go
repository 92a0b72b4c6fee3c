package cds

// Tests for the concurrent scheduling engine: the parallel CompareAll
// must be bit-identical to running the three schedulers serially, and
// sharing a partition (plus its memoized analysis) across many
// goroutines must be race-free — run these under `go test -race`.

import (
	"sync"
	"testing"

	"cds/internal/core"
	"cds/internal/workloads"
)

// TestCompareAllMatchesSerial checks the fanned-out CompareAll computes
// exactly what three serial Run calls compute, on every Table 1 row.
func TestCompareAllMatchesSerial(t *testing.T) {
	for _, e := range workloads.All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			cmp, err := CompareAll(e.Arch, e.Part)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []SchedulerKind{Basic, DS, CDS} {
				want, err := Run(k, e.Arch, e.Part)
				if err != nil {
					t.Fatalf("%s: %v", k, err)
				}
				var got *Result
				switch k {
				case Basic:
					got = cmp.Basic
				case DS:
					got = cmp.DS
				case CDS:
					got = cmp.CDS
				}
				if got.Timing.TotalCycles != want.Timing.TotalCycles {
					t.Errorf("%s: parallel %d cycles, serial %d", k,
						got.Timing.TotalCycles, want.Timing.TotalCycles)
				}
				if got.Schedule.TotalLoadBytes() != want.Schedule.TotalLoadBytes() ||
					got.Schedule.TotalCtxWords() != want.Schedule.TotalCtxWords() {
					t.Errorf("%s: parallel and serial schedules move different traffic", k)
				}
			}
		})
	}
}

// TestCompareAllConcurrent hammers one partition from many goroutines:
// every comparison must come back identical, and under -race this
// proves Schedule, Info and arch.Params are safe to share read-only.
func TestCompareAllConcurrent(t *testing.T) {
	e := workloads.MPEG()
	ref, err := CompareAll(e.Arch, e.Part)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	cmps := make([]*Comparison, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cmps[g], errs[g] = CompareAll(e.Arch, e.Part)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if cmps[g].ImprovementCDS != ref.ImprovementCDS ||
			cmps[g].ImprovementDS != ref.ImprovementDS ||
			cmps[g].RF != ref.RF || cmps[g].DTBytes != ref.DTBytes {
			t.Errorf("goroutine %d: diverging comparison", g)
		}
	}
	// The three runs share ONE memoized analysis.
	if ref.Basic.Schedule.Info != ref.DS.Schedule.Info || ref.DS.Schedule.Info != ref.CDS.Schedule.Info {
		t.Error("schedulers did not share the memoized analysis Info")
	}
}

// TestCompareAllBasicInfeasibleParallel keeps the memory-floor contract
// under the fan-out: a Basic failure is reported in BasicErr, not as a
// CompareAll error, with 100% improvements.
func TestCompareAllBasicInfeasibleParallel(t *testing.T) {
	e := workloads.MPEGFloor()
	cmp, err := CompareAll(e.Arch, e.Part)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.BasicErr == nil {
		t.Fatal("basic unexpectedly feasible at the MPEG floor")
	}
	if cmp.Basic != nil {
		t.Error("Basic result set despite infeasibility")
	}
	if cmp.ImprovementDS != 100 || cmp.ImprovementCDS != 100 {
		t.Errorf("floor improvements = %v/%v, want 100/100", cmp.ImprovementDS, cmp.ImprovementCDS)
	}
}

// TestScheduleConcurrentRFGuard runs the RF guard from concurrent callers
// on one shared partition (race coverage for the memoized analysis every
// guard candidate reads).
func TestScheduleConcurrentRFGuard(t *testing.T) {
	e := workloads.MPEG()
	var wg sync.WaitGroup
	rfs := make([]int, 6)
	for g := range rfs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, err := (core.CompleteDataScheduler{Eval: core.DMACost}).Schedule(e.Arch, e.Part)
			if err != nil {
				t.Error(err)
				return
			}
			rfs[g] = s.RF
		}(g)
	}
	wg.Wait()
	for g := 1; g < len(rfs); g++ {
		if rfs[g] != rfs[0] {
			t.Fatalf("concurrent guards settled on different RFs: %v", rfs)
		}
	}
}
