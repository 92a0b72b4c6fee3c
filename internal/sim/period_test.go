package sim

import (
	"fmt"
	"math"
	"testing"

	"cds/internal/app"
	"cds/internal/arch"
	"cds/internal/core"
	"cds/internal/workloads"
)

// candidates returns the schedules of Basic and of every feasible RF
// candidate of DS, CDS and CDS with cross-set reuse on one input. An
// evaluator that scores every candidate above any DMA demand makes the
// RF guard build and score them all.
func candidates(pa arch.Params, part *app.Partition) []*core.Schedule {
	var out []*core.Schedule
	if s, err := (core.Basic{}).Schedule(pa, part); err == nil {
		out = append(out, s)
	}
	var scored []*core.Schedule
	record := func(s *core.Schedule) (int, error) {
		scored = append(scored, s)
		return math.MaxInt, nil
	}
	for _, sched := range []core.Scheduler{core.DataScheduler{Eval: record}, core.CompleteDataScheduler{Eval: record},
		core.CompleteDataScheduler{Eval: record, CrossSetReuse: true}} {
		scored = scored[:0]
		s, err := sched.Schedule(pa, part)
		if err != nil {
			continue
		}
		if len(scored) == 0 {
			scored = append(scored, s) // RF-max is 1: no guard
		}
		out = append(out, scored...)
	}
	return out
}

// TestFastForwardWalksUnderHalf: over every candidate schedule of Table
// 1, GenSpec(1, 0..543) and the pinned regressions, the period walk runs
// under half of the blocks, and gives the result of the walk over the
// expansion.
func TestFastForwardWalksUnderHalf(t *testing.T) {
	var inputs []workloads.Experiment
	for _, e := range workloads.All() {
		inputs = append(inputs, e)
	}
	for i := 0; i < 544; i++ {
		part, p, err := workloads.GenSpec(1, i).Build()
		if err != nil {
			t.Fatalf("GenSpec(1, %d): %v", i, err)
		}
		inputs = append(inputs, workloads.Experiment{Name: fmt.Sprintf("spec/%03d", i), Arch: p, Part: part})
	}
	for _, sp := range workloads.Regressions() {
		part, p, err := sp.Build()
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		inputs = append(inputs, workloads.Experiment{Name: sp.Name, Arch: p, Part: part})
	}
	walked, blocks, n := 0, 0, 0
	for _, e := range inputs {
		for _, s := range candidates(e.Arch, e.Part) {
			res, visits := walkPeriod(newLane(s, false))
			want := walkOne(newLane(s, true), static, nil)
			if res.TotalCycles != want.TotalCycles || res.StallCycles != want.StallCycles {
				t.Fatalf("%s/%s RF %d: period walk %d cycles, %d stalled; expansion %d, %d",
					e.Name, s.Scheduler, s.RF, res.TotalCycles, res.StallCycles, want.TotalCycles, want.StallCycles)
			}
			nc := len(s.P.Clusters)
			walked += visits / nc
			blocks += s.NumVisits() / nc
			n++
		}
	}
	t.Logf("%d schedules: the period walk ran %d of %d blocks", n, walked, blocks)
	if walked*2 > blocks {
		t.Errorf("the period walk ran %d of %d blocks; want under half", walked, blocks)
	}
}
