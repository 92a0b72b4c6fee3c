package sim

import (
	"testing"

	"cds/internal/app"
	"cds/internal/arch"
	"cds/internal/core"
)

// handSchedule builds a two-visit schedule with round numbers:
//
//	arch: bus 4 bytes/cycle, 4-cycle DMA setup, 4-byte context words.
//	v0 (set 0): ctx 16 words (20 cy), load 8 bytes (6 cy), compute 100,
//	            store 8 bytes (6 cy)
//	v1 (set 1): ctx 16 words (20 cy), load 8 bytes (6 cy), compute 100,
//	            store 8 bytes (6 cy)
func handSchedule() *core.Schedule {
	return core.Schedule{
		Scheduler: "hand",
		Arch:      arch.M1(),
	}.WithVisits([]core.Visit{
		{
			Cluster: 0, Set: 0, Iters: 1,
			Loads:         []core.Movement{{Datum: "a", Bytes: 8}},
			Stores:        []core.Movement{{Datum: "r", Bytes: 8}},
			CtxWords:      16,
			ComputeCycles: 100,
		},
		{
			Cluster: 1, Set: 1, Iters: 1,
			Loads:         []core.Movement{{Datum: "b", Bytes: 8}},
			Stores:        []core.Movement{{Datum: "s", Bytes: 8}},
			CtxWords:      16,
			ComputeCycles: 100,
		},
	})
}

// edit returns s rebuilt from the expansion of its visits after f edits
// it.
func edit(s *core.Schedule, f func(vs []core.Visit)) *core.Schedule {
	vs := s.Visits()
	f(vs)
	return s.WithVisits(vs)
}

func TestRunHandTimeline(t *testing.T) {
	res, err := Run(handSchedule())
	if err != nil {
		t.Fatal(err)
	}
	// v0: transfers 0..26 (ctx 20 + load 6); compute 26..126.
	// v1: transfers 26..52 (other set, overlaps v0 compute);
	//     compute starts at 126 (RC busy), ends 226.
	// v0 store: DMA free at 52, but waits for compute end 126: 126..132.
	// v1 store: waits compute end 226: 226..232.
	if res.VisitStart[0] != 26 || res.VisitEnd[0] != 126 {
		t.Errorf("v0 interval = %d..%d, want 26..126", res.VisitStart[0], res.VisitEnd[0])
	}
	if res.VisitStart[1] != 126 || res.VisitEnd[1] != 226 {
		t.Errorf("v1 interval = %d..%d, want 126..226", res.VisitStart[1], res.VisitEnd[1])
	}
	if res.TotalCycles != 232 {
		t.Errorf("TotalCycles = %d, want 232", res.TotalCycles)
	}
	if res.ComputeCycles != 200 {
		t.Errorf("ComputeCycles = %d, want 200", res.ComputeCycles)
	}
	if res.CtxCycles != 40 || res.DataCycles != 24 {
		t.Errorf("CtxCycles/DataCycles = %d/%d, want 40/24", res.CtxCycles, res.DataCycles)
	}
	if res.DMABusy() != 64 {
		t.Errorf("DMABusy = %d, want 64", res.DMABusy())
	}
	// v1's transfers were fully hidden by v0's compute: the only stall
	// is v0's cold start.
	if res.StallCycles != 26 {
		t.Errorf("StallCycles = %d, want 26", res.StallCycles)
	}
	if res.LoadBytes != 16 || res.StoreBytes != 16 || res.CtxWords != 32 {
		t.Errorf("volumes = %d/%d/%d, want 16/16/32", res.LoadBytes, res.StoreBytes, res.CtxWords)
	}
}

func TestRunSameSetSerializes(t *testing.T) {
	// Two visits on the SAME set: v1's loads must wait for v0's stores,
	// which wait for v0's compute. No overlap is possible.
	s := edit(handSchedule(), func(vs []core.Visit) { vs[1].Set = 0 })
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	// v0: transfers 0..26, compute 26..126, store 126..132.
	// v1: transfers 132..158, compute 158..258, store 258..264.
	if res.VisitStart[1] != 158 {
		t.Errorf("v1 start = %d, want 158 (serialized)", res.VisitStart[1])
	}
	if res.TotalCycles != 264 {
		t.Errorf("TotalCycles = %d, want 264", res.TotalCycles)
	}
}

func TestRunTransferBound(t *testing.T) {
	// Tiny compute: the DMA is the bottleneck and stalls accumulate.
	s := edit(handSchedule(), func(vs []core.Visit) {
		vs[0].ComputeCycles = 1
		vs[1].ComputeCycles = 1
	})
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.StallCycles == 0 {
		t.Error("expected stalls with transfer-bound visits")
	}
	if res.TotalCycles <= res.ComputeCycles {
		t.Error("total must exceed compute when transfer-bound")
	}
}

func TestRunEmptyScheduleAndErrors(t *testing.T) {
	if _, err := Run(nil); err == nil {
		t.Error("Run(nil) should fail")
	}
	bad := handSchedule()
	bad.Arch.BusBytes = 0
	if _, err := Run(bad); err == nil {
		t.Error("invalid arch should fail")
	}
	empty := &core.Schedule{Scheduler: "empty", Arch: arch.M1()}
	res, err := Run(empty)
	if err != nil || res.TotalCycles != 0 {
		t.Errorf("empty schedule: res=%+v err=%v, want 0 cycles", res, err)
	}
}

func TestImprovement(t *testing.T) {
	base := &Result{TotalCycles: 200}
	better := &Result{TotalCycles: 150}
	if got := Improvement(base, better); got != 25 {
		t.Errorf("Improvement = %v, want 25", got)
	}
	// The zero-baseline guard: a degenerate (empty) baseline must not
	// divide by zero — the improvement is defined as 0, whatever the
	// candidate did.
	if got := Improvement(&Result{}, better); got != 0 {
		t.Errorf("Improvement with zero baseline = %v, want 0", got)
	}
	if got := Improvement(&Result{}, &Result{}); got != 0 {
		t.Errorf("Improvement of empty over empty = %v, want 0", got)
	}
	// Identical results: exactly 0, not a rounding artifact.
	if got := Improvement(base, base); got != 0 {
		t.Errorf("Improvement over itself = %v, want 0", got)
	}
	// Worse schedules yield negative improvement.
	if got := Improvement(better, base); got >= 0 {
		t.Errorf("Improvement of a regression = %v, want negative", got)
	}
}

// schedulerPipeline builds the canonical pipe application (see core tests)
// and runs all three schedulers through the simulator.
func TestSchedulerOrdering(t *testing.T) {
	b := app.NewBuilder("pipe", 16).
		Datum("inA", 100).
		Datum("x", 50).
		Datum("m", 30).
		Datum("r2", 60).
		Datum("rB", 40).
		Datum("out1", 20).
		Datum("out2", 20)
	b.Kernel("k1", 48, 300).In("inA", "x").Out("m")
	b.Kernel("k2", 48, 300).In("m").Out("r2", "rB")
	b.Kernel("k3", 48, 300).In("r2").Out("out1")
	b.Kernel("k4", 48, 300).In("inA", "rB").Out("out2")
	part := app.MustPartition(b.MustBuild(), 2, 2, 1, 1)

	pa := arch.M1()
	pa.FBSetBytes = 400
	pa.CMWords = 96 // two kernels' worth: forces context thrash

	run := func(s core.Scheduler) *Result {
		t.Helper()
		sched, err := s.Schedule(pa, part)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		res, err := Run(sched)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		return res
	}
	basic := run(core.Basic{})
	ds := run(core.DataScheduler{})
	cds := run(core.CompleteDataScheduler{})

	if !(cds.TotalCycles <= ds.TotalCycles && ds.TotalCycles <= basic.TotalCycles) {
		t.Errorf("ordering broken: basic=%d ds=%d cds=%d",
			basic.TotalCycles, ds.TotalCycles, cds.TotalCycles)
	}
	if cds.TotalCycles >= basic.TotalCycles {
		t.Error("CDS must strictly beat basic on this workload")
	}
	// Compute work is scheduler-independent.
	if basic.ComputeCycles != ds.ComputeCycles || ds.ComputeCycles != cds.ComputeCycles {
		t.Errorf("compute differs: %d/%d/%d", basic.ComputeCycles, ds.ComputeCycles, cds.ComputeCycles)
	}
	// CDS moves strictly less data than DS, which moves the same as basic.
	if cds.LoadBytes >= ds.LoadBytes {
		t.Errorf("CDS loads %d, DS loads %d: retention saved nothing", cds.LoadBytes, ds.LoadBytes)
	}
	if ds.LoadBytes != basic.LoadBytes {
		t.Errorf("DS loads %d, basic loads %d: should match", ds.LoadBytes, basic.LoadBytes)
	}
	// DS reloads contexts less often than basic.
	if ds.CtxWords >= basic.CtxWords {
		t.Errorf("DS ctx words %d, basic %d: RF gave nothing", ds.CtxWords, basic.CtxWords)
	}
}

func TestCompare(t *testing.T) {
	s := handSchedule()
	s2 := edit(handSchedule(), func(vs []core.Visit) {
		vs[0].CtxWords = 0
		vs[1].CtxWords = 0
	})
	base, cand, pct, err := Compare(s, s2)
	if err != nil {
		t.Fatal(err)
	}
	if base.TotalCycles <= cand.TotalCycles {
		t.Errorf("candidate (no ctx loads) should be faster: %d vs %d", base.TotalCycles, cand.TotalCycles)
	}
	if pct <= 0 {
		t.Errorf("improvement = %v, want positive", pct)
	}
}
