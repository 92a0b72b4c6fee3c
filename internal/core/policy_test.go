package core

import (
	"errors"
	"testing"

	"cds/internal/alloc"
	"cds/internal/app"
)

// TestDMACostGuardCanPreferLowerRF: scored by DMACost, the RF guard trades
// context reuse for retention when the retention saves more traffic.
func TestDMACostGuardCanPreferLowerRF(t *testing.T) {
	// Clusters 0 and 4 (set 0) share a 400-byte table; cluster 2 sits
	// between them with a 300-byte private input. At the maximum RF=2
	// the pinned table does not fit past the pass-through cluster
	// (2 * (380+400) > 1400), so the paper's policy drops retention. At
	// RF=1 retention fits. With a huge CM the RF buys no context
	// savings, so the guard should trade RF down for the retention.
	b := app.NewBuilder("rf-vs-ret", 8).
		Datum("tbl", 400).
		Datum("in0", 100).
		Datum("in2", 300).
		Datum("in4", 100)
	for _, c := range []int{0, 1, 2, 3, 4} {
		b.Datum(fmtOut(c), 80)
	}
	b.Kernel("k0", 32, 100).In("in0", "tbl").Out(fmtOut(0))
	b.Kernel("k1", 32, 100).In(fmtOut(0)).Out(fmtOut(1))
	b.Kernel("k2", 32, 100).In("in2").Out(fmtOut(2))
	b.Kernel("k3", 32, 100).In(fmtOut(2)).Out(fmtOut(3))
	b.Kernel("k4", 32, 100).In("in4", "tbl").Out(fmtOut(4))
	part := app.MustPartition(b.MustBuild(), 2, 1, 1, 1, 1, 1)

	pa := testArch(1400)
	pa.CMWords = 4096 // contexts stay resident: RF buys nothing

	mx, err := (CompleteDataScheduler{}).Schedule(pa, part)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := (CompleteDataScheduler{Eval: DMACost}).Schedule(pa, part)
	if err != nil {
		t.Fatal(err)
	}
	if mx.RF != 2 || len(mx.Retained) != 0 {
		t.Fatalf("max policy: RF=%d retained=%d, want RF=2 with no retention (rebalance the test)",
			mx.RF, len(mx.Retained))
	}
	if lo.RF != 1 || len(lo.Retained) != 1 {
		t.Fatalf("DMA-cost guard: RF=%d retained=%d, want RF=1 with the table retained", lo.RF, len(lo.Retained))
	}
	loCost, _ := DMACost(lo)
	mxCost, _ := DMACost(mx)
	if loCost >= mxCost {
		t.Errorf("DMA-cost guard cost %d >= max cost %d: the trade did not pay", loCost, mxCost)
	}
}

func fmtOut(c int) string { return "out" + string(rune('0'+c)) }

// TestDMACostGuardPropagatesErrors pins the guarded scheduler's error
// contract: invalid architecture parameters and an infeasible partition
// surface as errors, the latter as an InfeasibleError.
func TestDMACostGuardPropagatesErrors(t *testing.T) {
	part := pipeApp(t, 8)
	bad := testArch(1024)
	bad.FBSetBytes = -1
	if _, err := (CompleteDataScheduler{Eval: DMACost}).Schedule(bad, part); err == nil {
		t.Error("DMA-cost guard with invalid arch params succeeded")
	}
	tiny := testArch(64)
	_, err := (CompleteDataScheduler{Eval: DMACost}).Schedule(tiny, part)
	var ie *InfeasibleError
	if !errors.As(err, &ie) {
		t.Errorf("DMA-cost guard on a too-small FB: err = %v, want InfeasibleError", err)
	}
}

func TestAllocateFitPolicies(t *testing.T) {
	part := pipeApp(t, 4)
	s := scheduleOrFatal(t, CompleteDataScheduler{}, 512, part)
	for _, pol := range []alloc.FitPolicy{alloc.FirstFit, alloc.BestFit, alloc.WorstFit} {
		rep, err := AllocateWithOptions(s, AllocOptions{AllowSplit: true, FitPolicy: pol})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		for set, peak := range rep.PeakUsed {
			if peak > 512 {
				t.Errorf("%v: set %d peak %d over FB", pol, set, peak)
			}
		}
	}
}

func TestAllocateOneSided(t *testing.T) {
	part := pipeApp(t, 4)
	s := scheduleOrFatal(t, CompleteDataScheduler{}, 512, part)
	rep, err := AllocateWithOptions(s, AllocOptions{AllowSplit: true, OneSided: true})
	if err != nil {
		t.Fatalf("one-sided allocation: %v", err)
	}
	// One-sided placement must still be leak-free (Allocate checks) and
	// in bounds; quality (splits) may be worse, never checked here.
	for set, peak := range rep.PeakUsed {
		if peak > 512 {
			t.Errorf("set %d peak %d over FB", set, peak)
		}
	}
}

func TestFitPolicyString(t *testing.T) {
	if alloc.FirstFit.String() != "first-fit" || alloc.BestFit.String() != "best-fit" ||
		alloc.WorstFit.String() != "worst-fit" {
		t.Error("FitPolicy names broken")
	}
}
