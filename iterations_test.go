package cds

import (
	"runtime"
	"runtime/debug"
	"testing"

	"cds/internal/verify"
)

// itersPartition is a two-kernel application, one kernel per cluster,
// whose reuse factor the Frame Buffer bounds well below 100 iterations.
func itersPartition(t *testing.T, iterations int) (Arch, *Part) {
	t.Helper()
	b := NewApp("iters", iterations).Datum("in", 64).Datum("mid", 64).Datum("out", 64)
	b.Kernel("k1", 64, 200).In("in").Out("mid")
	b.Kernel("k2", 64, 200).In("mid").Out("out")
	a, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	part, err := Partition(a, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return M1().WithFB(2 * KiB), part
}

// compareCost returns the fewest bytes and objects one uncached
// CompareAll of the partition allocated over runs tries, with the
// garbage collector off so that no emptied pool refills inside a
// measurement.
func compareCost(t *testing.T, pa Arch, part *Part, runs int) (bytes, objects uint64) {
	t.Helper()
	bytes, objects = ^uint64(0), ^uint64(0)
	for range runs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := CompareAll(pa, part)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	return bytes, objects
}

// TestCompareCostFlatInIterations: an uncached compare builds, scores,
// allocates and simulates one RF period per schedule, so its cost no
// longer grows with the application's iteration count. At 10,000
// iterations it allocates under a tenth of the 33,894,880 bytes the
// compare allocated when it built and walked every block, and as many
// objects as at 100 iterations. What still grows is the timing result's
// two ints per visit (VisitStart, VisitEnd), for every candidate the RF
// guard scores.
func TestCompareCostFlatInIterations(t *testing.T) {
	const walkedEveryBlock = 33_894_880
	defer SetResultCaching(SetResultCaching(false))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	small, smallPart := itersPartition(t, 100)
	large, largePart := itersPartition(t, 10_000)
	// The first compares fill the analysis memo.
	compareCost(t, small, smallPart, 1)
	compareCost(t, large, largePart, 1)
	var smallObjects, largeBytes, largeObjects uint64 = ^uint64(0), ^uint64(0), ^uint64(0)
	for range 10 {
		_, o := compareCost(t, small, smallPart, 1)
		smallObjects = min(smallObjects, o)
		b, o := compareCost(t, large, largePart, 1)
		largeBytes, largeObjects = min(largeBytes, b), min(largeObjects, o)
	}
	t.Logf("10,000 iterations: %d bytes, %d objects; 100 iterations: %d objects", largeBytes, largeObjects, smallObjects)
	if largeBytes*10 > walkedEveryBlock {
		t.Errorf("a compare at 10,000 iterations allocates %d bytes; want at most a tenth of %d", largeBytes, walkedEveryBlock)
	}
	if raceEnabled {
		return // the race detector makes sync.Pool drop items, so pooled scratch allocates at random
	}
	if largeObjects != smallObjects {
		t.Errorf("a compare allocates %d objects at 10,000 iterations, %d at 100; want as many", largeObjects, smallObjects)
	}
}

// TestVerifyCostInIterations: the audit walks the schedule's period, so
// at 10,000 iterations (a two-visit lead block, a two-visit steady block
// run 9,999 times) verify.Schedule of the CDS schedule allocates under
// 45% of the 21,904,380 bytes it allocated when it walked every block.
// What still grows with the iterations is the traced simulation
// (sim.Trace), which walks every block.
func TestVerifyCostInIterations(t *testing.T) {
	const walkedEveryBlock = 21_904_380
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	pa, part := itersPartition(t, 10_000)
	cmp, err := CompareAll(pa, part)
	if err != nil {
		t.Fatal(err)
	}
	s := cmp.CDS.Schedule
	if per := s.Period(); s.NumVisits() != 20_000 || len(per.Visits) != 4 || per.Repeat != 9_999 {
		t.Fatalf("CDS schedule: %d visits, %d stored, repeat %d; want 20,000, 4 and 9,999",
			s.NumVisits(), len(per.Visits), per.Repeat)
	}
	bytes := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := verify.Schedule(s)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("verify.Schedule at 10,000 iterations: %d bytes", bytes)
	if raceEnabled {
		return // the race detector's build makes sim.Trace's span lists alone allocate over twice the bound
	}
	if bytes*100 > walkedEveryBlock*45 {
		t.Errorf("verify.Schedule allocates %d bytes at 10,000 iterations; want under 45%% of %d", bytes, walkedEveryBlock)
	}
}
