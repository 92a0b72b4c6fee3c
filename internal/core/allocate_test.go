package core

import (
	"strings"
	"testing"

	"cds/internal/app"
)

func scheduleOrFatal(t *testing.T, s Scheduler, fb int, part *app.Partition) *Schedule {
	t.Helper()
	sched, err := s.Schedule(testArch(fb), part)
	if err != nil {
		t.Fatalf("%s.Schedule: %v", s.Name(), err)
	}
	return sched
}

func TestAllocateCDSPipe(t *testing.T) {
	part := pipeApp(t, 4)
	s := scheduleOrFatal(t, CompleteDataScheduler{}, 360, part)
	rep, err := AllocateWithOptions(s, AllocOptions{})
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if rep.Splits != 0 {
		t.Errorf("splits = %d, want 0", rep.Splits)
	}
	if !rep.Regular {
		t.Errorf("irregular objects: %v", rep.IrregularObjects)
	}
	for set, peak := range rep.PeakUsed {
		if peak > 360 {
			t.Errorf("set %d peak = %d exceeds FB size 360", set, peak)
		}
	}
	if rep.NumEvents() == 0 {
		t.Fatal("no allocation events recorded")
	}
	// Every alloc is matched by a release (the Allocate leak check
	// passed), and counts must be even and balanced.
	allocs, releases := 0, 0
	for i := range rep.NumEvents() {
		ev := rep.Event(i)
		switch ev.Op {
		case OpAlloc:
			allocs++
		case OpRelease:
			releases++
		}
	}
	if allocs != releases {
		t.Errorf("allocs = %d, releases = %d, want equal", allocs, releases)
	}
}

func TestAllocatePeakWithinAnalyticBound(t *testing.T) {
	part := pipeApp(t, 4)
	for _, sched := range []Scheduler{Basic{}, DataScheduler{}, CompleteDataScheduler{}} {
		s := scheduleOrFatal(t, sched, 400, part)
		rep, err := Allocate(s, true)
		if err != nil {
			t.Fatalf("%s: %v", sched.Name(), err)
		}
		// The analytic feasibility bound is RF * max footprint with
		// retention pinned; the replayed peak must never exceed it.
		for _, ci := range s.Info.Clusters {
			opts := FootprintOpts{
				InPlaceRelease: s.InPlaceRelease,
				Pinned:         pinnedFor(s.Retained, ci.Cluster),
			}
			bound := s.RF * ClusterFootprint(s.Info, ci.Cluster.Index, opts)
			if peak := rep.PeakUsed[ci.Cluster.Set]; peak > 400 {
				t.Errorf("%s: set %d peak %d exceeds FB", sched.Name(), ci.Cluster.Set, peak)
			}
			_ = bound
		}
		maxBound := 0
		for set := range rep.PeakUsed {
			bound := 0
			for _, ci := range s.Info.Clusters {
				if ci.Cluster.Set != set {
					continue
				}
				opts := FootprintOpts{
					InPlaceRelease: s.InPlaceRelease,
					Pinned:         pinnedFor(s.Retained, ci.Cluster),
				}
				if b := s.RF * ClusterFootprint(s.Info, ci.Cluster.Index, opts); b > bound {
					bound = b
				}
			}
			if rep.PeakUsed[set] > bound {
				t.Errorf("%s: set %d peak %d exceeds analytic bound %d",
					sched.Name(), set, rep.PeakUsed[set], bound)
			}
			if bound > maxBound {
				maxBound = bound
			}
		}
	}
}

func TestAllocateSharedOnTopResultsOnBottom(t *testing.T) {
	part := pipeApp(t, 4)
	s := scheduleOrFatal(t, CompleteDataScheduler{}, 2048, part)
	rep, err := AllocateWithOptions(s, AllocOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// inA (retained shared datum) must sit above out2 (final result) on
	// set 0, and rB (retained shared result) must also go to the top.
	var inAAddr, out2Addr, rBAddr = -1, -1, -1
	for i := range rep.NumEvents() {
		ev := rep.Event(i)
		if ev.Op != OpAlloc || ev.Set != 0 {
			continue
		}
		switch rep.DatumName(ev) {
		case "inA":
			inAAddr = ev.Addr
		case "out2":
			out2Addr = ev.Addr
		case "rB":
			rBAddr = ev.Addr
		}
	}
	if inAAddr < 0 || out2Addr < 0 || rBAddr < 0 {
		t.Fatalf("missing events: inA=%d out2=%d rB=%d", inAAddr, out2Addr, rBAddr)
	}
	if inAAddr <= out2Addr {
		t.Errorf("shared datum inA at %d should be above final result out2 at %d", inAAddr, out2Addr)
	}
	if rBAddr <= out2Addr {
		t.Errorf("shared result rB at %d should be above final result out2 at %d", rBAddr, out2Addr)
	}
}

func TestAllocateBasicAndDS(t *testing.T) {
	part := pipeApp(t, 5) // odd iterations: exercises the remainder block
	for _, sched := range []Scheduler{Basic{}, DataScheduler{}} {
		s := scheduleOrFatal(t, sched, 400, part)
		rep, err := Allocate(s, false)
		if err != nil {
			t.Fatalf("%s: %v", sched.Name(), err)
		}
		if !rep.Regular {
			t.Errorf("%s: irregular objects %v", sched.Name(), rep.IrregularObjects)
		}
		if rep.Splits != 0 {
			t.Errorf("%s: splits = %d, want 0", sched.Name(), rep.Splits)
		}
	}
}

func TestAllocateRegularAcrossBlocks(t *testing.T) {
	part := pipeApp(t, 8) // 4 blocks at RF=2
	s := scheduleOrFatal(t, CompleteDataScheduler{}, 360, part)
	rep, err := AllocateWithOptions(s, AllocOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Regular {
		t.Errorf("allocation not regular across blocks: %v", rep.IrregularObjects)
	}
	// The same datum+iteration instance, allocated by the same cluster,
	// must land on the same address in every block.
	type key struct {
		set, cluster int
		inst         int32
	}
	addrs := map[key]int{}
	for i := range rep.NumEvents() {
		ev := rep.Event(i)
		if ev.Op != OpAlloc {
			continue
		}
		k := key{ev.Set, ev.Cluster, ev.Inst}
		if prev, seen := addrs[k]; seen && prev != ev.Addr {
			t.Errorf("%s (cluster %d) moved from %d to %d between blocks", rep.Object(ev), ev.Cluster, prev, ev.Addr)
		}
		addrs[k] = ev.Addr
	}
}

func TestAllocOpString(t *testing.T) {
	if OpAlloc.String() != "alloc" || OpRelease.String() != "release" {
		t.Error("AllocOp.String broken")
	}
}

// TestAllocateRejectsUnfinalizedApp: the replay walks interned datum
// IDs, so an App literal that never went through Builder.Build or
// Finalize is reported as an error instead of indexing missing tables.
func TestAllocateRejectsUnfinalizedApp(t *testing.T) {
	part := pipeApp(t, 4)
	s := scheduleOrFatal(t, CompleteDataScheduler{}, 360, part)
	a := part.App
	bare := &app.App{Name: a.Name, Iterations: a.Iterations, Data: a.Data, Kernels: a.Kernels}
	s.P = &app.Partition{App: bare, Clusters: part.Clusters}
	if _, err := Allocate(s, true); err == nil || !strings.Contains(err.Error(), "not finalized") {
		t.Fatalf("Allocate on an unfinalized app: err = %v, want a not-finalized error", err)
	}
}

// TestParseInstance pins the strict instance-name grammar: a lenient
// scanner reads "tile#i3x" and "tile#i 3" as 3, "tile#i0x1f" as 0 and
// "tile#i-1" as -1; none of them is a name the replay builds.
func TestParseInstance(t *testing.T) {
	for _, tc := range []struct {
		name  string
		datum string
		iter  int
		ok    bool
	}{
		{"tile#i3", "tile", 3, true},
		{"tile#i0", "tile", 0, true},
		{"a#ib#i12", "a#ib", 12, true},
		{"tile#i3x", "", 0, false},
		{"tile#i 3", "", 0, false},
		{"tile#i0x1f", "", 0, false},
		{"tile#i-1", "", 0, false},
		{"tile#i+1", "", 0, false},
		{"tile#i03", "", 0, false},
		{"tile#i", "", 0, false},
		{"tile", "", 0, false},
		{"tile#i99999999999999999999", "", 0, false},
	} {
		datum, iter, ok := ParseInstance(tc.name)
		if datum != tc.datum || iter != tc.iter || ok != tc.ok {
			t.Errorf("ParseInstance(%q) = %q, %d, %v; want %q, %d, %v",
				tc.name, datum, iter, ok, tc.datum, tc.iter, tc.ok)
		}
	}
}
