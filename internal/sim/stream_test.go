package sim

import (
	"testing"

	"cds/internal/core"
	"cds/internal/trace"
	"cds/internal/workloads"
)

// Hand numbers for handSchedule under the streaming model.
//
// Serialized baseline (prefetch off): v1's transfers wait for v0's
// compute to end at 126, so ctx 126..146, load 146..152, compute
// 152..252; the trailing stores drain 152..158 (v0, DMA already free)
// and 252..258 (v1, after its compute). Total 258.
//
// Prefetch on: v1 refills set 1 while v0 computes out of set 0 and its
// 16 context words fit the CM, so the hoist restores the static walk:
// total 232, with exactly v1's 20-cycle context burst hoisted.
func TestRunStreamHandTimeline(t *testing.T) {
	s := handSchedule()

	serial, err := RunStream(s, StreamOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if serial.TotalCycles != 258 {
		t.Errorf("serialized TotalCycles = %d, want 258", serial.TotalCycles)
	}
	if serial.VisitStart[1] != 152 || serial.VisitEnd[1] != 252 {
		t.Errorf("serialized v1 interval = %d..%d, want 152..252",
			serial.VisitStart[1], serial.VisitEnd[1])
	}
	if serial.PrefetchCycles != 0 || serial.PrefetchCount != 0 {
		t.Errorf("serialized prefetch = %d cycles/%d bursts, want none",
			serial.PrefetchCycles, serial.PrefetchCount)
	}

	pre, err := RunStream(s, StreamOpts{Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	if pre.TotalCycles != 232 {
		t.Errorf("prefetch TotalCycles = %d, want 232 (the static walk)", pre.TotalCycles)
	}
	if pre.PrefetchCycles != 20 || pre.PrefetchCount != 1 {
		t.Errorf("prefetch = %d cycles/%d bursts, want 20/1", pre.PrefetchCycles, pre.PrefetchCount)
	}

	static, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if static.TotalCycles != pre.TotalCycles {
		t.Errorf("prefetch %d != static %d on an alternating-set schedule",
			pre.TotalCycles, static.TotalCycles)
	}
}

// Ready gates issue: a visit whose segment has not arrived may not
// start its transfers, even with the DMA idle and prefetch on.
func TestRunStreamReadyDelaysIssue(t *testing.T) {
	s := handSchedule()
	o := StreamOpts{
		Visits:   []StreamVisit{{Ready: 0}, {Ready: 500}},
		Prefetch: true,
	}
	res, tl, err := TraceStream(s, "", o)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range tl.Spans {
		if sp.Visit == 1 && sp.Resource == trace.DMA && sp.Kind != trace.KindStore && sp.Start < 500 {
			t.Errorf("visit 1 %s span starts at %d, before arrival 500", sp.Kind, sp.Start)
		}
	}
	if res.VisitStart[1] != 526 || res.TotalCycles != 632 {
		t.Errorf("v1 start/total = %d/%d, want 526/632", res.VisitStart[1], res.TotalCycles)
	}
	// The arrival is past v0's compute window, so nothing was hoisted.
	if res.PrefetchCount != 0 {
		t.Errorf("PrefetchCount = %d, want 0 (arrival after the window)", res.PrefetchCount)
	}
}

// The residency conditions individually veto the hoist: same FB set, or
// context words that no longer fit beside the running working set.
func TestRunStreamResidencyVetoes(t *testing.T) {
	t.Run("fb", func(t *testing.T) {
		s := edit(handSchedule(), func(vs []core.Visit) { vs[1].Set = vs[0].Set })
		res, err := RunStream(s, StreamOpts{Prefetch: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.PrefetchCount != 0 {
			t.Errorf("PrefetchCount = %d, want 0 (same-set refill)", res.PrefetchCount)
		}
	})
	t.Run("cm", func(t *testing.T) {
		s := handSchedule()
		o := StreamOpts{
			Visits:   []StreamVisit{{GroupWords: s.Arch.CMWords}, {}},
			Prefetch: true,
		}
		res, err := RunStream(s, o)
		if err != nil {
			t.Fatal(err)
		}
		if res.PrefetchCount != 0 {
			t.Errorf("PrefetchCount = %d, want 0 (CM full)", res.PrefetchCount)
		}
		serial, err := RunStream(s, StreamOpts{Visits: o.Visits})
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalCycles != serial.TotalCycles {
			t.Errorf("vetoed prefetch total %d != serialized %d", res.TotalCycles, serial.TotalCycles)
		}
	})
}

// Across the workload corpus and all three schedulers: the serialized
// online baseline is never faster than prefetch, prefetch is never
// faster than the static offline walk, and volumes are identical —
// only timing moves.
func TestRunStreamOrdering(t *testing.T) {
	for _, e := range workloads.All() {
		for _, sched := range []core.Scheduler{core.Basic{}, core.DataScheduler{}, core.CompleteDataScheduler{}} {
			s, err := sched.Schedule(e.Arch, e.Part)
			if err != nil {
				t.Fatalf("%s/%s: %v", e.Name, sched.Name(), err)
			}
			static, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			pre, err := RunStream(s, StreamOpts{Prefetch: true})
			if err != nil {
				t.Fatal(err)
			}
			serial, err := RunStream(s, StreamOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if pre.TotalCycles > serial.TotalCycles {
				t.Errorf("%s/%s: prefetch %d beats serialized %d the wrong way",
					e.Name, sched.Name(), pre.TotalCycles, serial.TotalCycles)
			}
			if static.TotalCycles > pre.TotalCycles {
				t.Errorf("%s/%s: static %d slower than streamed prefetch %d",
					e.Name, sched.Name(), static.TotalCycles, pre.TotalCycles)
			}
			if pre.LoadBytes != serial.LoadBytes || pre.StoreBytes != serial.StoreBytes ||
				pre.CtxWords != serial.CtxWords || pre.ComputeCycles != serial.ComputeCycles {
				t.Errorf("%s/%s: volumes differ between prefetch and serialized", e.Name, sched.Name())
			}
		}
	}
}

// Traced and untraced streaming walks must agree exactly, and the
// recorded timeline must tile both resource tracks and account for the
// result's busy totals.
func TestStreamTracedIdenticalToUntraced(t *testing.T) {
	for _, e := range workloads.All() {
		s, err := (core.CompleteDataScheduler{}).Schedule(e.Arch, e.Part)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, prefetch := range []bool{false, true} {
			o := StreamOpts{Prefetch: prefetch}
			plain, err := RunStream(s, o)
			if err != nil {
				t.Fatal(err)
			}
			traced, tl, err := TraceStream(s, e.Name, o)
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqual(plain, traced) {
				t.Errorf("%s prefetch=%v: traced result differs from untraced", e.Name, prefetch)
			}
			if _, err := trace.Tile(tl); err != nil {
				t.Errorf("%s prefetch=%v: timeline does not tile: %v", e.Name, prefetch, err)
			}
			if busy := tl.BusyKind(trace.KindContext) + tl.BusyKind(trace.KindPrefetch); busy != traced.CtxCycles {
				t.Errorf("%s prefetch=%v: ctx spans %d != result %d", e.Name, prefetch, busy, traced.CtxCycles)
			}
			if busy := tl.BusyKind(trace.KindPrefetch); busy != traced.PrefetchCycles {
				t.Errorf("%s prefetch=%v: prefetch spans %d != result %d", e.Name, prefetch, busy, traced.PrefetchCycles)
			}
			if !prefetch && traced.PrefetchCycles != 0 {
				t.Errorf("%s: prefetch cycles %d recorded with prefetch off", e.Name, traced.PrefetchCycles)
			}
		}
	}
}

func TestRunStreamErrors(t *testing.T) {
	if _, err := RunStream(nil, StreamOpts{}); err == nil {
		t.Error("nil schedule accepted")
	}
	s := handSchedule()
	_, err := RunStream(s, StreamOpts{Visits: []StreamVisit{{}}})
	if err == nil {
		t.Error("mismatched stream visit count accepted")
	}
	if _, _, err := TraceStream(nil, "x", StreamOpts{}); err == nil {
		t.Error("TraceStream accepted nil schedule")
	}
	bad := handSchedule()
	bad.Arch.CMWords = 0
	if _, err := RunStream(bad, StreamOpts{}); err == nil {
		t.Error("invalid arch accepted")
	}
}

// resultsEqual compares two results field-by-field via their exported
// aggregate accessors plus the per-visit intervals (Result contains
// slices, so != on values is not usable directly).
func resultsEqual(a, b *Result) bool {
	if a.TotalCycles != b.TotalCycles || a.ComputeCycles != b.ComputeCycles ||
		a.CtxCycles != b.CtxCycles || a.DataCycles != b.DataCycles ||
		a.StallCycles != b.StallCycles || a.LoadBytes != b.LoadBytes ||
		a.StoreBytes != b.StoreBytes || a.CtxWords != b.CtxWords ||
		a.PrefetchCycles != b.PrefetchCycles || a.PrefetchCount != b.PrefetchCount {
		return false
	}
	if len(a.VisitStart) != len(b.VisitStart) {
		return false
	}
	for i := range a.VisitStart {
		if a.VisitStart[i] != b.VisitStart[i] || a.VisitEnd[i] != b.VisitEnd[i] {
			return false
		}
	}
	return true
}
