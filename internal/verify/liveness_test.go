package verify

import (
	"slices"
	"strings"
	"testing"

	"cds/internal/app"
	"cds/internal/arch"
	"cds/internal/core"
)

// TestInstanceSlotStrict pins strict slot parsing: each name below is one
// a lenient scanner accepts ("tile#i3x" and "tile#i 3" as 3, "tile#i0x1f"
// as 0, "tile#i-1" as -1), and each is a liveness violation, as are a
// slot past the visit's iterations and a datum the app does not have.
func TestInstanceSlotStrict(t *testing.T) {
	a := app.NewBuilder("slots", 4).Datum("tile", 8).Datum("out", 8)
	a.Kernel("k", 16, 10).In("tile").Out("out")
	s := &core.Schedule{
		P:      app.MustPartition(a.MustBuild(), 1, 1),
		Visits: []core.Visit{{Iters: 4}},
	}
	tabs := tablesOf(s, &core.AllocationReport{})
	for _, name := range []string{"tile#i3x", "tile#i 3", "tile#i0x1f", "tile#i-1", "tile#i4", "tile", "ghost#i0"} {
		_, _, err := tabs.locate(&core.AllocEvent{Object: name}, 4)
		wantViolation(t, err, "liveness")
		if !strings.Contains(err.Error(), "malformed instance name") {
			t.Errorf("locate(%q): %v", name, err)
		}
	}
	key, _, err := tabs.locate(&core.AllocEvent{Object: "tile#i3"}, 4)
	if err != nil || tabs.inst.Iter(key) != 3 {
		t.Errorf("locate(tile#i3) = key %d, %v; want iteration 3", key, err)
	}
}

// crossSetSchedule is three one-kernel clusters. Visit 0 (set 2) loads
// x; visit 1 (set 1) places x without loading it; visit 2 (set 0) reads
// x, which is live only on sets 1 and 2. writtenOnLow swaps the two
// placements, so the written copy sits on set 1 instead.
func crossSetSchedule(t *testing.T, writtenOnLow bool) (*core.Schedule, *core.AllocationReport) {
	t.Helper()
	b := app.NewBuilder("xset", 1).Datum("x", 8).Datum("w", 8).
		Datum("a", 8).Datum("b", 8).Datum("c", 8)
	b.Kernel("kA", 16, 10).In("x").Out("a")
	b.Kernel("kB", 16, 10).In("w").Out("b")
	b.Kernel("kC", 16, 10).In("x").Out("c")
	a, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	loadSet, placeSet := 2, 1
	if writtenOnLow {
		loadSet, placeSet = 1, 2
	}
	s := &core.Schedule{
		Arch: arch.M1(),
		P:    app.MustPartition(a, 3, 1, 1, 1),
		RF:   1,
		Visits: []core.Visit{
			{Cluster: 0, Set: loadSet, Iters: 1, Loads: []core.Movement{{Datum: "x", Bytes: 8}}},
			{Cluster: 1, Set: placeSet, Iters: 1, Loads: []core.Movement{{Datum: "w", Bytes: 8}}},
			{Cluster: 2, Set: 0, Iters: 1},
		},
	}
	ev := func(op core.AllocOp, set int, obj, datum string, cluster, kernel, iter int) core.AllocEvent {
		return core.AllocEvent{Op: op, Set: set, Object: obj, Datum: datum, Bytes: 8,
			Cluster: cluster, Kernel: kernel, Iter: iter}
	}
	rep := &core.AllocationReport{Events: []core.AllocEvent{
		ev(core.OpAlloc, loadSet, "x#i0", "x", 0, -1, -1),
		ev(core.OpAlloc, loadSet, "a#i0", "a", 0, 0, 0),
		ev(core.OpAlloc, placeSet, "x#i0", "x", 1, -1, -1),
		ev(core.OpAlloc, placeSet, "w#i0", "w", 1, -1, -1),
		ev(core.OpAlloc, placeSet, "b#i0", "b", 1, 1, 0),
		ev(core.OpAlloc, 0, "c#i0", "c", 2, 2, 0),
	}}
	return s, rep
}

// TestCrossSetLookupLowestSet pins the cross-set lookup: a kernel reading
// an instance absent from its own set sees the copy on the lowest set
// index. With the unwritten copy there the read is a violation, every
// time; with the written copy there it is clean.
func TestCrossSetLookupLowestSet(t *testing.T) {
	for i := 0; i < 20; i++ {
		s, rep := crossSetSchedule(t, false)
		err := checkLiveness(s, rep)
		wantViolation(t, err, "liveness")
		if !strings.Contains(err.Error(), "kernel kC reads x#i0 which was never written") {
			t.Fatalf("err = %v, want kC's read of the unwritten set-1 copy", err)
		}
		s, rep = crossSetSchedule(t, true)
		if err := checkLiveness(s, rep); err != nil {
			t.Fatalf("written copy on the lowest set: %v", err)
		}
	}
}

// TestLivenessEventOrder pins the replay-order checks: a step event
// that comes after a later step's events, and an event after the last
// visit's run, are violations rather than events the walk never sees.
func TestLivenessEventOrder(t *testing.T) {
	s := mpegCDS(t)
	rep, err := core.Allocate(s, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkLiveness(s, rep); err != nil {
		t.Fatalf("genuine replay: %v", err)
	}

	// Repeat visit 0's last step event under a kernel the cluster does
	// not run.
	foreign := *rep
	last := -1
	for i, ev := range rep.Events {
		if ev.Block == rep.Events[0].Block && ev.Cluster == rep.Events[0].Cluster && ev.Kernel >= 0 {
			last = i
		}
	}
	extra := rep.Events[last]
	extra.Kernel = len(s.P.App.Kernels)
	foreign.Events = slices.Insert(slices.Clone(rep.Events), last+1, extra)
	err = checkLiveness(s, &foreign)
	wantViolation(t, err, "liveness")
	if !strings.Contains(err.Error(), "out of execution order") {
		t.Errorf("foreign steps: %v", err)
	}

	stray := *rep
	stray.Events = append(append([]core.AllocEvent(nil), rep.Events...), rep.Events[0])
	err = checkLiveness(s, &stray)
	wantViolation(t, err, "liveness")
	if !strings.Contains(err.Error(), "belongs to no visit") {
		t.Errorf("stray event: %v", err)
	}
}
