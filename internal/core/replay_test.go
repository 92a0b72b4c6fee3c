package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"cds/internal/app"
	"cds/internal/arch"
)

// crossSetReplay is three one-kernel clusters and a hand-built replay of
// one block. Visit 0 (set 2) loads x; visit 1 (set 1) places x without
// loading it; visit 2 (set 0) reads x, which is then live only on sets 1
// and 2. Each run lists a later phase's event ahead of an earlier one's:
// visit 0's end-of-visit release of a comes first, and visit 1's step
// releases w before it places b.
func crossSetReplay(t *testing.T) (*Schedule, *AllocationReport) {
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
	s := Schedule{
		Arch: arch.M1(),
		P:    app.MustPartition(a, 3, 1, 1, 1),
		RF:   1,
	}.WithVisits([]Visit{
		{Cluster: 0, Set: 2, Iters: 1, Loads: []Movement{{Datum: "x", Bytes: 8}}},
		{Cluster: 1, Set: 1, Iters: 1, Loads: []Movement{{Datum: "w", Bytes: 8}}},
		{Cluster: 2, Set: 0, Iters: 1},
	})
	in := InstancesOf(s)
	ev := func(op AllocOp, set int, datum string, cluster, kernel, iter int) AllocEvent {
		return AllocEvent{Op: op, Set: set, Bytes: 8,
			Inst: int32(in.Key(int32(a.DatumID(datum)), 0)), Cluster: cluster, Kernel: kernel, Iter: iter}
	}
	rep := NewAllocationReport(s, []AllocEvent{
		ev(OpRelease, 2, "a", 0, -1, 0),
		ev(OpAlloc, 2, "x", 0, -1, -1),
		ev(OpAlloc, 2, "a", 0, 0, 0),
		ev(OpAlloc, 1, "x", 1, -1, -1),
		ev(OpAlloc, 1, "w", 1, -1, -1),
		ev(OpRelease, 1, "w", 1, 1, 0),
		ev(OpAlloc, 1, "b", 1, 1, 0),
		ev(OpAlloc, 0, "c", 2, 2, 0),
	})
	return s, rep
}

// TestWalkReplay drives the walk on a hand-built replay. Each visit runs
// its pre-visit placements, then each step's placements, the step and
// its releases, then its stores, then its end-of-visit releases,
// whatever the order within the run. Only a placement of a datum the
// visit loads is a load. A kernel reading an instance absent
// from its own set sees the copy on the lowest set it is live on. A step
// event of a kernel the visit does not run is out of execution order.
func TestWalkReplay(t *testing.T) {
	s, rep := crossSetReplay(t)
	a := s.P.App
	r, err := NewReplay(s, rep)
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	hooks := ReplayHooks{
		Event: func(vi, slot int, ev *AllocEvent, load bool) error {
			line := fmt.Sprintf("v%d %s %s set%d", vi, ev.Op, rep.Object(*ev), ev.Set)
			if load {
				line += " load"
			}
			log = append(log, line)
			return nil
		},
		Step: func(vi, ki, iter int) error {
			line := fmt.Sprintf("v%d step %s", vi, a.Kernels[ki].Name)
			for _, id := range a.KernelInputIDs(ki) {
				if slot := r.Find(s.Visit(vi).Set, r.Inst.Key(id, iter)); slot >= 0 {
					line += fmt.Sprintf(" reads %s set%d", a.DatumName(id), r.Placed(slot).Set)
				}
			}
			log = append(log, line)
			return nil
		},
		Stores: func(vi int) error {
			log = append(log, fmt.Sprintf("v%d stores", vi))
			return nil
		},
	}
	if err := r.Walk(hooks); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"v0 alloc x#i0 set2 load",
		"v0 alloc a#i0 set2",
		"v0 step kA reads x set2",
		"v0 stores",
		"v0 release a#i0 set2",
		"v1 alloc x#i0 set1",
		"v1 alloc w#i0 set1 load",
		"v1 alloc b#i0 set1",
		"v1 step kB reads w set1",
		"v1 release w#i0 set1",
		"v1 stores",
		"v2 alloc c#i0 set0",
		"v2 step kC reads x set1",
		"v2 stores",
	}
	if !slices.Equal(log, want) {
		t.Errorf("walk:\n%s\nwant:\n%s", strings.Join(log, "\n"), strings.Join(want, "\n"))
	}

	// Repeat visit 0's step under kC, which cluster 0 does not run.
	bad := *rep
	stray := rep.Events[2]
	stray.Kernel = 2
	bad.Events = slices.Insert(slices.Clone(rep.Events), 3, stray)
	r, err = NewReplay(s, &bad)
	if err != nil {
		t.Fatal(err)
	}
	err = r.Walk(hooks)
	if err == nil || !strings.Contains(err.Error(), "visit 0: event 3 (alloc of \"a#i0\", kernel 2 iteration 0) is out of execution order") {
		t.Errorf("stray step event: err = %v", err)
	}
}
