package verify

import (
	"slices"
	"strings"
	"testing"

	"cds/internal/app"
	"cds/internal/core"
)

// TestInstanceSlotStrict pins the instance-key range check: an event
// whose key is outside the schedule's key space, or names an iteration
// its visit does not run, is a liveness violation. Here visit 0 runs 2
// iterations and visit 1 runs 4, so the key space holds iterations 2 and
// 3 of every datum, but visit 0 has none of them.
func TestInstanceSlotStrict(t *testing.T) {
	a := app.NewBuilder("slots", 6).Datum("tile", 8).Datum("out", 8)
	a.Kernel("k", 16, 10).In("tile").Out("out")
	s := core.Schedule{
		P:  app.MustPartition(a.MustBuild(), 1, 1),
		RF: 4,
	}.WithVisits([]core.Visit{{Iters: 2}, {Block: 1, Iters: 4}})
	in := core.InstancesOf(s)
	tile := int32(s.P.App.DatumID("tile"))
	check := func(set, key int) error {
		rep := core.NewAllocationReport(s, []core.AllocEvent{
			{Op: core.OpAlloc, Set: set, Bytes: 8, Inst: int32(key), Iter: -1, Kernel: -1},
		})
		return checkLiveness(s, rep)
	}
	for _, key := range []int{in.Key(tile, 2), in.Key(tile, 3), -1, in.Len()} {
		err := check(0, key)
		wantViolation(t, err, "liveness")
		if !strings.Contains(err.Error(), "names no instance of the visit's 2 iterations") {
			t.Errorf("key %d: %v", key, err)
		}
	}
	if err := check(-1, in.Key(tile, 0)); err == nil || !strings.Contains(err.Error(), "names no instance") {
		t.Errorf("negative set: %v", err)
	}
	if err := check(0, in.Key(tile, 1)); err == nil || strings.Contains(err.Error(), "names no instance") {
		t.Errorf("key of iteration 1 rejected: %v", err)
	}
}

// TestLivenessEventOrder pins the replay-order checks: a step event
// that comes after a later step's events, and an event after the last
// visit's run, are violations rather than events the walk never sees.
func TestLivenessEventOrder(t *testing.T) {
	// The expansion's replay stores every event, so the edits below
	// change the replay order where they are made.
	s := mpegCDS(t)
	s = s.WithVisits(s.Visits())
	rep, err := core.AllocateWithOptions(s, core.AllocOptions{AllowSplit: true})
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
