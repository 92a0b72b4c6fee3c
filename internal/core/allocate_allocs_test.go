package core_test

import (
	"testing"

	"cds/internal/core"
	"cds/internal/workloads"
)

// TestAllocateAllocs pins the allocation replay's cost on the MPEG CDS
// schedule (780 events): instance names are built once per (datum,
// iteration), the event list is sized up front and single-extent
// placements share the allocator's extent slab, so nothing allocates
// per event. The replay made 2232 allocations when every event
// formatted its instance name and every placement had its own Extents.
func TestAllocateAllocs(t *testing.T) {
	e := workloads.MPEG()
	s, err := (core.CompleteDataScheduler{}).Schedule(e.Arch, e.Part)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := core.Allocate(s, true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 120 {
		t.Errorf("Allocate makes %.0f allocations, want <= 120", allocs)
	}
}
