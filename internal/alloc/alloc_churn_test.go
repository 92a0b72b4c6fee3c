package alloc

import (
	"fmt"
	"slices"
	"testing"
)

// TestChurnAllocsPerCycle pins the steady-state allocation cost of the
// BenchmarkAllocReleaseChurn cycle: 16 allocs + 16 releases. Once warm,
// the free-list bookkeeping (carve, insertFree) allocates nothing, and a
// placement's Extents come from the append-only extent slab, which
// allocates one chunk per up to 128 placements: less than one
// allocation per cycle. The seed spent 32 allocs per cycle, the in-place
// carve 16 (one Extents slice per Alloc).
func TestChurnAllocsPerCycle(t *testing.T) {
	const objects = 16
	fb := New(8192, false, objects, objName)
	cycle := func() {
		for k := range objects {
			dir := FromTop
			if k%2 == 1 {
				dir = FromBottom
			}
			if _, err := fb.Alloc(k, 64+k*16, dir, -1); err != nil {
				t.Fatal(err)
			}
		}
		for k := range objects {
			if err := fb.Release(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle() // warm the live list and the free list capacity
	if avg := testing.AllocsPerRun(50, cycle); avg > 0 {
		t.Errorf("churn cycle allocates %.1f times, want 0 (slab chunks amortized over cycles)", avg)
	}
}

// TestResetDoesNotAllocate pins that per-sweep-point FB churn (Reset
// between points) reuses the live list and the free list, and that Reset
// keeps the extent slab, so the next Alloc does not start a new chunk.
func TestResetDoesNotAllocate(t *testing.T) {
	fb, n := newFB(4096, false)
	if _, err := fb.Alloc(n.key("a"), 256, FromTop, -1); err != nil {
		t.Fatal(err)
	}
	b := n.key("b")
	if avg := testing.AllocsPerRun(50, func() {
		if _, err := fb.Alloc(b, 128, FromBottom, -1); err != nil {
			t.Fatal(err)
		}
		fb.Reset()
	}); avg > 0 {
		t.Errorf("Alloc+Reset allocates %.1f times, want 0", avg)
	}
	if err := fb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPlacementOutlivesReleaseAndReset: a Placement the caller keeps
// must not change when its slab slot's neighbours are handed out, when
// it is released, or when the FB is reset and refilled.
func TestPlacementOutlivesReleaseAndReset(t *testing.T) {
	fb, n := newFB(1024, false)
	kept, err := fb.Alloc(n.key("kept"), 64, FromTop, -1)
	if err != nil {
		t.Fatal(err)
	}
	want := []Extent{{Addr: 960, Len: 64}}
	check := func(when string) {
		t.Helper()
		if !slices.Equal(kept.Extents, want) {
			t.Fatalf("%s: kept placement has extents %+v, want %+v", when, kept.Extents, want)
		}
	}
	next, err := fb.Alloc(n.key("next"), 32, FromTop, -1)
	if err != nil {
		t.Fatal(err)
	}
	check("after a later Alloc")
	// The two placements hold neighbouring slab slots: appending to
	// the first must copy, not overwrite the second.
	_ = append(kept.Extents, Extent{Addr: 1, Len: 1})
	if got := next.Extents; len(got) != 1 || got[0] != (Extent{Addr: 928, Len: 32}) {
		t.Fatalf("append to a kept placement changed its neighbour to %+v", got)
	}
	if err := fb.Release(n.key("kept")); err != nil {
		t.Fatal(err)
	}
	check("after Release")
	// Reset while the placement's slab chunk is still the current one,
	// then refill from the bottom.
	fb.Reset()
	for i := 0; i < 4; i++ {
		if _, err := fb.Alloc(n.key(fmt.Sprintf("r%d", i)), 64, FromBottom, -1); err != nil {
			t.Fatal(err)
		}
	}
	check("after Reset and refill")
	// Reuse its old address over enough placements to pass several
	// slab chunks.
	for i := 0; i < 300; i++ {
		k := n.key(fmt.Sprintf("o%d", i))
		if _, err := fb.Alloc(k, 64, FromTop, 960); err != nil {
			t.Fatal(err)
		}
		if err := fb.Release(k); err != nil {
			t.Fatal(err)
		}
	}
	check("after reusing its address")
	if err := fb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
