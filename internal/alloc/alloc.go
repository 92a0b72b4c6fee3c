// Package alloc implements the Frame Buffer allocation algorithm of the
// Complete Data Scheduler (Sanchez-Elez et al., DATE 2002, section 5).
//
// The allocator manages one Frame Buffer set as a linear address space. It
// keeps a list of free blocks (the paper's FB_list) and serves first-fit
// requests from either end: input data and inter-cluster shared objects
// are placed from the upper addresses, intermediate and final results from
// the lower addresses. When no single free block fits, a request may be
// split across several blocks (at the cost of irregular access), which the
// paper treats as a last resort; splitting can be disabled to prove that
// the paper's experiments never need it.
//
// To promote address regularity across loop iterations, an allocation can
// name a preferred address (where the previous iteration of the same datum
// lived); the allocator honors it when that exact region is free.
//
// Objects are keyed by a dense integer key, so the allocation path hashes
// nothing; a name function renders a key only for error and debug text.
package alloc

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"cds/internal/scherr"
)

// Dir selects which end of the free space first-fit scans from.
type Dir int

const (
	// FromTop serves the request from the highest-addressed fitting
	// free block, at that block's top. The paper uses it for input data
	// and shared objects.
	FromTop Dir = iota
	// FromBottom serves from the lowest-addressed fitting free block,
	// at that block's bottom. The paper uses it for results.
	FromBottom
)

func (d Dir) String() string {
	if d == FromTop {
		return "top"
	}
	return "bottom"
}

// Extent is a contiguous byte range [Addr, Addr+Len).
type Extent struct {
	Addr, Len int
}

// End returns the first address past the extent.
func (e Extent) End() int { return e.Addr + e.Len }

// Placement records where an object lives. Objects normally occupy one
// extent; a split object occupies several, in ascending address order.
type Placement struct {
	Extents []Extent
}

// Bytes returns the total placed size.
func (p Placement) Bytes() int {
	n := 0
	for _, e := range p.Extents {
		n += e.Len
	}
	return n
}

// Split reports whether the object was split across free blocks.
func (p Placement) Split() bool { return len(p.Extents) > 1 }

// Addr returns the address of the first extent (the canonical address used
// for regularity across iterations).
func (p Placement) Addr() int { return p.Extents[0].Addr }

// FitPolicy selects which free block serves a request that fits several.
type FitPolicy int

const (
	// FirstFit takes the first fitting block in scan order (the paper's
	// choice: cheap and, with the two-sided placement discipline,
	// fragmentation-free on the paper's workloads).
	FirstFit FitPolicy = iota
	// BestFit takes the smallest fitting block.
	BestFit
	// WorstFit takes the largest fitting block.
	WorstFit
)

func (p FitPolicy) String() string {
	switch p {
	case FirstFit:
		return "first-fit"
	case BestFit:
		return "best-fit"
	case WorstFit:
		return "worst-fit"
	}
	return "fit(?)"
}

// ErrNoSpace is returned when the total free space cannot satisfy a
// request. It also matches scherr.ErrCapacity under errors.Is.
var ErrNoSpace = scherr.Sentinel(scherr.ErrCapacity, "alloc: insufficient free space")

// ErrWouldSplit is returned when the request only fits split across blocks
// but splitting is disabled. It also matches scherr.ErrCapacity.
var ErrWouldSplit = scherr.Sentinel(scherr.ErrCapacity, "alloc: request fits only when split, and splitting is disabled")

// FB is one Frame Buffer set under allocation. The zero value is unusable;
// use New.
type FB struct {
	size int
	free []Extent // sorted by Addr, coalesced, non-empty lengths
	// at[k] is 1 + the index of key k's entry in live, or 0 when k is
	// not placed.
	at []int32
	// live holds the placed objects in no particular order. Release
	// swap-deletes, so a walk over the live objects touches only them.
	live       []liveObject
	name       func(int) string
	allowSplit bool
	policy     FitPolicy

	// slab backs the Extents of single-extent placements, handed out
	// as capacity-capped one-element sub-slices. It is append-only:
	// callers may keep a Placement past Release and Reset, so a slot
	// is never reused. A full slab is replaced, not grown; the old
	// one lives on while placements reference it.
	slab []Extent
	// scratch is CheckInvariants' reusable buffer of live extents.
	scratch []Extent

	// Stats accumulated since New/Reset.
	peakUsed   int
	used       int
	splitCount int
	allocCount int
}

// liveHint presizes the live list: a Frame Buffer set rarely holds more
// objects at once, so the list seldom grows.
const liveHint = 32

// liveObject is one placed object.
type liveObject struct {
	key int
	p   Placement
}

// New returns an empty Frame Buffer set allocator of the given size in
// bytes for objects keyed in [0, keys). allowSplit enables last-resort
// splitting across free blocks. name renders a key in error messages,
// Live and String; the allocation path never calls it.
func New(size int, allowSplit bool, keys int, name func(int) string) *FB {
	if size <= 0 {
		panic(fmt.Sprintf("alloc: non-positive FB size %d", size))
	}
	if keys < 0 {
		panic(fmt.Sprintf("alloc: negative key space %d", keys))
	}
	// The free list rarely exceeds a handful of blocks (two-sided
	// placement keeps fragmentation low); preallocating its capacity
	// keeps steady-state carve/insert churn allocation-free.
	free := make([]Extent, 1, 8)
	free[0] = Extent{Addr: 0, Len: size}
	return &FB{
		size:       size,
		free:       free,
		at:         make([]int32, keys),
		live:       make([]liveObject, 0, min(keys, liveHint)),
		name:       name,
		allowSplit: allowSplit,
	}
}

// SetFitPolicy changes the block-selection policy (FirstFit by default).
// Intended for the fit-policy ablation; call it before any allocation.
func (fb *FB) SetFitPolicy(p FitPolicy) { fb.policy = p }

// Size returns the FB set capacity in bytes.
func (fb *FB) Size() int { return fb.size }

// Used returns the currently occupied bytes.
func (fb *FB) Used() int { return fb.used }

// Free returns the currently free bytes.
func (fb *FB) Free() int { return fb.size - fb.used }

// PeakUsed returns the maximum occupancy observed since New or Reset.
func (fb *FB) PeakUsed() int { return fb.peakUsed }

// Splits returns how many allocations had to be split so far.
func (fb *FB) Splits() int { return fb.splitCount }

// Allocs returns how many allocations were served so far.
func (fb *FB) Allocs() int { return fb.allocCount }

// FreeBlocks returns a copy of the free list (the paper's FB_list),
// ascending by address.
func (fb *FB) FreeBlocks() []Extent {
	out := make([]Extent, len(fb.free))
	copy(out, fb.free)
	return out
}

// LargestFree returns the size of the largest free block.
func (fb *FB) LargestFree() int {
	max := 0
	for _, e := range fb.free {
		if e.Len > max {
			max = e.Len
		}
	}
	return max
}

// Lookup returns the placement of the live object key.
func (fb *FB) Lookup(key int) (Placement, bool) {
	if key < 0 || key >= len(fb.at) || fb.at[key] == 0 {
		return Placement{}, false
	}
	return fb.live[fb.at[key]-1].p, true
}

// Live returns the names of all live objects, sorted.
func (fb *FB) Live() []string {
	names := make([]string, len(fb.live))
	for i, o := range fb.live {
		names[i] = fb.name(o.key)
	}
	sort.Strings(names)
	return names
}

// Reset empties the FB and clears statistics. The free list, the key
// table and the live list are reused, so per-sweep-point FB churn (Reset
// between points) does not allocate. The extent slab is left as it is:
// placements handed out before Reset keep their extents.
func (fb *FB) Reset() {
	fb.free = append(fb.free[:0], Extent{Addr: 0, Len: fb.size})
	for _, o := range fb.live {
		fb.at[o.key] = 0
	}
	clear(fb.live)
	fb.live = fb.live[:0]
	fb.used, fb.peakUsed, fb.splitCount, fb.allocCount = 0, 0, 0, 0
}

// checkKey rejects a key outside the FB's key space.
func (fb *FB) checkKey(key int) error {
	if key < 0 || key >= len(fb.at) {
		return fmt.Errorf("alloc: key %d outside the key space [0,%d)", key, len(fb.at))
	}
	return nil
}

// Alloc places a new object of the given size using first-fit from the
// chosen direction. If preferAddr is >= 0 and the exact region
// [preferAddr, preferAddr+size) is free, the object is placed there to
// keep iteration-to-iteration addresses regular.
func (fb *FB) Alloc(key, size int, dir Dir, preferAddr int) (Placement, error) {
	if err := fb.checkKey(key); err != nil {
		return Placement{}, err
	}
	if size <= 0 {
		return Placement{}, fmt.Errorf("alloc: non-positive size %d for %q", size, fb.name(key))
	}
	if fb.at[key] != 0 {
		return Placement{}, fmt.Errorf("alloc: %q is already placed", fb.name(key))
	}
	if size > fb.Free() {
		return Placement{}, fmt.Errorf("alloc: %q needs %d bytes, %d free: %w", fb.name(key), size, fb.Free(), ErrNoSpace)
	}

	var extents []Extent
	if preferAddr >= 0 && fb.regionFree(preferAddr, size) {
		extents = fb.single(Extent{Addr: preferAddr, Len: size})
	} else if e, ok := fb.firstFit(size, dir); ok {
		extents = fb.single(e)
	} else {
		if !fb.allowSplit {
			return Placement{}, fmt.Errorf("alloc: %q (%d bytes, largest free %d): %w",
				fb.name(key), size, fb.LargestFree(), ErrWouldSplit)
		}
		extents = fb.splitFit(size, dir)
		fb.splitCount++
	}
	for _, e := range extents {
		fb.carve(e)
	}
	p := Placement{Extents: extents}
	fb.live = append(fb.live, liveObject{key, p})
	fb.at[key] = int32(len(fb.live))
	fb.used += size
	fb.allocCount++
	if fb.used > fb.peakUsed {
		fb.peakUsed = fb.used
	}
	return p, nil
}

// Slab chunk sizes: the first chunk is small so a short-lived FB stays
// cheap, later ones double up to a cap that bounds what one long-lived
// placement can keep reachable.
const (
	minSlab = 8
	maxSlab = 128
)

// single returns a one-extent slice for e carved from the slab. Its
// capacity is capped at one, so an append by the caller copies instead
// of overwriting the next placement's slot.
func (fb *FB) single(e Extent) []Extent {
	if len(fb.slab) == cap(fb.slab) {
		fb.slab = make([]Extent, 0, min(max(2*cap(fb.slab), minSlab), maxSlab))
	}
	i := len(fb.slab)
	fb.slab = append(fb.slab, e)
	return fb.slab[i : i+1 : i+1]
}

// Release frees the live object key and coalesces the free list (the
// paper's release(c,k,iter)). Releasing an object that is not placed is
// an error: the schedulers must have perfectly matched lifetimes.
func (fb *FB) Release(key int) error {
	if err := fb.checkKey(key); err != nil {
		return err
	}
	i := int(fb.at[key]) - 1
	if i < 0 {
		return fmt.Errorf("alloc: release of %q which is not placed", fb.name(key))
	}
	p := fb.live[i].p
	last := len(fb.live) - 1
	fb.live[i] = fb.live[last]
	fb.at[fb.live[i].key] = int32(i + 1)
	fb.live[last] = liveObject{}
	fb.live = fb.live[:last]
	fb.at[key] = 0
	for _, e := range p.Extents {
		fb.insertFree(e)
	}
	fb.used -= p.Bytes()
	return nil
}

// regionFree reports whether [addr, addr+size) lies entirely inside one
// free block. The free list is sorted by address, so the only block that
// can contain addr is the last one starting at or before it.
func (fb *FB) regionFree(addr, size int) bool {
	i := sort.Search(len(fb.free), func(i int) bool { return fb.free[i].Addr > addr }) - 1
	return i >= 0 && addr+size <= fb.free[i].End()
}

// firstFit finds a free block that can hold size whole under the active
// fit policy, scanning in the requested direction, and returns the extent
// to occupy.
func (fb *FB) firstFit(size int, dir Dir) (Extent, bool) {
	best := -1
	if fb.policy == FirstFit {
		// Stop at the first fitting block in scan direction.
		if dir == FromBottom {
			for i := 0; i < len(fb.free); i++ {
				if fb.free[i].Len >= size {
					best = i
					break
				}
			}
		} else {
			for i := len(fb.free) - 1; i >= 0; i-- {
				if fb.free[i].Len >= size {
					best = i
					break
				}
			}
		}
	} else {
		// Best/worst fit scan every block; the scan direction breaks
		// ties (strict improvement keeps the first seen).
		for j := 0; j < len(fb.free); j++ {
			i := j
			if dir == FromTop {
				i = len(fb.free) - 1 - j
			}
			l := fb.free[i].Len
			if l < size {
				continue
			}
			if best < 0 ||
				(fb.policy == BestFit && l < fb.free[best].Len) ||
				(fb.policy == WorstFit && l > fb.free[best].Len) {
				best = i
			}
		}
	}
	if best < 0 {
		return Extent{}, false
	}
	e := fb.free[best]
	if dir == FromBottom {
		return Extent{Addr: e.Addr, Len: size}, true
	}
	return Extent{Addr: e.End() - size, Len: size}, true
}

// splitFit gathers extents from successive free blocks (largest-address
// first for FromTop, lowest first for FromBottom) until size is covered.
// The caller guarantees total free space suffices.
func (fb *FB) splitFit(size int, dir Dir) []Extent {
	var extents []Extent
	remaining := size
	if dir == FromBottom {
		for _, e := range fb.free {
			if remaining == 0 {
				break
			}
			take := e.Len
			if take > remaining {
				take = remaining
			}
			extents = append(extents, Extent{Addr: e.Addr, Len: take})
			remaining -= take
		}
	} else {
		for i := len(fb.free) - 1; i >= 0; i-- {
			if remaining == 0 {
				break
			}
			e := fb.free[i]
			take := e.Len
			if take > remaining {
				take = remaining
			}
			extents = append(extents, Extent{Addr: e.End() - take, Len: take})
			remaining -= take
		}
		// Keep extents in ascending address order.
		sort.Slice(extents, func(i, j int) bool { return extents[i].Addr < extents[j].Addr })
	}
	if remaining != 0 {
		panic("alloc: splitFit called without enough total free space")
	}
	return extents
}

// carve removes the (guaranteed free) extent from the free list. The
// containing block is found by binary search and the list is spliced in
// place: no allocation unless a middle carve splits one block into two
// past the list's capacity.
func (fb *FB) carve(x Extent) {
	i := sort.Search(len(fb.free), func(i int) bool { return fb.free[i].Addr > x.Addr }) - 1
	if i < 0 || x.End() > fb.free[i].End() {
		panic(fmt.Sprintf("alloc: carve of non-free extent %+v (free list %+v)", x, fb.free))
	}
	e := fb.free[i]
	headLen := x.Addr - e.Addr
	tailLen := e.End() - x.End()
	switch {
	case headLen > 0 && tailLen > 0:
		// Middle carve: the block splits in two.
		fb.free[i] = Extent{Addr: e.Addr, Len: headLen}
		fb.free = append(fb.free, Extent{})
		copy(fb.free[i+2:], fb.free[i+1:])
		fb.free[i+1] = Extent{Addr: x.End(), Len: tailLen}
	case headLen > 0:
		fb.free[i] = Extent{Addr: e.Addr, Len: headLen}
	case tailLen > 0:
		fb.free[i] = Extent{Addr: x.End(), Len: tailLen}
	default:
		fb.free = append(fb.free[:i], fb.free[i+1:]...)
	}
}

// insertFree adds an extent to the free list, keeping it sorted and
// coalesced.
func (fb *FB) insertFree(x Extent) {
	i := sort.Search(len(fb.free), func(i int) bool { return fb.free[i].Addr >= x.Addr })
	fb.free = append(fb.free, Extent{})
	copy(fb.free[i+1:], fb.free[i:])
	fb.free[i] = x
	// Coalesce with neighbors.
	if i+1 < len(fb.free) && fb.free[i].End() == fb.free[i+1].Addr {
		fb.free[i].Len += fb.free[i+1].Len
		fb.free = append(fb.free[:i+1], fb.free[i+2:]...)
	}
	if i > 0 && fb.free[i-1].End() == fb.free[i].Addr {
		fb.free[i-1].Len += fb.free[i].Len
		fb.free = append(fb.free[:i], fb.free[i+1:]...)
	}
}

// CheckInvariants verifies internal consistency: free list sorted,
// coalesced, in bounds, disjoint from live placements, and accounting
// matches. Intended for tests and the replay checker.
func (fb *FB) CheckInvariants() error {
	freeSum := 0
	for i, e := range fb.free {
		if e.Len <= 0 {
			return fmt.Errorf("alloc: empty free extent %+v", e)
		}
		if e.Addr < 0 || e.End() > fb.size {
			return fmt.Errorf("alloc: free extent %+v out of bounds", e)
		}
		if i > 0 {
			prev := fb.free[i-1]
			if prev.End() > e.Addr {
				return fmt.Errorf("alloc: free list unsorted/overlapping at %d", i)
			}
			if prev.End() == e.Addr {
				return fmt.Errorf("alloc: free list not coalesced at %d", i)
			}
		}
		freeSum += e.Len
	}
	liveSum := 0
	occupied := fb.scratch[:0]
	for i, o := range fb.live {
		if int(fb.at[o.key]) != i+1 {
			return fmt.Errorf("alloc: key table does not point at live %q", fb.name(o.key))
		}
		for _, e := range o.p.Extents {
			if e.Len <= 0 || e.Addr < 0 || e.End() > fb.size {
				return fmt.Errorf("alloc: live extent %+v of %q out of bounds", e, fb.name(o.key))
			}
			occupied = append(occupied, e)
			liveSum += e.Len
		}
	}
	fb.scratch = occupied
	slices.SortFunc(occupied, func(x, y Extent) int { return cmp.Compare(x.Addr, y.Addr) })
	for i := 1; i < len(occupied); i++ {
		if occupied[i-1].End() > occupied[i].Addr {
			return fmt.Errorf("alloc: live extents overlap: %+v and %+v", occupied[i-1], occupied[i])
		}
	}
	// Free and live extents must not overlap.
	for _, f := range fb.free {
		for _, o := range occupied {
			if f.Addr < o.End() && o.Addr < f.End() {
				return fmt.Errorf("alloc: free %+v overlaps live %+v", f, o)
			}
		}
	}
	if liveSum != fb.used {
		return fmt.Errorf("alloc: used=%d but live extents sum to %d", fb.used, liveSum)
	}
	if freeSum+liveSum != fb.size {
		return fmt.Errorf("alloc: free(%d)+live(%d) != size(%d)", freeSum, liveSum, fb.size)
	}
	return nil
}

// String renders a compact occupancy map, useful for reproducing the
// paper's Figure 5 timelines.
func (fb *FB) String() string {
	type seg struct {
		e    Extent
		name string
	}
	var segs []seg
	for _, o := range fb.live {
		for _, e := range o.p.Extents {
			segs = append(segs, seg{e, fb.name(o.key)})
		}
	}
	for _, e := range fb.free {
		segs = append(segs, seg{e, "-"})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].e.Addr < segs[j].e.Addr })
	var b strings.Builder
	for i, s := range segs {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "%d:%s[%d]", s.e.Addr, s.name, s.e.Len)
	}
	return b.String()
}
