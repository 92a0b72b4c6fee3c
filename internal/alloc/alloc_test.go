package alloc

import (
	"errors"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// testKeys bounds the key space of the tests' allocators.
const testKeys = 1024

// objName renders key k as "o<k>".
func objName(k int) string { return "o" + strconv.Itoa(k) }

// names interns the tests' object names as dense keys; the FB renders a
// key back by its name.
type names struct{ list []string }

func (n *names) key(name string) int {
	if i := slices.Index(n.list, name); i >= 0 {
		return i
	}
	n.list = append(n.list, name)
	return len(n.list) - 1
}

func (n *names) name(k int) string { return n.list[k] }

// newFB returns an allocator whose keys come from the returned names.
func newFB(size int, allowSplit bool) (*FB, *names) {
	n := &names{}
	return New(size, allowSplit, testKeys, n.name), n
}

func mustAlloc(t *testing.T, fb *FB, key, size int, dir Dir) Placement {
	t.Helper()
	p, err := fb.Alloc(key, size, dir, -1)
	if err != nil {
		t.Fatalf("Alloc(%s, %d, %v): %v", fb.name(key), size, dir, err)
	}
	return p
}

func TestAllocFromTopAndBottom(t *testing.T) {
	fb, n := newFB(100, false)
	top := mustAlloc(t, fb, n.key("data"), 30, FromTop)
	if top.Addr() != 70 {
		t.Errorf("FromTop first alloc at %d, want 70", top.Addr())
	}
	bot := mustAlloc(t, fb, n.key("result"), 20, FromBottom)
	if bot.Addr() != 0 {
		t.Errorf("FromBottom first alloc at %d, want 0", bot.Addr())
	}
	if fb.Used() != 50 || fb.Free() != 50 {
		t.Errorf("Used/Free = %d/%d, want 50/50", fb.Used(), fb.Free())
	}
	if err := fb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocStacksFromEachEnd(t *testing.T) {
	fb, n := newFB(100, false)
	a := mustAlloc(t, fb, n.key("a"), 10, FromTop) // 90..100
	b := mustAlloc(t, fb, n.key("b"), 10, FromTop) // 80..90
	c := mustAlloc(t, fb, n.key("c"), 10, FromBottom)
	d := mustAlloc(t, fb, n.key("d"), 10, FromBottom)
	if a.Addr() != 90 || b.Addr() != 80 || c.Addr() != 0 || d.Addr() != 10 {
		t.Errorf("addrs = %d,%d,%d,%d; want 90,80,0,10", a.Addr(), b.Addr(), c.Addr(), d.Addr())
	}
}

func TestReleaseCoalesces(t *testing.T) {
	fb, n := newFB(100, false)
	mustAlloc(t, fb, n.key("a"), 30, FromBottom) // 0..30
	mustAlloc(t, fb, n.key("b"), 30, FromBottom) // 30..60
	mustAlloc(t, fb, n.key("c"), 30, FromBottom) // 60..90
	if err := fb.Release(n.key("b")); err != nil {
		t.Fatal(err)
	}
	if got := len(fb.FreeBlocks()); got != 2 {
		t.Fatalf("free blocks = %d, want 2 (hole + tail)", got)
	}
	if err := fb.Release(n.key("a")); err != nil {
		t.Fatal(err)
	}
	// a's range must coalesce with b's hole: 0..60 plus 90..100.
	blocks := fb.FreeBlocks()
	if len(blocks) != 2 || blocks[0] != (Extent{0, 60}) || blocks[1] != (Extent{90, 10}) {
		t.Fatalf("free blocks = %+v, want [{0 60} {90 10}]", blocks)
	}
	if err := fb.Release(n.key("c")); err != nil {
		t.Fatal(err)
	}
	blocks = fb.FreeBlocks()
	if len(blocks) != 1 || blocks[0] != (Extent{0, 100}) {
		t.Fatalf("after releasing all: free = %+v, want [{0 100}]", blocks)
	}
	if err := fb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseUnknown(t *testing.T) {
	fb, n := newFB(10, false)
	if err := fb.Release(n.key("ghost")); err == nil {
		t.Fatal("Release(ghost) = nil, want error")
	}
	for _, k := range []int{-1, testKeys} {
		if err := fb.Release(k); err == nil {
			t.Errorf("Release(%d) outside the key space = nil, want error", k)
		}
		if _, err := fb.Alloc(k, 1, FromTop, -1); err == nil {
			t.Errorf("Alloc(%d) outside the key space succeeded", k)
		}
		if _, ok := fb.Lookup(k); ok {
			t.Errorf("Lookup(%d) outside the key space found an object", k)
		}
	}
}

func TestAllocDuplicateName(t *testing.T) {
	fb, n := newFB(100, false)
	mustAlloc(t, fb, n.key("x"), 10, FromTop)
	if _, err := fb.Alloc(n.key("x"), 10, FromTop, -1); err == nil {
		t.Fatal("duplicate alloc succeeded")
	}
}

func TestAllocBadSize(t *testing.T) {
	fb, n := newFB(100, false)
	if _, err := fb.Alloc(n.key("z"), 0, FromTop, -1); err == nil {
		t.Fatal("zero-size alloc succeeded")
	}
	if _, err := fb.Alloc(n.key("z"), -3, FromTop, -1); err == nil {
		t.Fatal("negative-size alloc succeeded")
	}
}

func TestAllocNoSpace(t *testing.T) {
	fb, n := newFB(100, true)
	mustAlloc(t, fb, n.key("big"), 90, FromTop)
	_, err := fb.Alloc(n.key("more"), 20, FromTop, -1)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
}

func TestAllocWouldSplit(t *testing.T) {
	fb, n := newFB(100, false)
	mustAlloc(t, fb, n.key("a"), 40, FromBottom) // 0..40
	mustAlloc(t, fb, n.key("b"), 20, FromBottom) // 40..60
	mustAlloc(t, fb, n.key("c"), 40, FromBottom) // 60..100
	if err := fb.Release(n.key("a")); err != nil {
		t.Fatal(err)
	}
	if err := fb.Release(n.key("c")); err != nil {
		t.Fatal(err)
	}
	// Free: 0..40 and 60..100; 70 bytes only fits split.
	_, err := fb.Alloc(n.key("wide"), 70, FromTop, -1)
	if !errors.Is(err, ErrWouldSplit) {
		t.Fatalf("err = %v, want ErrWouldSplit", err)
	}
}

func TestAllocSplit(t *testing.T) {
	fb, n := newFB(100, true)
	mustAlloc(t, fb, n.key("a"), 40, FromBottom)
	mustAlloc(t, fb, n.key("b"), 20, FromBottom)
	mustAlloc(t, fb, n.key("c"), 40, FromBottom)
	if err := fb.Release(n.key("a")); err != nil {
		t.Fatal(err)
	}
	if err := fb.Release(n.key("c")); err != nil {
		t.Fatal(err)
	}
	p, err := fb.Alloc(n.key("wide"), 70, FromTop, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Split() || p.Bytes() != 70 {
		t.Fatalf("placement = %+v, want split totaling 70", p)
	}
	if fb.Splits() != 1 {
		t.Errorf("Splits = %d, want 1", fb.Splits())
	}
	if err := fb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Extents ascending.
	for i := 1; i < len(p.Extents); i++ {
		if p.Extents[i-1].Addr >= p.Extents[i].Addr {
			t.Errorf("extents not ascending: %+v", p.Extents)
		}
	}
	if err := fb.Release(n.key("wide")); err != nil {
		t.Fatal(err)
	}
	if err := fb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPreferredAddressRegularity(t *testing.T) {
	fb, n := newFB(100, false)
	p1 := mustAlloc(t, fb, n.key("d#0"), 20, FromTop) // 80..100
	mustAlloc(t, fb, n.key("x"), 10, FromTop)         // 70..80
	if err := fb.Release(n.key("d#0")); err != nil {
		t.Fatal(err)
	}
	// Next iteration of d wants the same address even though first-fit
	// from top would also give 80.
	p2, err := fb.Alloc(n.key("d#1"), 20, FromTop, p1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if p2.Addr() != p1.Addr() {
		t.Errorf("iteration 1 at %d, iteration 0 at %d: regularity broken", p2.Addr(), p1.Addr())
	}
	// When the preferred region is occupied, fall back to first-fit.
	p3, err := fb.Alloc(n.key("d#2"), 20, FromTop, p1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if p3.Addr() == p1.Addr() {
		t.Error("two live objects share an address")
	}
}

func TestFirstFitSkipsSmallBlocks(t *testing.T) {
	fb, n := newFB(100, false)
	mustAlloc(t, fb, n.key("a"), 10, FromBottom)   // 0..10
	mustAlloc(t, fb, n.key("b"), 30, FromBottom)   // 10..40
	mustAlloc(t, fb, n.key("c"), 60, FromBottom)   // 40..100
	if err := fb.Release(n.key("a")); err != nil { // hole 0..10
		t.Fatal(err)
	}
	if err := fb.Release(n.key("c")); err != nil { // hole 40..100
		t.Fatal(err)
	}
	p := mustAlloc(t, fb, n.key("d"), 20, FromBottom)
	if p.Addr() != 40 {
		t.Errorf("first-fit from bottom chose %d, want 40 (skip the 10-byte hole)", p.Addr())
	}
}

func TestPeakUsedTracksHighWater(t *testing.T) {
	fb, n := newFB(100, false)
	mustAlloc(t, fb, n.key("a"), 60, FromTop)
	mustAlloc(t, fb, n.key("b"), 30, FromBottom)
	if err := fb.Release(n.key("a")); err != nil {
		t.Fatal(err)
	}
	if fb.PeakUsed() != 90 {
		t.Errorf("PeakUsed = %d, want 90", fb.PeakUsed())
	}
	if fb.Used() != 30 {
		t.Errorf("Used = %d, want 30", fb.Used())
	}
}

func TestLookupAndLive(t *testing.T) {
	fb, n := newFB(100, false)
	mustAlloc(t, fb, n.key("b"), 10, FromTop)
	mustAlloc(t, fb, n.key("a"), 10, FromTop)
	if _, ok := fb.Lookup(n.key("a")); !ok {
		t.Error("Lookup(a) missing")
	}
	if _, ok := fb.Lookup(n.key("zz")); ok {
		t.Error("Lookup(zz) found phantom")
	}
	live := fb.Live()
	if len(live) != 2 || live[0] != "a" || live[1] != "b" {
		t.Errorf("Live() = %v, want [a b]", live)
	}
}

func TestResetClears(t *testing.T) {
	fb, n := newFB(100, true)
	mustAlloc(t, fb, n.key("a"), 50, FromTop)
	fb.Reset()
	if fb.Used() != 0 || fb.PeakUsed() != 0 || fb.Allocs() != 0 {
		t.Error("Reset left statistics behind")
	}
	if len(fb.FreeBlocks()) != 1 {
		t.Error("Reset left a fragmented free list")
	}
}

func TestStringRendersSegments(t *testing.T) {
	fb, n := newFB(100, false)
	mustAlloc(t, fb, n.key("r13"), 20, FromBottom)
	mustAlloc(t, fb, n.key("d37"), 30, FromTop)
	s := fb.String()
	for _, want := range []string{"0:r13[20]", "70:d37[30]", "20:-[50]"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

// TestRandomizedInvariants drives random alloc/release sequences and
// checks the structural invariants after every operation.
func TestRandomizedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		const ops = 300
		fb := New(1+rng.Intn(4096), rng.Intn(2) == 0, ops, objName)
		var live []int
		for op := 0; op < ops; op++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				if err := fb.Release(live[i]); err != nil {
					t.Fatalf("trial %d op %d: %v", trial, op, err)
				}
				live = append(live[:i], live[i+1:]...)
			} else {
				size := 1 + rng.Intn(fb.Size()/2+1)
				dir := Dir(rng.Intn(2))
				prefer := -1
				if rng.Intn(4) == 0 {
					prefer = rng.Intn(fb.Size())
				}
				if _, err := fb.Alloc(op, size, dir, prefer); err == nil {
					live = append(live, op)
				}
			}
			if err := fb.CheckInvariants(); err != nil {
				t.Fatalf("trial %d op %d: %v\nFB: %s", trial, op, err, fb)
			}
		}
	}
}

// TestQuickAllocReleaseRoundTrip: allocating then releasing any object
// restores the exact free byte count.
func TestQuickAllocReleaseRoundTrip(t *testing.T) {
	f := func(szRaw uint16, dirRaw bool) bool {
		fb, n := newFB(4096, true)
		size := int(szRaw)%4096 + 1
		dir := FromTop
		if dirRaw {
			dir = FromBottom
		}
		before := fb.Free()
		if _, err := fb.Alloc(n.key("x"), size, dir, -1); err != nil {
			return false
		}
		if fb.Free() != before-size {
			return false
		}
		if err := fb.Release(n.key("x")); err != nil {
			return false
		}
		return fb.Free() == before && len(fb.FreeBlocks()) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
