package arch

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"cds/internal/scherr"
)

func TestM1Defaults(t *testing.T) {
	p := M1()
	if err := p.Validate(); err != nil {
		t.Fatalf("M1() invalid: %v", err)
	}
	if p.FBSets != 2 {
		t.Errorf("M1 FBSets = %d, want 2 (double-buffered frame buffer)", p.FBSets)
	}
	if p.Rows != 8 || p.Cols != 8 {
		t.Errorf("M1 array = %dx%d, want 8x8", p.Rows, p.Cols)
	}
	if p.CMWords != 1024 {
		t.Errorf("M1 CMWords = %d, want 1024", p.CMWords)
	}
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{"zero FB", func(p *Params) { p.FBSetBytes = 0 }},
		{"negative FB", func(p *Params) { p.FBSetBytes = -1 }},
		{"no sets", func(p *Params) { p.FBSets = 0 }},
		{"zero CM", func(p *Params) { p.CMWords = 0 }},
		{"zero bus", func(p *Params) { p.BusBytes = 0 }},
		{"negative setup", func(p *Params) { p.DMASetupCycles = -1 }},
		{"zero ctx word", func(p *Params) { p.CtxWordBytes = 0 }},
		{"empty array", func(p *Params) { p.Rows = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := M1()
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Errorf("Validate() = nil, want error for %s", tt.name)
			}
		})
	}
}

func TestWithFB(t *testing.T) {
	p := M1().WithFB(8 * KiB)
	if p.FBSetBytes != 8*KiB {
		t.Fatalf("WithFB: FBSetBytes = %d, want %d", p.FBSetBytes, 8*KiB)
	}
	if !strings.Contains(p.Name, "8K") {
		t.Errorf("WithFB: Name = %q, want to mention 8K", p.Name)
	}
	if M1().FBSetBytes == p.FBSetBytes && 8*KiB == M1().FBSetBytes {
		t.Fatal("test misconfigured: pick a size different from the default")
	}
}

func TestDataCycles(t *testing.T) {
	p := M1() // BusBytes=4, DMASetupCycles=4
	tests := []struct {
		bytes, want int
	}{
		{0, 0},
		{-5, 0},
		{1, 5}, // 1 beat + setup
		{4, 5}, // exactly one beat
		{5, 6}, // two beats
		{8, 6}, // two beats
		{1024, 4 + 256},
	}
	for _, tt := range tests {
		if got := p.DataCycles(tt.bytes); got != tt.want {
			t.Errorf("DataCycles(%d) = %d, want %d", tt.bytes, got, tt.want)
		}
	}
}

func TestContextCycles(t *testing.T) {
	p := M1() // CtxWordBytes=4, BusBytes=4 -> one cycle per word
	if got := p.ContextCycles(0); got != 0 {
		t.Errorf("ContextCycles(0) = %d, want 0", got)
	}
	if got := p.ContextCycles(16); got != 4+16 {
		t.Errorf("ContextCycles(16) = %d, want %d", got, 4+16)
	}
}

func TestDataCyclesMonotonic(t *testing.T) {
	p := M1()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return p.DataCycles(x) <= p.DataCycles(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDataCyclesSplitNeverCheaper(t *testing.T) {
	// Splitting one burst into two can never be cheaper than a single
	// burst: each extra burst pays the DMA setup again. The allocator
	// relies on this when deciding whether splitting a datum is harmful.
	p := M1()
	f := func(a, b uint16) bool {
		x, y := int(a)+1, int(b)+1
		return p.DataCycles(x)+p.DataCycles(y) >= p.DataCycles(x+y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFormatSize(t *testing.T) {
	tests := []struct {
		n    int
		want string
	}{
		{1024, "1K"},
		{2048, "2K"},
		{8 * KiB, "8K"},
		{819, "0.8K"},
		{1536, "1.5K"},
	}
	for _, tt := range tests {
		if got := FormatSize(tt.n); got != tt.want {
			t.Errorf("FormatSize(%d) = %q, want %q", tt.n, got, tt.want)
		}
	}
}

// groupNames interns the tests' context group names as dense IDs; the
// CM renders an ID back by its name.
type groupNames struct{ list []string }

func (n *groupNames) id(name string) int {
	if i := slices.Index(n.list, name); i >= 0 {
		return i
	}
	n.list = append(n.list, name)
	return len(n.list) - 1
}

func (n *groupNames) name(g int) string { return n.list[g] }

// newCM returns a context memory whose group IDs come from the returned
// names.
func newCM(capacityWords int) (*ContextMemory, *groupNames) {
	n := &groupNames{}
	return NewContextMemory(capacityWords, 0, n.name), n
}

func TestContextMemoryLoadAndHit(t *testing.T) {
	cm, n := newCM(100)
	moved, err := cm.Load(n.id("dct"), 40)
	if err != nil || moved != 40 {
		t.Fatalf("Load(dct) = (%d, %v), want (40, nil)", moved, err)
	}
	// Second load is a hit: no words move.
	moved, err = cm.Load(n.id("dct"), 40)
	if err != nil || moved != 0 {
		t.Fatalf("reload of resident kernel = (%d, %v), want (0, nil)", moved, err)
	}
	if cm.Used() != 40 || cm.Free() != 60 {
		t.Errorf("Used/Free = %d/%d, want 40/60", cm.Used(), cm.Free())
	}
}

func TestContextMemoryFIFOEviction(t *testing.T) {
	cm, n := newCM(100)
	mustLoad(t, cm, n, "a", 40)
	mustLoad(t, cm, n, "b", 40)
	mustLoad(t, cm, n, "c", 40) // must evict a (oldest)
	if cm.Resident(n.id("a")) {
		t.Error("kernel a still resident, want FIFO eviction")
	}
	if !cm.Resident(n.id("b")) || !cm.Resident(n.id("c")) {
		t.Error("kernels b and c should be resident")
	}
	if cm.Used() != 80 {
		t.Errorf("Used = %d, want 80", cm.Used())
	}
}

func TestContextMemoryTooLarge(t *testing.T) {
	cm, n := newCM(32)
	_, err := cm.Load(n.id("huge"), 33)
	if !errors.Is(err, ErrDoesNotFit) {
		t.Fatalf("Load(huge) err = %v, want ErrDoesNotFit", err)
	}
	if want := `arch: kernel "huge" needs 33 context words, CM holds 32: `; !strings.HasPrefix(err.Error(), want) {
		t.Errorf("Load(huge) err = %q, want prefix %q", err, want)
	}
	if _, err := cm.Load(n.id("neg"), -1); err == nil {
		t.Fatal("Load with negative size: want error")
	} else if want := `arch: negative context size -1 for kernel "neg"`; err.Error() != want {
		t.Errorf("Load(neg) err = %q, want %q", err, want)
	}
}

func TestContextMemoryEvictAndReset(t *testing.T) {
	cm, n := newCM(64)
	mustLoad(t, cm, n, "a", 10)
	mustLoad(t, cm, n, "b", 20)
	cm.Evict(n.id("a"))
	if cm.Resident(n.id("a")) || cm.Used() != 20 {
		t.Errorf("after Evict(a): resident=%v used=%d, want false/20", cm.Resident(n.id("a")), cm.Used())
	}
	cm.Evict(n.id("a")) // idempotent
	cm.Reset()
	if cm.Used() != 0 || cm.Resident(n.id("b")) {
		t.Error("Reset did not clear the context memory")
	}
}

func TestContextMemoryAccountingInvariant(t *testing.T) {
	// Property: after any sequence of loads, used == sum of resident
	// sizes and never exceeds capacity.
	cm, n := newCM(128)
	names := []string{"k0", "k1", "k2", "k3", "k4", "k5"}
	sizes := []int{16, 48, 64, 32, 128, 8}
	for step := 0; step < 200; step++ {
		if _, err := cm.Load(n.id(names[step%len(names)]), sizes[step%len(sizes)]); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		sum := 0
		for _, name := range names {
			if g := n.id(name); cm.Resident(g) {
				sum += cm.group[g].words
			}
		}
		if sum != cm.Used() {
			t.Fatalf("step %d: used=%d but resident sum=%d", step, cm.Used(), sum)
		}
		if cm.Used() > cm.Capacity() {
			t.Fatalf("step %d: used=%d exceeds capacity=%d", step, cm.Used(), cm.Capacity())
		}
	}
}

// TestContextMemoryFIFOAfterEvict checks FIFO order against a model
// load-order list over random loads, out-of-turn evictions and resets:
// the CM evicts exactly the oldest resident groups, whatever entries
// Evict left behind in its load order.
func TestContextMemoryFIFOAfterEvict(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const groups = 9
	cm := NewContextMemory(100, groups, func(g int) string { return fmt.Sprint("g", g) })
	size := func(g int) int { return 10 + 7*g }
	var model []int // resident groups, oldest first
	used := func() int {
		u := 0
		for _, g := range model {
			u += size(g)
		}
		return u
	}
	for step := 0; step < 2000; step++ {
		g := rng.Intn(groups)
		switch r := rng.Intn(10); {
		case r == 0:
			cm.Evict(g)
			if i := slices.Index(model, g); i >= 0 {
				model = slices.Delete(model, i, i+1)
			}
		case r == 1 && step%50 == 0:
			cm.Reset()
			model = model[:0]
		default:
			want := 0
			if !slices.Contains(model, g) {
				for used()+size(g) > 100 {
					model = model[1:]
				}
				model = append(model, g)
				want = size(g)
			}
			if moved, err := cm.Load(g, size(g)); err != nil || moved != want {
				t.Fatalf("step %d: Load(g%d) = (%d, %v), want (%d, nil)", step, g, moved, err, want)
			}
		}
		for h := 0; h < groups; h++ {
			if cm.Resident(h) != slices.Contains(model, h) {
				t.Fatalf("step %d: Resident(g%d) = %v, model %v", step, h, cm.Resident(h), model)
			}
		}
		if cm.Used() != used() {
			t.Fatalf("step %d: used %d, model %d", step, cm.Used(), used())
		}
	}
}

// TestContextMemoryLoadAllocs pins that a warm context memory's FIFO
// churn allocates nothing: loads, evictions and the load-order
// compaction reuse the CM's tables.
func TestContextMemoryLoadAllocs(t *testing.T) {
	const groups = 8
	cm := NewContextMemory(100, groups, func(g int) string { return fmt.Sprint("g", g) })
	cycle := func() {
		for g := 0; g < groups; g++ {
			if _, err := cm.Load(g, 30); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle() // warm the load order's capacity
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("steady-state Load cycle allocates %.1f times, want 0", avg)
	}
}

// TestContextMemoryCorruptAccountingIsError: a CM whose accounting has
// broken (words counted used with nothing evictable) must report a typed
// error from the eviction path, not panic. The state is unreachable
// through the public API, so the test corrupts it directly; the error
// must match both ErrCMCorrupt and the taxonomy's ErrInternal so a long
// sweep can report the item and keep going.
func TestContextMemoryCorruptAccountingIsError(t *testing.T) {
	cm, n := newCM(64)
	mustLoad(t, cm, n, "a", 40)
	// Corrupt: drop the eviction order while words stay accounted used.
	cm.order = nil
	moved, err := cm.Load(n.id("b"), 40) // needs eviction, nothing to evict
	if moved != 0 {
		t.Fatalf("corrupt Load moved %d words, want 0", moved)
	}
	if !errors.Is(err, ErrCMCorrupt) {
		t.Fatalf("err = %v, want ErrCMCorrupt", err)
	}
	if !errors.Is(err, scherr.ErrInternal) {
		t.Fatalf("err = %v does not match scherr.ErrInternal", err)
	}
	// The expected capacity outcome stays distinct from corruption.
	if errors.Is(err, ErrDoesNotFit) {
		t.Fatalf("corruption error %v must not match ErrDoesNotFit", err)
	}
}

func mustLoad(t *testing.T, cm *ContextMemory, n *groupNames, kernel string, words int) {
	t.Helper()
	if _, err := cm.Load(n.id(kernel), words); err != nil {
		t.Fatalf("Load(%s, %d): %v", kernel, words, err)
	}
}

func TestPresets(t *testing.T) {
	ps := Presets()
	if len(ps) != 3 {
		t.Fatalf("presets = %d, want 3", len(ps))
	}
	for name, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if p.Name != name {
			t.Errorf("preset key %q has name %q", name, p.Name)
		}
	}
	if ps["M2"].Rows != 16 || ps["M2"].BusBytes != 8 {
		t.Errorf("M2 = %+v", ps["M2"])
	}
	if ps["M1/4"].FBSetBytes >= ps["M1"].FBSetBytes {
		t.Error("M1/4 should have a smaller FB than M1")
	}
}
