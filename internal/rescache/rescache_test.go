package rescache

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"cds/internal/app"
	"cds/internal/arch"
	"cds/internal/scherr"
)

func testPart(t testing.TB, name string, inSize int) *app.Partition {
	t.Helper()
	b := app.NewBuilder(name, 4).
		Datum("in", inSize).
		Datum("out", 32)
	b.Kernel("k", 16, 100).In("in").Out("out")
	a, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := app.NewPartition(a, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestKeyOfContentAddressing(t *testing.T) {
	pa := arch.M1()
	p := testPart(t, "key", 128)
	q := testPart(t, "key", 128) // distinct pointer, same content
	if KeyOf(pa, p, "t") != KeyOf(pa, q, "t") {
		t.Error("structurally identical partitions produced different keys")
	}

	distinct := map[string]Key{
		"base":              KeyOf(pa, p, "t"),
		"other tag":         KeyOf(pa, p, "t2"),
		"FB size":           KeyOf(pa.WithFB(4096), p, "t"),
		"CM words":          keyWith(pa, p, func(m *arch.Params) { m.CMWords = 2048 }),
		"bus bytes":         keyWith(pa, p, func(m *arch.Params) { m.BusBytes = 8 }),
		"DMA setup":         keyWith(pa, p, func(m *arch.Params) { m.DMASetupCycles = 8 }),
		"geometry":          keyWith(pa, p, func(m *arch.Params) { m.Rows = 16 }),
		"datum size":        KeyOf(pa, testPart(t, "key", 256), "t"),
		"partition content": KeyOf(pa, testPart(t, "key2", 128), "t"),
	}
	seen := map[Key]string{}
	for what, k := range distinct {
		if prev, dup := seen[k]; dup {
			t.Errorf("%s and %s share a key; every spec field must enter the fingerprint", what, prev)
		}
		seen[k] = what
	}
}

// TestKeyOfPinned pins one key in hex: every key a long-lived cache or a
// fleet peer ever saw must survive a reorganization of the encoding.
func TestKeyOfPinned(t *testing.T) {
	const want = "f84b6e87c2ed24ab40c1d81074f776fd6c6f3c8f24ff32310630d99ab5740e07"
	if got := fmt.Sprintf("%x", KeyOf(arch.M1(), testPart(t, "key", 128), "compare-all/v1")); got != want {
		t.Errorf("KeyOf = %s, want %s", got, want)
	}
}

func keyWith(pa arch.Params, p *app.Partition, mut func(*arch.Params)) Key {
	mut(&pa)
	return KeyOf(pa, p, "t")
}

// TestSingleflightHammer drives one key from 32 goroutines under -race:
// exactly one computation, everyone sees its value, and the counters
// add up.
func TestSingleflightHammer(t *testing.T) {
	c := New[Key, string]("test.hammer", 16)
	key := KeyOf(arch.M1(), testPart(t, "hammer", 64), "hammer")
	var computations atomic.Int64
	const goroutines = 32
	results := make([]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], _ = c.Do(context.Background(), key, func() (string, error) {
				computations.Add(1)
				return "value", nil
			})
		}(g)
	}
	wg.Wait()
	if n := computations.Load(); n != 1 {
		t.Errorf("computed %d times, want 1 (singleflight)", n)
	}
	for g, r := range results {
		if r != "value" {
			t.Fatalf("goroutine %d got %v", g, r)
		}
	}
	hits, misses, _ := c.Stats()
	if misses != 1 || hits != goroutines-1 {
		t.Errorf("hits=%d misses=%d, want %d/1", hits, misses, goroutines-1)
	}
}

func TestNonCacheableOutcomesRecompute(t *testing.T) {
	c := New[Key, int64]("test.noncacheable", 16)
	key := KeyOf(arch.M1(), testPart(t, "nc", 64), "nc")
	var n atomic.Int64
	errDegraded := errors.New("degraded")
	compute := func() (int64, error) {
		return n.Add(1), errDegraded // e.g. a degraded comparison
	}
	ctx := context.Background()
	if v, err := c.Do(ctx, key, compute); v != 1 || !errors.Is(err, errDegraded) {
		t.Fatalf("first Do = %v, %v", v, err)
	}
	if v, _ := c.Do(ctx, key, compute); v != 2 {
		t.Errorf("outcome with an error was served from cache: %v", v)
	}
	if c.Len() != 0 {
		t.Errorf("non-cacheable entries linger: Len=%d", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[Key, string]("test.lru", 2)
	pa := arch.M1()
	p := testPart(t, "lru", 64)
	k1, k2, k3 := KeyOf(pa, p, "1"), KeyOf(pa, p, "2"), KeyOf(pa, p, "3")
	ctx := context.Background()
	val := func(s string) func() (string, error) { return func() (string, error) { return s, nil } }
	c.Do(ctx, k1, val("a"))
	c.Do(ctx, k2, val("b"))
	c.Do(ctx, k1, val("a")) // touch k1: k2 is now least recently used
	c.Do(ctx, k3, val("c")) // evicts k2
	if _, ok := c.Get(k2); ok {
		t.Error("least-recently-used entry survived eviction")
	}
	if v, ok := c.Get(k1); !ok || v != "a" {
		t.Error("recently-used entry was evicted")
	}
	if _, _, ev := c.Stats(); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

// TestCanceledLeaderLiveSharer pins Do's second rule: when the
// singleflight leader's context dies mid-compute, a sharer whose own
// context is alive recomputes instead of inheriting the cancellation,
// and nothing canceled stays resident.
func TestCanceledLeaderLiveSharer(t *testing.T) {
	c := New[Key, string]("test.cancel", 16)
	key := KeyOf(arch.M1(), testPart(t, "cancel", 64), "cancel")

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	entered, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, err := c.Do(leaderCtx, key, func() (string, error) {
			close(entered)
			<-release
			return "", scherr.FromContext(leaderCtx)
		})
		leaderDone <- err
	}()
	<-entered

	// The sharer joins the in-flight entry: its Do counts a hit the
	// moment it holds the leader's entry, whatever the scheduling after.
	var recomputed atomic.Int64
	type result struct {
		v   string
		err error
	}
	sharerDone := make(chan result, 1)
	go func() {
		v, err := c.Do(context.Background(), key, func() (string, error) {
			recomputed.Add(1)
			return "fresh", nil
		})
		sharerDone <- result{v, err}
	}()
	for {
		if hits, _, _ := c.Stats(); hits == 1 {
			break
		}
		runtime.Gosched()
	}
	cancelLeader()
	close(release)

	if err := <-leaderDone; !errors.Is(err, scherr.ErrCanceled) {
		t.Errorf("leader err = %v, want ErrCanceled", err)
	}
	r := <-sharerDone
	if r.err != nil || r.v != "fresh" {
		t.Errorf("live sharer got (%q, %v), want a recomputed value", r.v, r.err)
	}
	if n := recomputed.Load(); n != 1 {
		t.Errorf("sharer recomputed %d times, want 1", n)
	}
	if c.Len() != 0 {
		t.Errorf("canceled outcome stayed resident: Len=%d", c.Len())
	}
	if _, ok := c.Get(key); ok {
		t.Error("Get served a canceled outcome")
	}

	// A dead context reports cancellation, never a cached value.
	c.Do(context.Background(), key, func() (string, error) { return "clean", nil })
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Do(dead, key, func() (string, error) { return "x", nil }); !errors.Is(err, scherr.ErrCanceled) {
		t.Errorf("dead context: err = %v, want ErrCanceled", err)
	}
}
