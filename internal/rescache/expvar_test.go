package rescache

import (
	"context"
	"expvar"
	"strings"
	"testing"

	"cds/internal/arch"
)

// TestExpvarOncePerProcess pins the registration discipline: the
// "rescache" var publishes lazily on the first New and never again —
// constructing many caches (two servers in one process, tests building
// caches repeatedly) must not panic on a duplicate expvar.Publish, and
// every cache must appear in the published snapshot.
func TestExpvarOncePerProcess(t *testing.T) {
	// Each New would panic the process here if it re-Published.
	a := New[Key, int]("expvar.a", 4)
	b := New[Key, int]("expvar.b", 4)

	v := expvar.Get("rescache")
	if v == nil {
		t.Fatal("rescache expvar not published after New")
	}

	key := KeyOf(arch.M1(), testPart(t, "expvar", 64), "expvar-test")
	ctx := context.Background()
	a.Do(ctx, key, func() (int, error) { return 1, nil })
	a.Do(ctx, key, func() (int, error) { return 2, nil })
	b.Do(ctx, key, func() (int, error) { return 3, nil })

	out := v.String()
	for _, want := range []string{`"expvar.a"`, `"expvar.b"`, "hits", "misses"} {
		if !strings.Contains(out, want) {
			t.Errorf("expvar snapshot missing %s: %s", want, out)
		}
	}
	if hits, misses, _ := a.Stats(); hits != 1 || misses != 1 {
		t.Errorf("cache a stats hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// TestPeerFillAccounting pins the per-source split: a miss answered by a
// fleet peer counts under peer_fills, never as a local hit — the local
// hit/miss counters keep describing only this cache's own contents.
func TestPeerFillAccounting(t *testing.T) {
	c := New[Key, int]("expvar.peer", 4)
	key := KeyOf(arch.M1(), testPart(t, "peer", 64), "peer-test")

	// A local lookup that misses, then is satisfied by a peer.
	if _, ok := c.Get(key); ok {
		t.Fatal("fresh cache reports a hit")
	}
	c.NotePeerFill()

	hits, misses, _ := c.Stats()
	if hits != 0 {
		t.Errorf("peer fill double-counted as a local hit: hits=%d", hits)
	}
	if misses != 1 {
		t.Errorf("misses=%d, want 1 (the local lookup that preceded the fill)", misses)
	}
	if got := c.PeerFills(); got != 1 {
		t.Errorf("PeerFills=%d, want 1", got)
	}

	// The expvar snapshot carries the new counter.
	out := expvar.Get("rescache").String()
	if !strings.Contains(out, "peer_fills") {
		t.Errorf("expvar snapshot missing peer_fills: %s", out)
	}
}

// TestUnnamedCacheUnregistered: an unnamed cache stays out of the
// process-wide registry, so a cache owned by a short-lived value is
// collected with it instead of being pinned (and reported) forever.
func TestUnnamedCacheUnregistered(t *testing.T) {
	registryMu.Lock()
	before := len(registry)
	registryMu.Unlock()
	c := New[Key, int]("", 4)
	c.Do(context.Background(), Key{}, func() (int, error) { return 1, nil })
	registryMu.Lock()
	after := len(registry)
	registryMu.Unlock()
	if after != before {
		t.Errorf("unnamed cache registered: registry %d -> %d", before, after)
	}
	if _, ok := Snapshot()[""]; ok {
		t.Error("Snapshot reports an unnamed cache")
	}
}
