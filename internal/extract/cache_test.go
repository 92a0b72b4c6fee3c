package extract

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"cds/internal/app"
)

func cachePart(t testing.TB, name string) *app.Partition {
	t.Helper()
	b := app.NewBuilder(name, 4).
		Datum("in", 100).
		Datum("mid", 40).
		Datum("out", 20)
	b.Kernel("ka", 16, 100).In("in").Out("mid")
	b.Kernel("kb", 16, 100).In("mid").Out("out")
	return app.MustPartition(b.MustBuild(), 2, 1, 1)
}

func TestAnalyzeCachedMemoizes(t *testing.T) {
	p := cachePart(t, "memo")
	a := AnalyzeCached(p, Opts{})
	b := AnalyzeCached(p, Opts{})
	if a != b {
		t.Error("same (partition, opts) produced distinct Infos")
	}
	// Different options are a different analysis.
	c := AnalyzeCached(p, Opts{CrossSetReuse: true})
	if c == a {
		t.Error("CrossSetReuse shares the same-set analysis")
	}
	// A different partition of the same shape is a different key.
	q := cachePart(t, "memo2")
	if AnalyzeCached(q, Opts{}) == a {
		t.Error("distinct partitions share one Info")
	}
	// The memoized result matches a fresh analysis structurally.
	fresh := AnalyzeWithOpts(p, Opts{})
	if len(a.Clusters) != len(fresh.Clusters) || a.TDS != fresh.TDS ||
		len(a.SharedData) != len(fresh.SharedData) || len(a.SharedResults) != len(fresh.SharedResults) {
		t.Error("cached Info differs from a fresh analysis")
	}
}

// TestAnalyzeCachedSingleflight checks concurrent first callers share
// one computation and one result. Run under -race this also proves the
// cache (and the shared Info) is safe to hit from many goroutines.
func TestAnalyzeCachedSingleflight(t *testing.T) {
	p := cachePart(t, "flight")
	const goroutines = 16
	results := make([]*Info, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = AnalyzeCached(p, Opts{})
			// Read through the Info the way schedulers do, so the
			// race detector sees concurrent shared reads.
			for _, ci := range results[g].Clusters {
				_ = ci.ExternalInBytes(p.App)
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Fatalf("goroutine %d got a different Info", g)
		}
	}
}

// contentKeyRuns numbers TestAnalyzeCachedContentKey's invocations.
var contentKeyRuns atomic.Int64

// TestAnalyzeCachedContentKey: the cache keys on the content
// fingerprint, so two structurally identical partitions — distinct
// pointers, same spec — share ONE entry and one Info.
func TestAnalyzeCachedContentKey(t *testing.T) {
	// A name no earlier invocation used (go test -count=N reruns
	// in-process), so the first lookup is a real miss.
	name := fmt.Sprintf("content-key-%d", contentKeyRuns.Add(1))
	p := cachePart(t, name)
	q := cachePart(t, name)
	if p == q {
		t.Fatal("want distinct partition pointers")
	}
	before := CacheLen()
	h0, _, _ := CacheStats()
	a := AnalyzeCached(p, Opts{})
	b := AnalyzeCached(q, Opts{})
	if a != b {
		t.Error("structurally identical partitions did not share one Info")
	}
	if grown := CacheLen() - before; grown > 1 {
		t.Errorf("two identical partitions grew the cache by %d entries, want <= 1", grown)
	}
	if h1, _, _ := CacheStats(); h1 != h0+1 {
		t.Errorf("hit counter moved %d, want exactly 1 (second partition is a content hit)", h1-h0)
	}
}
