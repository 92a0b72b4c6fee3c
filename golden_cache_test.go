package cds

// Golden equivalence tests for result caching: the memoized pipeline
// must be observably identical to the uncached one — byte for byte
// under a canonical serialization — and cache hits must share one
// immutable Comparison.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cds/internal/core"
	"cds/internal/rescache"
	"cds/internal/scherr"
	"cds/internal/workloads"
)

// goldenBytes serializes everything a caller can observe in a
// comparison: schedules, timings and allocation reports of all three
// schedulers plus the derived metrics.
func goldenBytes(t *testing.T, cmp *Comparison) []byte {
	t.Helper()
	raw, err := json.Marshal(struct {
		Basic, DS, CDS                *Result
		ImprovementDS, ImprovementCDS float64
		RF, DTBytes                   int
		BasicErr, DSErr, CDSErr       string
	}{
		cmp.Basic, cmp.DS, cmp.CDS,
		cmp.ImprovementDS, cmp.ImprovementCDS,
		cmp.RF, cmp.DTBytes,
		errString(cmp.BasicErr), errString(cmp.DSErr), errString(cmp.CDSErr),
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestResultCacheGolden: for every workload, the cached comparison —
// first fill, then a pure hit — serializes byte-identically to the
// uncached scheduler output.
func TestResultCacheGolden(t *testing.T) {
	for _, e := range workloads.All() {
		prev := SetResultCaching(false)
		uncached, uncachedErr := CompareAll(e.Arch, e.Part)
		SetResultCaching(prev)
		if uncachedErr != nil && !errors.Is(uncachedErr, scherr.ErrInfeasible) {
			t.Fatalf("%s: uncached: %v", e.Name, uncachedErr)
		}

		fill, fillErr := CompareAll(e.Arch, e.Part)
		hit, hitErr := CompareAll(e.Arch, e.Part)
		if errString(fillErr) != errString(uncachedErr) || errString(hitErr) != errString(fillErr) {
			t.Fatalf("%s: error drift: uncached=%v fill=%v hit=%v", e.Name, uncachedErr, fillErr, hitErr)
		}
		if uncachedErr != nil {
			continue // degraded outcomes are not cached; nothing further to compare
		}

		want := goldenBytes(t, uncached)
		if got := goldenBytes(t, fill); string(got) != string(want) {
			t.Errorf("%s: cache-fill comparison differs from uncached output", e.Name)
		}
		if got := goldenBytes(t, hit); string(got) != string(want) {
			t.Errorf("%s: cache-hit comparison differs from uncached output", e.Name)
		}
		if fill != hit {
			t.Errorf("%s: second call did not return the shared cached *Comparison", e.Name)
		}
		if lk, ok := LookupComparison(e.Arch, e.Part); !ok || lk != hit {
			t.Errorf("%s: LookupComparison does not see the resident entry", e.Name)
		}
	}
}

// TestCompareAllCtxCanceledNotCached: a dead context reports
// cancellation and must neither poison the cache nor be served from it.
// cancelRuns numbers TestCompareAllCtxCanceledNotCached's invocations.
var cancelRuns atomic.Int64

func TestCompareAllCtxCanceledNotCached(t *testing.T) {
	e := workloads.MPEG()
	// Ensure the entry exists, then cancel: the hit must NOT mask the
	// caller's dead context.
	if _, err := CompareAll(e.Arch, e.Part); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompareAllCtx(ctx, e.Arch, e.Part); !errors.Is(err, scherr.ErrCanceled) {
		t.Fatalf("dead context: err = %v, want ErrCanceled", err)
	}

	// A cancellation during fill must not be memoized: use a spec no
	// earlier invocation built (go test -count=N reruns in-process) so
	// the fill actually runs, with an already-expired deadline.
	b := NewApp(fmt.Sprintf("golden-cancel-%d", cancelRuns.Add(1)), 16).Datum("in", 256).Datum("out", 64)
	b.Kernel("k", 32, 500).In("in").Out("out")
	part, err := Partition(b.MustBuild(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := CompareAllCtx(dctx, e.Arch, part); !errors.Is(err, scherr.ErrCanceled) {
		t.Fatalf("expired deadline: err = %v, want ErrCanceled", err)
	}
	if _, ok := LookupComparison(e.Arch, part); ok {
		t.Error("canceled computation was cached")
	}
	// The same spec under a live context computes cleanly afterwards.
	if _, err := CompareAll(e.Arch, part); err != nil {
		t.Fatalf("post-cancel recompute: %v", err)
	}
}

// namesRuns numbers TestCachedReportNamesConcurrently's invocations.
var namesRuns atomic.Int64

// TestCachedReportNamesConcurrently: a report builds its instance name
// table on first request. The cached Comparison keeps only summary
// reports, so the readers share one recorded replay of the cached CDS
// schedule; concurrent first requests must all see the same names, and
// run clean under -race.
func TestCachedReportNamesConcurrently(t *testing.T) {
	// A spec no earlier invocation built, so the table starts cold.
	b := NewApp(fmt.Sprintf("golden-names-%d", namesRuns.Add(1)), 8).
		Datum("in", 128).Datum("mid", 64).Datum("out", 32)
	b.Kernel("k1", 32, 400).In("in").Out("mid")
	b.Kernel("k2", 32, 400).In("mid").Out("out")
	part, err := Partition(b.MustBuild(), 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	arch := workloads.MPEG().Arch
	first, err := CompareAll(arch, part)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := CompareAll(arch, part)
	if err != nil {
		t.Fatal(err)
	}
	if cmp != first {
		t.Fatal("second CompareAll did not return the cached Comparison")
	}
	if cmp.CDS.Allocation.Events != nil {
		t.Fatalf("cached CDS report holds %d events, want a summary without an event log", len(cmp.CDS.Allocation.Events))
	}
	rep, err := core.AllocateWithOptions(cmp.CDS.Schedule, core.AllocOptions{AllowSplit: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumEvents() == 0 {
		t.Fatal("no allocation events")
	}

	const readers = 8
	names := make([][]string, readers)
	var wg sync.WaitGroup
	for g := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rep.NumEvents() {
				ev := rep.Event(i)
				names[g] = append(names[g], rep.Object(ev)+" "+rep.DatumName(ev))
			}
		}()
	}
	wg.Wait()
	for g := 1; g < readers; g++ {
		if !slices.Equal(names[g], names[0]) {
			t.Fatalf("reader %d named the events differently from reader 0", g)
		}
	}
	for i := range rep.NumEvents() {
		ev := rep.Event(i)
		datum, iter, ok := core.ParseInstance(rep.Object(ev))
		if !ok || datum != rep.DatumName(ev) {
			t.Fatalf("event %d: object %q does not name datum %q", i, rep.Object(ev), rep.DatumName(ev))
		}
		if ev.Iter >= 0 && iter != ev.Iter {
			t.Fatalf("event %d: object %q names iteration %d, event runs %d", i, rep.Object(ev), iter, ev.Iter)
		}
	}
}

// TestResultCachingDisabled: with caching off, repeated calls build
// fresh Comparisons.
func TestResultCachingDisabled(t *testing.T) {
	prev := SetResultCaching(false)
	defer SetResultCaching(prev)
	e := workloads.MPEG()
	a, err := CompareAll(e.Arch, e.Part)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompareAll(e.Arch, e.Part)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("caching disabled but the same *Comparison came back")
	}
}

// TestRescacheGlobalSwitch: the process-wide rescache switch also
// bypasses the comparison cache.
func TestRescacheGlobalSwitch(t *testing.T) {
	prev := rescache.SetEnabled(false)
	defer rescache.SetEnabled(prev)
	e := workloads.MPEG()
	a, err := CompareAll(e.Arch, e.Part)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompareAll(e.Arch, e.Part)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("rescache disabled but the same *Comparison came back")
	}
}
