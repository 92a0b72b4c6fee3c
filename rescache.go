package cds

// Result caching for the facade. CompareAllCtx is a pure function of
// (arch.Params, *Part): the schedulers, the allocator replay and the
// simulator read nothing but the spec, and a finished Comparison is
// immutable. That makes full comparisons safe to memoize under the
// content fingerprint — design-space sweeps, batch grids and schedd
// requests that re-pose a solved point get the answer in O(hash).
//
// Only clean outcomes are kept (rescache.Cache.Do): anything carrying an
// error — a cancellation, a panic surfaced by conc, a degraded
// comparison — is handed to its concurrent sharers and then dropped, so
// a later call recomputes instead of replaying a transient failure.

import "cds/internal/rescache"

// comparisonCache memoizes CompareAllCtx outcomes. 512 entries hold a
// full three-generation × all-workloads × 58-point FB sweep with room
// to spare.
var comparisonCache = rescache.New[rescache.Key, *Comparison]("cds.compare_all", 512)

// compareTag versions the cached computation: bump it when the
// scheduler pipeline changes meaning without a spec change.
const compareTag = "compare-all/v1"

// SetResultCaching turns result caching on or off and returns the
// previous setting. It forwards to rescache.SetEnabled, the one
// process-wide switch (the FB sweep honours it too); the analysis and
// stream segment memos stay on. On by default; the golden tests and
// uncached benchmarks switch it off to exercise the raw pipeline.
func SetResultCaching(on bool) (prev bool) { return rescache.SetEnabled(on) }

// ComparisonKey returns the content fingerprint CompareAllCtx caches
// under: a deterministic hash of every arch parameter and the
// partition's canonical spec.
func ComparisonKey(pa Arch, part *Part) rescache.Key {
	return rescache.KeyOf(pa, part, compareTag)
}

// LookupComparisonByKey returns the memoized comparison under key (see
// ComparisonKey) if a clean one is resident, without scheduling
// anything. Serving layers use it to answer requests before paying for
// queue admission, and the fleet's peer-fill endpoint (GET
// /v1/cache/{key}) to answer a peer that already computed the key. Only
// a hit moves the cache counters; the caller's next step (a compute or
// NoteComparisonPeerFill) counts the miss.
func LookupComparisonByKey(key rescache.Key) (*Comparison, bool) {
	if !rescache.Enabled() {
		return nil, false
	}
	return comparisonCache.Get(key)
}

// NoteComparisonPeerFill records that a local comparison-cache miss was
// answered by a fleet peer (per-source accounting on the "rescache"
// expvar; peer fills never count as local hits).
func NoteComparisonPeerFill() { comparisonCache.NotePeerFill() }

// ComparisonCacheStats reports the comparison cache's cumulative
// hit/miss/eviction counters (also published under the "rescache"
// expvar).
func ComparisonCacheStats() (hits, misses, evictions int64) {
	return comparisonCache.Stats()
}
