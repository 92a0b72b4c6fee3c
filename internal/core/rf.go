package core

import "cds/internal/extract"

// CommonRF returns the highest context reuse factor usable by EVERY
// cluster: the largest rf such that rf consecutive iterations of each
// cluster fit its Frame Buffer set alongside the retained objects. The
// result is capped by the application's iteration count and is at least 1
// when the clusters fit at all (rf=0 means infeasible even for a single
// iteration).
//
// The paper picks this common value first — reusing contexts for RF
// iterations divides the number of context loads by RF — and only then
// spends leftover FB space on inter-cluster retention.
//
// Invariant: the result is always >= 1. Callers reach CommonRF only
// after feasibleRF has proven a single iteration fits (schedule() checks
// RF=1 before picking RF), so a cluster footprint larger than the FB set
// — which would make the raw division yield 0 — cannot mean "infeasible"
// here; it can only arise when retention pinning inflates a footprint
// past the set size, and then RF=1 is still the established floor.
// Returning 0 would silently make downstream consumers (blocks()
// defensively treats rf < 1 as 1) disagree about the block structure.
func CommonRF(fbSetBytes int, info *extract.Info, inPlace bool, retained []Retained) int {
	iters := info.P.App.Iterations
	rf := iters
	sc := getScratch(info.P.App.NumData())
	defer putScratch(sc)
	for _, ci := range info.Clusters {
		fp := clusterFootprintFast(info, ci.Cluster.Index, inPlace, retained, sc)
		if fp == 0 {
			continue
		}
		c := fbSetBytes / fp
		if c < rf {
			rf = c
		}
	}
	if rf > iters {
		rf = iters
	}
	if rf < 1 {
		rf = 1
	}
	return rf
}

// blocks splits the application's iterations into visits of rf iterations
// (the last block may be shorter) and returns the per-block iteration
// counts.
func blocks(iterations, rf int) []int {
	rf = max(rf, 1)
	out := make([]int, numBlocks(iterations, rf))
	for b := range out {
		out[b] = blockIters(iterations, rf, b)
	}
	return out
}

// numBlocks returns how many blocks of rf >= 1 iterations the
// application's iterations split into: full blocks, then a shorter tail
// block when rf does not divide them.
func numBlocks(iterations, rf int) int { return (iterations + rf - 1) / rf }

// blockIters returns how many iterations block b runs.
func blockIters(iterations, rf, b int) int { return min(rf, iterations-b*rf) }
