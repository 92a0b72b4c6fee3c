package core

import (
	"sync"

	"cds/internal/app"
	"cds/internal/extract"
)

// Fast footprint evaluation over the extractor's compiled walks
// (extract.FootprintWalk): the retention pass evaluates the paper's
// DS(C) model O(candidates² × clusters) times, so the inner loop must
// not hash strings or allocate. The walker indexes epoch-stamped
// scratch arrays by interned datum ID; bumping the epoch empties every
// set in O(1), and a sync.Pool recycles the arrays across scheduler
// runs and sweep points. ClusterFootprint keeps the readable map-based
// model; TestFootprintFastMatchesSlow pins the two to identical results.

// fpScratch is one goroutine's footprint evaluation state.
type fpScratch struct {
	epoch    uint32
	live     []uint32 // live[id] == epoch -> resident
	pinned   []uint32 // pinned[id] == epoch -> retained on this cluster's set
	remote   []uint32 // remote[id] == epoch -> read from the other set
	produced []uint32 // produced[id] == epoch -> written by this cluster

	pinnedList []int32 // IDs pinned in the current epoch

	// The allocation replay's plan (planReplay) stamps the same arrays
	// and keeps two lists here: the retained objects' IDs and an index
	// list it sorts.
	retained, order []int32
}

var fpPool = sync.Pool{New: func() any { return &fpScratch{} }}

// getScratch leases a scratch sized for n datum IDs.
func getScratch(n int) *fpScratch {
	sc := fpPool.Get().(*fpScratch)
	if len(sc.live) < n {
		sc.live = make([]uint32, n)
		sc.pinned = make([]uint32, n)
		sc.remote = make([]uint32, n)
		sc.produced = make([]uint32, n)
		sc.epoch = 0
	}
	return sc
}

func putScratch(sc *fpScratch) { fpPool.Put(sc) }

// begin opens a fresh evaluation epoch: all four sets become empty.
func (sc *fpScratch) begin() {
	sc.epoch++
	if sc.epoch == 0 { // wrapped after 2^32 evaluations: hard reset
		clear(sc.live)
		clear(sc.pinned)
		clear(sc.remote)
		clear(sc.produced)
		sc.epoch = 1
	}
	sc.pinnedList = sc.pinnedList[:0]
}

// stampRetention marks the retained objects as pinned or remote for
// cluster c, mirroring pinnedFor/remoteFor exactly.
func (sc *fpScratch) stampRetention(a *app.App, retained []Retained, c app.Cluster) {
	for i := range retained {
		r := &retained[i]
		if r.From > c.Index || c.Index > r.To {
			continue
		}
		id := a.DatumID(r.Name)
		if id < 0 {
			continue
		}
		if r.Set == c.Set {
			if sc.pinned[id] != sc.epoch {
				sc.pinned[id] = sc.epoch
				sc.pinnedList = append(sc.pinnedList, int32(id))
			}
		} else if r.CrossSet {
			sc.remote[id] = sc.epoch
		}
	}
}

// walkFootprint replays cluster walk w and returns the peak resident
// bytes: the same model as ClusterFootprint, on interned IDs. begin and
// stampRetention must have run for the current epoch.
func (sc *fpScratch) walkFootprint(a *app.App, w *extract.FootprintWalk, inPlace bool) int {
	ep := sc.epoch
	cur := 0

	// Pinned objects occupy space from the start unless this cluster
	// produces them (then they materialize at their producing kernel).
	for _, id := range w.Produced {
		sc.produced[id] = ep
	}
	for _, id := range sc.pinnedList {
		if sc.produced[id] != ep && sc.live[id] != ep {
			sc.live[id] = ep
			cur += a.SizeByID(id)
		}
	}
	// Non-streamed external inputs are resident before the cluster
	// starts, except remote ones (they stay in their home set).
	for _, id := range w.Preload {
		if sc.remote[id] != ep && sc.live[id] != ep {
			sc.live[id] = ep
			cur += a.SizeByID(id)
		}
	}
	peak := cur

	for si := range w.Steps {
		st := &w.Steps[si]
		for _, id := range st.StreamIn {
			if sc.remote[id] != ep && sc.live[id] != ep {
				sc.live[id] = ep
				cur += a.SizeByID(id)
			}
		}
		for _, id := range st.Out {
			if sc.live[id] != ep {
				sc.live[id] = ep
				cur += a.SizeByID(id)
			}
		}
		if cur > peak {
			peak = cur
		}
		if !inPlace {
			continue
		}
		for _, id := range st.Release {
			if sc.pinned[id] != ep && sc.remote[id] != ep && sc.live[id] == ep {
				sc.live[id] = 0
				cur -= a.SizeByID(id)
			}
		}
	}
	return peak
}

// clusterFootprintFast evaluates cluster c's footprint through the
// compiled walk, or falls back to ClusterFootprint when the Info has no
// walks (hand-assembled in tests).
func clusterFootprintFast(info *extract.Info, c int, inPlace bool, retained []Retained, sc *fpScratch) int {
	w := info.Walk(c)
	if w == nil {
		return ClusterFootprint(info, c, FootprintOpts{
			InPlaceRelease: inPlace,
			Pinned:         pinnedFor(retained, info.Clusters[c].Cluster),
			Remote:         remoteFor(retained, info.Clusters[c].Cluster),
		})
	}
	a := info.P.App
	sc.begin()
	sc.stampRetention(a, retained, info.Clusters[c].Cluster)
	return sc.walkFootprint(a, w, inPlace)
}
