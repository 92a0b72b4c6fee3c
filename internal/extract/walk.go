package extract

// Compiled footprint walks. The schedulers evaluate the paper's DS(C)
// footprint model O(candidates² × clusters) times while selecting a
// retention set; deriving the walk order from strings and maps on every
// evaluation dominated their profile. The extractor therefore compiles,
// once per analysis, a per-cluster walk over interned datum IDs that the
// core footprint engine replays against epoch-stamped scratch arrays —
// no map, no string hash, no allocation per evaluation. The allocation
// replay plans its per-cluster lists from the same walks.

import (
	"slices"
	"strings"

	"cds/internal/app"
)

// FootprintStep is one kernel's effect on the resident set, in interned
// datum IDs.
type FootprintStep struct {
	// StreamIn lists the kernel's streamed inputs: they arrive just in
	// time for this kernel instead of before the cluster starts. May
	// repeat IDs (a kernel may list an operand twice); the walker
	// dedupes against the live set.
	StreamIn []int32
	// Out lists the kernel's outputs, which materialize while its
	// inputs are still resident.
	Out []int32
	// Release lists the objects whose last in-cluster use is this
	// kernel: external inputs owned by it (the paper's d_j), in
	// KernelClass.D order, then the intermediates it is the last
	// consumer of, by name. Applied only under InPlaceRelease, and never
	// to pinned or remote objects.
	Release []int32
	// D is Release's first part, the kernel's d_j.
	D []int32
	// Inter lists the kernel's intermediate outputs (KernelClass.R's
	// keys), by name.
	Inter []int32
}

// FootprintWalk is the compiled footprint model of one cluster.
type FootprintWalk struct {
	// Preload lists the non-streamed external inputs resident before
	// the cluster starts, in first-use order.
	Preload []int32
	// Produced lists every datum written by the cluster's kernels.
	// Pinned objects produced here materialize at their producing
	// kernel, not at cluster start.
	Produced []int32
	// Steps holds one entry per cluster kernel, in execution order.
	Steps []FootprintStep
	// External lists ClusterInfo.ExternalIn and Persistent
	// ClusterInfo.PersistentOut.
	External, Persistent []int32
}

// Walk returns cluster c's compiled walk, or nil for hand-assembled
// Infos that never went through AnalyzeWithOpts (the footprint model
// falls back to the string-keyed one; the schedulers and the allocation
// replay refuse them).
func (info *Info) Walk(c int) *FootprintWalk {
	if info.walks == nil {
		return nil
	}
	return &info.walks[c]
}

// compileWalks builds the per-cluster walks from the finished analysis.
func (info *Info) compileWalks() {
	a := info.P.App
	if !a.Finalized() {
		// Unfinalized hand-assembled App: no interned tables. Leave
		// walks nil; footprint evaluation takes the string path.
		return
	}
	info.walks = make([]FootprintWalk, len(info.Clusters))
	for c := range info.Clusters {
		ci := &info.Clusters[c]
		w := &info.walks[c]

		w.External, w.Persistent = idsOf(a, ci.ExternalIn), idsOf(a, ci.PersistentOut)
		for _, id := range w.External {
			if !a.IsStreamedID(id) {
				w.Preload = append(w.Preload, id)
			}
		}
		for _, ki := range ci.Cluster.Kernels {
			w.Produced = append(w.Produced, a.KernelOutputIDs(ki)...)
		}

		// releaseAfter maps an app kernel index to the intermediates
		// whose last in-cluster consumer it is.
		releaseAfter := make(map[int][]int32)
		w.Steps = make([]FootprintStep, len(ci.PerKernel))
		for i, kc := range ci.PerKernel {
			st := &w.Steps[i]
			for out, t := range kc.R {
				id := int32(a.DatumID(out))
				releaseAfter[t] = append(releaseAfter[t], id)
				st.Inter = append(st.Inter, id)
			}
			byName(a, st.Inter)
		}
		for i, kc := range ci.PerKernel {
			st := &w.Steps[i]
			for _, id := range a.KernelInputIDs(kc.Kernel) {
				if a.IsStreamedID(id) {
					st.StreamIn = append(st.StreamIn, id)
				}
			}
			st.Out = a.KernelOutputIDs(kc.Kernel)
			st.Release = append(idsOf(a, kc.D), byName(a, releaseAfter[kc.Kernel])...)
			st.D = st.Release[:len(kc.D):len(kc.D)]
		}
	}
}

// idsOf returns the IDs of the named data.
func idsOf(a *app.App, names []string) []int32 {
	ids := make([]int32, len(names))
	for i, n := range names {
		ids[i] = int32(a.DatumID(n))
	}
	return ids
}

// byName sorts the data IDs by datum name and returns them.
func byName(a *app.App, ids []int32) []int32 {
	slices.SortFunc(ids, func(x, y int32) int { return strings.Compare(a.DatumName(x), a.DatumName(y)) })
	return ids
}
