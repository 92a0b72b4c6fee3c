package core

import (
	"fmt"
)

// ValidateSchedule checks the internal consistency of a schedule against
// its application and architecture. The schedulers always produce valid
// schedules; this guards hand-modified ones and serves as the fuzzing
// oracle.
//
// Checked invariants:
//
//  1. visits cover every (block, cluster) pair exactly once, in block-major
//     cluster order, and their iteration counts sum to App.Iterations per
//     cluster;
//  2. every load names a datum the cluster actually consumes from outside
//     itself, with volume = iters * size;
//  3. every store names a persistent output of the cluster, with volume =
//     iters * size;
//  4. context loads never exceed the kernel's context volume and name
//     kernels (context groups) of the cluster;
//  5. compute equals iters * the cluster's kernel cycles;
//  6. retained objects have sane spans and live on a set that exists.
//
// It checks the schedule's period (Period) rather than every visit, with
// the same verdict and error text. The runs of the steady block differ
// only in their blocks, so checks 2 to 5 pass in every run once they pass
// in the first. Check 1 reads the blocks: a run's visits stand at the
// positions of (block, cluster) pairs in runs 0 and 1 only if a run is
// one block of every cluster, and then in every run. The blocks before
// the last all run RF iterations, so only the last run's iteration counts
// can fail where the first run's pass. The check therefore walks the
// leading visits, steady runs 0, 1 and Repeat-1 and the trailing visits,
// and counts the iterations of the runs between.
func ValidateSchedule(s *Schedule) error {
	if s == nil {
		return fmt.Errorf("core: nil schedule")
	}
	if err := s.Arch.Validate(); err != nil {
		return err
	}
	if err := s.P.Validate(); err != nil {
		return err
	}
	a := s.P.App
	numClusters := len(s.P.Clusters)
	if s.RF < 1 {
		return fmt.Errorf("core: RF = %d", s.RF)
	}

	blockSizes := blocks(a.Iterations, s.RF)
	wantVisits := len(blockSizes) * numClusters
	if s.NumVisits() != wantVisits {
		return fmt.Errorf("core: %d visits, want %d (%d blocks x %d clusters)",
			s.NumVisits(), wantVisits, len(blockSizes), numClusters)
	}

	iterPerCluster := make([]int, numClusters)
	per := &s.period
	skip := -1
	if per.Len > 0 && per.Repeat > 3 {
		skip = per.Lead + 2*per.Len
	}
	for vi := 0; vi < wantVisits; vi++ {
		if vi == skip {
			// Runs 2 to Repeat-2, whose clusters runs 0 and 1 checked.
			for j := per.Lead; j < per.Lead+per.Len; j++ {
				v := &per.Visits[j]
				iterPerCluster[v.Cluster] += (per.Repeat - 3) * v.Iters
			}
			vi += (per.Repeat - 3) * per.Len
		}
		v := s.Visit(vi)
		wantBlock := vi / numClusters
		wantCluster := vi % numClusters
		if v.Block != wantBlock || v.Cluster != wantCluster {
			return fmt.Errorf("core: visit %d is (block %d, cluster %d), want (%d, %d)",
				vi, v.Block, v.Cluster, wantBlock, wantCluster)
		}
		c := s.P.Clusters[v.Cluster]
		if v.Set != c.Set {
			return fmt.Errorf("core: visit %d set %d, cluster says %d", vi, v.Set, c.Set)
		}
		if v.Iters != blockSizes[v.Block] {
			return fmt.Errorf("core: visit %d iters %d, block size %d", vi, v.Iters, blockSizes[v.Block])
		}
		iterPerCluster[v.Cluster] += v.Iters

		ci := s.Info.Clusters[v.Cluster]
		externalIn := map[string]bool{}
		for _, name := range ci.ExternalIn {
			externalIn[name] = true
		}
		for _, m := range v.Loads {
			if !externalIn[m.Datum] {
				return fmt.Errorf("core: visit %d loads %q which cluster %d does not consume externally",
					vi, m.Datum, v.Cluster)
			}
			if m.Bytes != v.Iters*a.SizeOf(m.Datum) {
				return fmt.Errorf("core: visit %d load of %q is %d bytes, want %d",
					vi, m.Datum, m.Bytes, v.Iters*a.SizeOf(m.Datum))
			}
		}
		persistent := map[string]bool{}
		for _, name := range ci.PersistentOut {
			persistent[name] = true
		}
		for _, m := range v.Stores {
			if !persistent[m.Datum] {
				return fmt.Errorf("core: visit %d stores %q which is not a persistent output of cluster %d",
					vi, m.Datum, v.Cluster)
			}
			if m.Bytes != v.Iters*a.SizeOf(m.Datum) {
				return fmt.Errorf("core: visit %d store of %q is %d bytes, want %d",
					vi, m.Datum, m.Bytes, v.Iters*a.SizeOf(m.Datum))
			}
		}

		groups := map[string]int{}
		compute := 0
		for _, ki := range c.Kernels {
			k := a.Kernels[ki]
			if w, seen := groups[k.CtxGroup()]; !seen || k.ContextWords > w {
				groups[k.CtxGroup()] = k.ContextWords
			}
			compute += v.Iters * k.ComputeCycles
		}
		ctxSum := 0
		for _, m := range v.CtxLoads {
			max, ok := groups[m.Datum]
			if !ok {
				return fmt.Errorf("core: visit %d loads contexts for %q, not a group of cluster %d",
					vi, m.Datum, v.Cluster)
			}
			if m.Bytes <= 0 || m.Bytes > max {
				return fmt.Errorf("core: visit %d context load %q of %d words (group holds %d)",
					vi, m.Datum, m.Bytes, max)
			}
			ctxSum += m.Bytes
		}
		if ctxSum != v.CtxWords {
			return fmt.Errorf("core: visit %d CtxWords %d != sum of loads %d", vi, v.CtxWords, ctxSum)
		}
		if v.ComputeCycles != compute {
			return fmt.Errorf("core: visit %d compute %d, want %d", vi, v.ComputeCycles, compute)
		}
	}
	for c, n := range iterPerCluster {
		if n != a.Iterations {
			return fmt.Errorf("core: cluster %d executes %d iterations, want %d", c, n, a.Iterations)
		}
	}

	setsInUse := map[int]bool{}
	for _, c := range s.P.Clusters {
		setsInUse[c.Set] = true
	}
	for _, r := range s.Retained {
		if !setsInUse[r.Set] {
			return fmt.Errorf("core: retained %q homed on unused set %d", r.Name, r.Set)
		}
		if r.From < 0 || r.To >= numClusters || r.From > r.To {
			return fmt.Errorf("core: retained %q has span %d..%d", r.Name, r.From, r.To)
		}
		if a.SizeOf(r.Name) != r.Size {
			return fmt.Errorf("core: retained %q size %d, app says %d", r.Name, r.Size, a.SizeOf(r.Name))
		}
	}
	return nil
}
