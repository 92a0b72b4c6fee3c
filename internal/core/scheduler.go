package core

import (
	"context"
	"errors"
	"fmt"

	"cds/internal/app"
	"cds/internal/arch"
	"cds/internal/conc"
	"cds/internal/extract"
	"cds/internal/scherr"
)

// Basic is the reference scheduler of Maestre et al. (DATE'99): every
// cluster iteration loads all contexts and stores all results; data are
// handled per kernel, so a datum read by several kernels of the cluster is
// transferred once per reading kernel; nothing is reused across iterations
// or clusters, and no Frame Buffer space is reclaimed during cluster
// execution.
type Basic struct{}

// Name implements Scheduler.
func (Basic) Name() string { return "basic" }

// Schedule implements Scheduler.
func (b Basic) Schedule(pa arch.Params, part *app.Partition) (*Schedule, error) {
	return b.ScheduleCtx(context.Background(), pa, part)
}

// ScheduleCtx implements Scheduler.
func (Basic) ScheduleCtx(ctx context.Context, pa arch.Params, part *app.Partition) (*Schedule, error) {
	return schedule(ctx, "basic", pa, part, scheduleOpts{
		rfEnabled:      false,
		inPlaceRelease: false,
		retention:      false,
		perKernelLoads: true,
	})
}

// TimingEvaluator scores a candidate schedule, returning its estimated
// execution time in cycles. The schedulers that pick a reuse factor accept
// one so the choice can be checked against the machine's timing model
// (internal/sim, wired in by the top-level cds package — core itself
// cannot import the simulator) instead of assuming more context reuse is
// always at least as fast. See the RF guard note on DataScheduler.
type TimingEvaluator func(*Schedule) (int, error)

// DataScheduler is the ISSS'01 Data Scheduler: within-cluster space reuse
// (in-place replacement of dead data) and loop fission with the highest
// common context reuse factor RF, but no inter-cluster retention.
//
// The paper picks the highest RF the Frame Buffer permits, arguing more
// context reuse can only reduce DMA traffic. That is true of traffic but
// not of execution time: batching RF iterations into one visit also
// batches the final visit's stores into one burst that cannot overlap any
// computation, so a corner-case workload can run slower at a higher RF
// (found by differential fuzzing; see internal/workloads regression
// "regress/rf-tail-store"). When Eval is set, the scheduler therefore
// sweeps the feasible reuse factors, scores each candidate schedule with
// the timing model, and keeps the fastest — preferring the paper's higher
// RF on ties. A nil Eval keeps the paper's literal RF-max policy.
type DataScheduler struct {
	// Eval, when non-nil, guards the RF choice with a timing model.
	Eval TimingEvaluator
}

// Name implements Scheduler.
func (DataScheduler) Name() string { return "ds" }

// Schedule implements Scheduler.
func (d DataScheduler) Schedule(pa arch.Params, part *app.Partition) (*Schedule, error) {
	return d.ScheduleCtx(context.Background(), pa, part)
}

// ScheduleCtx implements Scheduler.
func (d DataScheduler) ScheduleCtx(ctx context.Context, pa arch.Params, part *app.Partition) (*Schedule, error) {
	return schedule(ctx, "ds", pa, part, scheduleOpts{
		rfEnabled:      true,
		inPlaceRelease: true,
		retention:      false,
		evaluate:       d.Eval,
	})
}

// RFPolicy selects how the Complete Data Scheduler picks the reuse factor.
type RFPolicy int

const (
	// RFMax is the paper's policy: take the highest common RF the FB
	// permits, then spend whatever space remains on retention.
	RFMax RFPolicy = iota
	// RFSweep jointly optimizes RF and retention: every feasible RF is
	// tried with its own retention selection and the variant with the
	// lowest estimated DMA time wins. Exists for the common-RF ablation;
	// the sweep can trade context reuse for more retention.
	RFSweep
)

func (p RFPolicy) String() string {
	if p == RFSweep {
		return "sweep"
	}
	return "max"
}

// CompleteDataScheduler is the paper's contribution: the Data Scheduler
// plus TF-ranked retention of inter-cluster shared data and results.
type CompleteDataScheduler struct {
	// Ranking overrides the retention candidate ordering; nil selects
	// the paper's TF ranking. See RankTF, RankBySize, RankFIFO.
	Ranking RankFunc
	// CrossSetReuse enables the paper's future-work extension: data and
	// results shared among clusters on DIFFERENT FB sets also become
	// retention candidates (the architecture is assumed to let the RC
	// array read both sets). Off by default, matching the paper.
	CrossSetReuse bool
	// RF selects the reuse-factor policy (the paper's RFMax by default).
	RF RFPolicy
	// Eval, when non-nil, guards the RF choice with a timing model —
	// see the note on DataScheduler. Ignored under RFSweep, which runs
	// its own joint RF/retention sweep.
	Eval TimingEvaluator
}

// Name implements Scheduler.
func (CompleteDataScheduler) Name() string { return "cds" }

// Schedule implements Scheduler.
func (c CompleteDataScheduler) Schedule(pa arch.Params, part *app.Partition) (*Schedule, error) {
	return c.ScheduleCtx(context.Background(), pa, part)
}

// ScheduleCtx implements Scheduler.
func (c CompleteDataScheduler) ScheduleCtx(ctx context.Context, pa arch.Params, part *app.Partition) (*Schedule, error) {
	ranking := c.Ranking
	if ranking == nil {
		ranking = RankTF
	}
	opts := scheduleOpts{
		rfEnabled:      true,
		inPlaceRelease: true,
		retention:      true,
		ranking:        ranking,
		crossSet:       c.CrossSetReuse,
	}
	if c.RF != RFSweep {
		opts.evaluate = c.Eval
		return schedule(ctx, "cds", pa, part, opts)
	}
	// Sweep: build one schedule per feasible RF and keep the one with
	// the lowest serialized DMA time (a lower bound on execution time
	// that orders schedules the same way when compute is fixed).
	base, err := schedule(ctx, "cds", pa, part, opts)
	if err != nil {
		return nil, err
	}
	// The candidates are independent, so build them across a bounded
	// worker pool; they share the base schedule's memoized analysis.
	// Results land in rf order, keeping the winner selection below
	// identical to the serial loop's. The pool inherits ctx: a canceled
	// sweep stops claiming RFs and reports scherr.ErrCanceled.
	cands := make([]*Schedule, base.RF-1)
	err = conc.ForEach(ctx, conc.DefaultLimit(), len(cands), func(i int) error {
		opts := opts
		opts.forcedRF = i + 1
		cand, err := schedule(ctx, "cds", pa, part, opts)
		if err != nil {
			// An RF the footprint model rejects is an expected sweep
			// outcome, recognized by TYPE via the taxonomy; anything
			// else (bad arch params, invalid partition, cancellation)
			// is a genuine failure that must surface instead of
			// silently falling back to the base schedule.
			if errors.Is(err, scherr.ErrInfeasible) {
				return nil
			}
			return fmt.Errorf("core: rf sweep at RF=%d: %w", i+1, err)
		}
		cands[i] = cand
		return nil
	})
	if err != nil {
		return nil, err
	}
	best, bestCost := base, dmaCost(base)
	for _, cand := range cands {
		if cand == nil {
			continue // infeasible RF, skipped above
		}
		if cost := dmaCost(cand); cost < bestCost {
			best, bestCost = cand, cost
		}
	}
	return best, nil
}

// dmaCost estimates a schedule's DMA channel demand in cycles.
func dmaCost(s *Schedule) int {
	p := s.Arch
	cost := p.ContextCycles(s.TotalCtxWords())
	for _, v := range s.Visits {
		for _, m := range v.Loads {
			cost += p.DataCycles(m.Bytes)
		}
		for _, m := range v.Stores {
			cost += p.DataCycles(m.Bytes)
		}
	}
	return cost
}

type scheduleOpts struct {
	rfEnabled      bool
	inPlaceRelease bool
	retention      bool
	// perKernelLoads makes every kernel load its own copy of its
	// cluster-external inputs (the Basic Scheduler's behavior); the
	// data schedulers load each datum once per cluster visit.
	perKernelLoads bool
	// crossSet enables cross-FB-set retention (future-work extension).
	crossSet bool
	// forcedRF overrides the reuse factor when > 0 (RF sweep).
	forcedRF int
	ranking  RankFunc
	// evaluate, when non-nil, guards the RF choice with a timing model
	// (see DataScheduler.Eval).
	evaluate TimingEvaluator
}

// schedule is the shared pipeline: analyze, check feasibility, pick RF,
// pick retention, and emit the visit sequence with exact transfer volumes.
func schedule(ctx context.Context, name string, pa arch.Params, part *app.Partition, opts scheduleOpts) (*Schedule, error) {
	if err := scherr.FromContext(ctx); err != nil {
		return nil, fmt.Errorf("core: %s scheduler: %w", name, err)
	}
	if err := pa.Validate(); err != nil {
		return nil, err
	}
	if err := part.Validate(); err != nil {
		return nil, err
	}
	// The analysis depends only on (partition, cross-set flag), so all
	// three schedulers, every RF-sweep variant and every FB-sweep point
	// share one memoized Info; it is immutable from here on.
	info := extract.AnalyzeCached(part, extract.Opts{CrossSetReuse: opts.crossSet})

	// Feasibility at RF=1 with no retention is the baseline requirement.
	if ok, ierr := feasibleRF(pa.FBSetBytes, info, 1, opts.inPlaceRelease, nil); !ok {
		ierr.Scheduler = name
		return nil, ierr
	}

	rf := 1
	if opts.rfEnabled {
		rf = CommonRF(pa.FBSetBytes, info, opts.inPlaceRelease, nil)
	}
	if opts.forcedRF > 0 {
		if opts.forcedRF > rf {
			return nil, fmt.Errorf("core: forced RF %d exceeds the feasible maximum %d", opts.forcedRF, rf)
		}
		rf = opts.forcedRF
	}

	build := func(rf int) (*Schedule, error) {
		var retained []Retained
		if opts.retention {
			retained = selectRetention(pa.FBSetBytes, info, rf, opts.ranking)
		}
		s := &Schedule{
			Scheduler:      name,
			Arch:           pa,
			P:              part,
			Info:           info,
			RF:             rf,
			Retained:       retained,
			InPlaceRelease: opts.inPlaceRelease,
		}
		if err := buildVisits(s, pa, info, rf, retained, opts.perKernelLoads); err != nil {
			return nil, fmt.Errorf("core: %s scheduler: %w", name, err)
		}
		return s, nil
	}
	s, err := build(rf)
	if err != nil {
		return nil, err
	}
	if opts.evaluate == nil || opts.forcedRF > 0 || rf <= 1 {
		return s, nil
	}
	// RF guard: more context reuse always cuts DMA traffic, but a higher
	// RF also batches the last visit's stores into one burst the RC array
	// can never overlap, so RF-max can lose wall-clock time in corner
	// cases. Score every feasible RF (retention re-selected per RF) with
	// the timing model and keep the fastest, walking downward from the
	// paper's choice so ties keep the higher RF.
	best, err := opts.evaluate(s)
	if err != nil {
		return nil, fmt.Errorf("core: %s scheduler: rf guard: %w", name, err)
	}
	for r := rf - 1; r >= 1; r-- {
		if ok, _ := feasibleRF(pa.FBSetBytes, info, r, opts.inPlaceRelease, nil); !ok {
			continue // footprint holes are possible below the common RF
		}
		cand, err := build(r)
		if err != nil {
			return nil, err
		}
		t, err := opts.evaluate(cand)
		if err != nil {
			return nil, fmt.Errorf("core: %s scheduler: rf guard: %w", name, err)
		}
		if t < best {
			s, best = cand, t
		}
	}
	return s, nil
}

// retKey scopes a retained object to its FB set: the same datum can be
// independently shared (and retained) on both sets.
type retKey struct {
	name string
	set  int
}

// retainedLookups precomputes, per retained object, who loads it and
// whether its store is skipped. All effects are scoped to the object's FB
// set: consumers on the other set keep their loads and force stores.
type retainedLookups struct {
	// loaderCluster maps a retained object to the single cluster that
	// still loads it (first consumer of retained data; -1 for retained
	// results, which are never loaded on their set).
	loaderCluster map[retKey]int
	// skipStore marks retained results whose external store is avoided.
	skipStore map[retKey]bool
}

func buildRetainedLookups(retained []Retained, info *extract.Info) retainedLookups {
	rl := retainedLookups{
		loaderCluster: map[retKey]int{},
		skipStore:     map[retKey]bool{},
	}
	shared := map[retKey]extract.SharedResult{}
	for _, sr := range info.SharedResults {
		shared[retKey{sr.Name, sr.Set}] = sr
	}
	// Collect the FB sets in use so cross-set retention can register
	// its effect for consumers on every set.
	setsInUse := map[int]bool{}
	for _, c := range info.P.Clusters {
		setsInUse[c.Set] = true
	}
	for _, r := range retained {
		key := retKey{r.Name, r.Set}
		keys := []retKey{key}
		if r.CrossSet {
			keys = keys[:0]
			for set := range setsInUse {
				keys = append(keys, retKey{r.Name, set})
			}
		}
		switch r.Kind {
		case RetainedData:
			for _, k := range keys {
				rl.loaderCluster[k] = r.From
			}
		case RetainedResult:
			for _, k := range keys {
				rl.loaderCluster[k] = -1
			}
			if sr, ok := shared[key]; ok && sr.StoreAvoidable() {
				rl.skipStore[key] = true
			}
		}
	}
	return rl
}

// carve returns the movements appended since mark as a slice whose
// capacity ends at its length, so appending to it never overwrites the
// next list, and the new mark. No movements give a nil list.
func carve(moves []Movement, mark int) ([]Movement, int) {
	if len(moves) == mark {
		return nil, mark
	}
	return moves[mark:len(moves):len(moves)], len(moves)
}

// appendScaled appends list, movements of from iterations' data, scaled
// to to iterations.
func appendScaled(moves, list []Movement, from, to int) []Movement {
	for _, m := range list {
		moves = append(moves, Movement{Datum: m.Datum, Bytes: m.Bytes / from * to})
	}
	return moves
}

// buildVisits fills s.Visits: one visit per (block, cluster), in execution
// order, with context traffic counted by replaying the Context Memory.
// The replay can only fail on a broken Context Memory invariant
// (scherr.ErrInternal); the expected arch.ErrDoesNotFit outcome for a
// kernel bigger than the whole CM is absorbed as a full reload per visit.
func buildVisits(s *Schedule, pa arch.Params, info *extract.Info, rf int, retained []Retained, perKernelLoads bool) error {
	a := info.P.App
	rl := buildRetainedLookups(retained, info)
	groupOf, groups := a.CtxGroups()
	cm := arch.NewContextMemory(pa.CMWords, len(groups), func(g int) string { return groups[g] })

	// Every visit's Loads, Stores and CtxLoads are carved from one
	// backing array, sized by the per-block bound: a cluster loads at
	// most its external inputs (Basic: each kernel's inputs), stores at
	// most its persistent results and loads contexts at most once per
	// kernel.
	bs := blocks(a.Iterations, rf)
	perBlock := 0
	for _, ci := range info.Clusters {
		if perKernelLoads {
			for _, ki := range ci.Cluster.Kernels {
				perBlock += len(a.Kernels[ki].Inputs)
			}
		} else {
			perBlock += len(ci.ExternalIn)
		}
		perBlock += len(ci.PersistentOut) + len(ci.Cluster.Kernels)
	}
	moves := make([]Movement, 0, len(bs)*perBlock)
	s.Visits = make([]Visit, 0, len(bs)*len(info.Clusters))

	for b, iters := range bs {
		for i, ci := range info.Clusters {
			c := ci.Cluster
			v := Visit{
				Cluster: c.Index,
				Set:     c.Set,
				Block:   b,
				Iters:   iters,
			}
			mark := len(moves)
			// Data loads. A cluster's data loads and stores depend
			// only on the cluster and the retention, not on the
			// block, so a later block moves those of block 0's visit
			// s.Visits[i], scaled to its own iteration count.
			switch {
			case b > 0:
				moves = appendScaled(moves, s.Visits[i].Loads, bs[0], iters)
			case perKernelLoads:
				// Basic Scheduler: each kernel transfers its own
				// copy of its cluster-external inputs. Streamed
				// inputs are the exception even here: a streamed
				// datum arrives just in time for its first consumer
				// and stays placed for the rest of the visit, so a
				// second consumer reads the resident copy rather
				// than transferring its own.
				streamedCharged := map[string]bool{}
				for _, ki := range c.Kernels {
					for _, name := range a.Kernels[ki].Inputs {
						if p, produced := a.Producer(name); produced && c.Contains(p) {
							continue // intra-cluster intermediate
						}
						if a.IsStreamed(name) {
							if streamedCharged[name] {
								continue
							}
							streamedCharged[name] = true
						}
						moves = append(moves, Movement{Datum: name, Bytes: iters * a.SizeOf(name)})
					}
				}
			default:
				for _, name := range ci.ExternalIn {
					if loader, ok := rl.loaderCluster[retKey{name, c.Set}]; ok && loader != c.Index {
						continue // resident: retained by an earlier cluster or kept since production
					}
					moves = append(moves, Movement{Datum: name, Bytes: iters * a.SizeOf(name)})
				}
			}
			v.Loads, mark = carve(moves, mark)
			// Result stores.
			if b > 0 {
				moves = appendScaled(moves, s.Visits[i].Stores, bs[0], iters)
			} else {
				for _, name := range ci.PersistentOut {
					if rl.skipStore[retKey{name, c.Set}] {
						continue
					}
					moves = append(moves, Movement{Datum: name, Bytes: iters * a.SizeOf(name)})
				}
			}
			v.Stores, mark = carve(moves, mark)
			// Context loads: once per visit per context group at
			// most, fewer if the group survived in the CM. The Basic
			// Scheduler (perKernelLoads) is the DATE'99 baseline with
			// NO context reuse across cluster iterations: the CM is
			// reset at every visit boundary so each visit recharges
			// its full context volume even when the groups would
			// still be resident — pinning its traffic to
			// iterations x sum(ContextWords) (per-visit group sharing
			// from intra-kernel tiling still deduplicates).
			if perKernelLoads {
				cm.Reset()
			}
			for _, ki := range c.Kernels {
				k := &a.Kernels[ki]
				moved, err := cm.Load(int(groupOf[ki]), k.ContextWords)
				if err != nil {
					if !errors.Is(err, arch.ErrDoesNotFit) {
						// Anything but the expected
						// too-big-for-the-CM outcome means the
						// replay state itself broke; surface it
						// instead of mis-charging traffic.
						return fmt.Errorf("core: context memory replay (cluster %d block %d): %w",
							c.Index, b, err)
					}
					// A kernel whose contexts exceed the whole
					// CM reloads in pieces every visit; charge
					// the full volume.
					moved = k.ContextWords
				}
				if moved > 0 {
					moves = append(moves, Movement{Datum: k.CtxGroup(), Bytes: moved})
				}
				v.CtxWords += moved
				v.ComputeCycles += iters * k.ComputeCycles
			}
			v.CtxLoads, _ = carve(moves, mark)
			s.Visits = append(s.Visits, v)
		}
	}
	return nil
}
