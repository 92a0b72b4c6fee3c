package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"cds/internal/app"
	"cds/internal/arch"
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
//
// Contract: an evaluator never scores a schedule below its DMA demand,
// the context cycles of all its context words plus the data cycles of
// every load and store. The one DMA channel carries every transfer, so
// any timing model that runs them meets it; sim.Run does. The RF guard
// relies on it: a candidate whose demand alone reaches the best time so
// far is dropped without being built or scored.
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
// RF on ties. A candidate whose DMA demand already reaches the fastest
// time so far cannot win, so it is never built or scored (see the
// contract on TimingEvaluator). A nil Eval keeps the paper's literal
// RF-max policy.
type DataScheduler struct {
	// Eval, when non-nil, guards the RF choice with a timing model. It
	// scores RF-max and each lower RF its DMA demand does not rule out;
	// it must never return less than a schedule's DMA demand.
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
	return schedule(ctx, "ds", pa, part, d.opts())
}

func (d DataScheduler) opts() scheduleOpts {
	return scheduleOpts{
		rfEnabled:      true,
		inPlaceRelease: true,
		retention:      false,
		evaluate:       d.Eval,
	}
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
	// Eval, when non-nil, guards the RF choice with a timing model —
	// see the note on DataScheduler. As there, it scores only the
	// candidates their DMA demand does not rule out, and must never
	// return less than a schedule's DMA demand.
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
	return schedule(ctx, "cds", pa, part, c.opts())
}

func (c CompleteDataScheduler) opts() scheduleOpts {
	ranking := c.Ranking
	if ranking == nil {
		ranking = RankTF
	}
	return scheduleOpts{
		rfEnabled:      true,
		inPlaceRelease: true,
		retention:      true,
		ranking:        ranking,
		crossSet:       c.CrossSetReuse,
		evaluate:       c.Eval,
	}
}

// DMACost is the TimingEvaluator that scores a schedule by its DMA
// channel demand in cycles: the context cycles of all its context words
// plus the data cycles of every load and store. The one channel carries
// every transfer, so no timing model runs the schedule faster. As the
// Eval of a CompleteDataScheduler it picks the RF, and the retention
// selected at that RF, with the least DMA traffic (the common-RF
// ablation); it never fails.
func DMACost(s *Schedule) (int, error) {
	data := s.Sum(func(v *Visit) int { return dataCycles(s.Arch, v.Loads) + dataCycles(s.Arch, v.Stores) })
	return s.Arch.ContextCycles(s.TotalCtxWords()) + data, nil
}

// dataCycles returns the DMA cycles of the movements, each one transfer.
func dataCycles(p arch.Params, moves []Movement) int {
	n := 0
	for _, m := range moves {
		n += p.DataCycles(m.Bytes)
	}
	return n
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
	ranking  RankFunc
	// evaluate, when non-nil, guards the RF choice with a timing model
	// (see DataScheduler.Eval).
	evaluate TimingEvaluator
}

// schedule is the shared pipeline: analyze, check feasibility, pick RF,
// pick retention, and emit the visit sequence with exact transfer volumes.
func schedule(ctx context.Context, name string, pa arch.Params, part *app.Partition, opts scheduleOpts) (*Schedule, error) {
	p, rf, err := plan(ctx, name, pa, part, opts)
	if err != nil {
		return nil, err
	}
	c := p.candidate(rf)
	s, err := p.build(&c)
	if err != nil {
		return nil, err
	}
	if opts.evaluate == nil || rf <= 1 {
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
		if err := scherr.FromContext(ctx); err != nil {
			return nil, fmt.Errorf("core: %s scheduler: rf guard: %w", name, err)
		}
		if !p.feasible(r) {
			continue // footprint holes are possible below the common RF
		}
		c := p.candidate(r)
		// An evaluator never scores a schedule below its DMA demand
		// (TimingEvaluator), so a candidate whose demand alone reaches
		// best cannot win: it is neither built nor scored.
		demand, err := p.demand(&c)
		if err != nil {
			return nil, err
		}
		if demand >= best {
			continue
		}
		cand, err := p.build(&c)
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

// planner holds what every reuse-factor candidate of one schedule call
// shares: the analysis, the options and one Context Memory, which each
// transfer walk replays from empty.
type planner struct {
	name    string
	pa      arch.Params
	part    *app.Partition
	info    *extract.Info
	opts    scheduleOpts
	groupOf []int32
	cm      *arch.ContextMemory
	// cmAt holds the Context Memory state at the start of the previous
	// and the current block (arch.ContextMemory.AppendResident), on
	// cmBuf, storage inside the planner, for the common small states.
	cmAt  [2][]int
	cmBuf [2][16]int
}

// plan validates the inputs, analyzes the partition, checks that one
// iteration fits and returns the planner with the highest feasible RF.
func plan(ctx context.Context, name string, pa arch.Params, part *app.Partition, opts scheduleOpts) (*planner, int, error) {
	if err := scherr.FromContext(ctx); err != nil {
		return nil, 0, fmt.Errorf("core: %s scheduler: %w", name, err)
	}
	if err := pa.Validate(); err != nil {
		return nil, 0, err
	}
	if err := part.Validate(); err != nil {
		return nil, 0, err
	}
	// The analysis depends only on (partition, cross-set flag), so all
	// three schedulers, every RF guard candidate and every FB-sweep point
	// share one memoized Info; it is immutable from here on.
	info := extract.AnalyzeCached(part, extract.Opts{CrossSetReuse: opts.crossSet})
	if len(info.Clusters) > 0 && info.Walk(0) == nil {
		// The transfer walk reads the analysis' compiled walks, over
		// interned datum IDs.
		return nil, 0, fmt.Errorf("core: %s scheduler: app %q: not finalized (build it with app.Builder or call Finalize)",
			name, part.App.Name)
	}

	// Feasibility at RF=1 with no retention is the baseline requirement.
	if ok, ierr := feasibleRF(pa.FBSetBytes, info, 1, opts.inPlaceRelease, nil); !ok {
		ierr.Scheduler = name
		return nil, 0, ierr
	}

	rf := 1
	if opts.rfEnabled {
		rf = CommonRF(pa.FBSetBytes, info, opts.inPlaceRelease, nil)
	}
	groupOf, groups := info.P.App.CtxGroups()
	cm := arch.NewContextMemory(pa.CMWords, len(groups), func(g int) string { return groups[g] })
	pl := &planner{name: name, pa: pa, part: part, info: info, opts: opts, groupOf: groupOf, cm: cm}
	pl.cmAt = [2][]int{pl.cmBuf[0][:0], pl.cmBuf[1][:0]}
	return pl, rf, nil
}

// feasible reports whether rf iterations of every cluster fit without
// retention.
func (p *planner) feasible(rf int) bool {
	ok, _ := feasibleRF(p.pa.FBSetBytes, p.info, rf, p.opts.inPlaceRelease, nil)
	return ok
}

// candidate is one reuse factor's schedule before its visits exist: the
// retention selected at that RF and the state of its transfer walk,
// which the DMA demand and the build share.
type candidate struct {
	rf       int
	retained []Retained
	rl       retainedLookups
	// iterations is the application's (see numBlocks).
	iterations int
}

// candidate selects the retention at rf and prepares its transfer walk.
func (p *planner) candidate(rf int) candidate {
	var retained []Retained
	if p.opts.retention {
		retained = selectRetention(p.pa.FBSetBytes, p.info, rf, p.opts.ranking)
	}
	return candidate{rf: rf, retained: retained, rl: buildRetainedLookups(retained, p.info),
		iterations: p.info.P.App.Iterations}
}

// build makes the candidate's schedule.
func (p *planner) build(c *candidate) (*Schedule, error) {
	s := &Schedule{
		Scheduler:      p.name,
		Arch:           p.pa,
		P:              p.part,
		Info:           p.info,
		RF:             c.rf,
		Retained:       c.retained,
		InPlaceRelease: p.opts.inPlaceRelease,
	}
	if _, err := p.walk(c, s); err != nil {
		return nil, fmt.Errorf("core: %s scheduler: %w", p.name, err)
	}
	return s, nil
}

// demand returns the DMA demand (DMACost) of the schedule build would
// make, without making it.
func (p *planner) demand(c *candidate) (int, error) {
	cost, err := p.walk(c, nil)
	if err != nil {
		return 0, fmt.Errorf("core: %s scheduler: %w", p.name, err)
	}
	return cost, nil
}

// retKey scopes a retained object, by datum ID, to its FB set: the same
// datum can be independently shared (and retained) on both sets.
type retKey struct {
	id  int32
	set int
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
	if len(retained) == 0 {
		return retainedLookups{} // nil maps: nothing is resident, every store runs
	}
	rl := retainedLookups{
		loaderCluster: map[retKey]int{},
		skipStore:     map[retKey]bool{},
	}
	for _, r := range retained {
		id := int32(info.P.App.DatumID(r.Name))
		loader := r.From
		if r.Kind == RetainedResult {
			loader = -1
		}
		rl.loaderCluster[retKey{id, r.Set}] = loader
		if r.CrossSet {
			// Cross-set retention takes effect for consumers on
			// every FB set in use.
			for _, c := range info.P.Clusters {
				rl.loaderCluster[retKey{id, c.Set}] = loader
			}
		}
		if r.Kind == RetainedResult && storeAvoidable(info, r) {
			rl.skipStore[retKey{id, r.Set}] = true
		}
	}
	return rl
}

// storeAvoidable reports whether retained result r's external store can
// be skipped: its shared result on r's set is neither final nor consumed
// on another set.
func storeAvoidable(info *extract.Info, r Retained) bool {
	for i := len(info.SharedResults) - 1; i >= 0; i-- {
		if sr := info.SharedResults[i]; sr.Name == r.Name && sr.Set == r.Set {
			return sr.StoreAvoidable()
		}
	}
	return false
}

// carve returns the elements appended since mark as a slice whose
// capacity ends at its length, so appending to it never overwrites the
// next list, and the new mark. No elements give a nil list.
func carve[T any](xs []T, mark int) ([]T, int) {
	if len(xs) == mark {
		return nil, mark
	}
	return xs[mark:len(xs):len(xs)], len(xs)
}

// appendScaled appends list, movements of from iterations' data, scaled
// to to iterations.
func appendScaled(moves, list []Movement, from, to int) []Movement {
	for _, m := range list {
		moves = append(moves, Movement{Datum: m.Datum, Bytes: m.Bytes / from * to})
	}
	return moves
}

// walk is the one (block, cluster) walk over a candidate's transfers. It
// returns their DMA demand, which is DMACost of the schedule they make:
// the context cycles of every word the Context Memory replay loads plus
// the data cycles of every load and store. With s non-nil it also fills
// s's period (see Period), one visit per (block, cluster) walked, in
// execution order. With s nil it is the summary form: it builds no visit
// and allocates nothing.
//
// A block's transfers depend only on its iteration count and the
// Context Memory state it starts from. So once a block runs as many
// iterations as the one before it from the same state, the earlier block
// is steady: it and every following block of that many iterations are
// the same visits, and leave the Context Memory as they found it. The
// walk counts them instead of walking them and goes on with the trailing
// blocks. The Basic Scheduler resets the Context Memory at every visit,
// so its block state never matters.
//
// The replay can only fail on a broken Context Memory invariant
// (scherr.ErrInternal); the expected arch.ErrDoesNotFit outcome for a
// kernel bigger than the whole CM is absorbed as a full reload per visit.
func (p *planner) walk(c *candidate, s *Schedule) (int, error) {
	a := p.info.P.App
	record := s != nil
	nc := len(p.info.Clusters)
	var moves []Movement
	var per Period
	if record {
		// Every visit's Loads, Stores and CtxLoads are carved from one
		// backing array, sized by the per-block bound: a cluster loads
		// at most its external inputs (Basic: each kernel's inputs),
		// stores at most its persistent results and loads contexts at
		// most once per kernel. A period mostly stores block 0, the
		// steady block and the tail block; the Basic Scheduler's
		// block 0 is already steady.
		perBlock := 0
		for _, ci := range p.info.Clusters {
			if p.opts.perKernelLoads {
				for _, ki := range ci.Cluster.Kernels {
					perBlock += len(a.Kernels[ki].Inputs)
				}
			} else {
				perBlock += len(ci.ExternalIn)
			}
			perBlock += len(ci.PersistentOut) + len(ci.Cluster.Kernels)
		}
		nb := 2
		if p.opts.perKernelLoads {
			nb = 1
		}
		if c.iterations%c.rf != 0 {
			nb++
		}
		nb = min(nb, numBlocks(c.iterations, c.rf))
		moves = make([]Movement, 0, nb*perBlock)
		per.Visits = make([]Visit, 0, nb*nc)
	}
	p.cm.Reset()
	p.cmAt[0] = p.cmAt[0][:0]

	ctxWords, data, block0 := 0, 0, 0
	// blockCtx and blockData are the previous block's context words and
	// data cycles.
	blockCtx, blockData := 0, 0
	iters0 := blockIters(c.iterations, c.rf, 0)
	for b, nb := 0, numBlocks(c.iterations, c.rf); b < nb; b++ {
		iters := blockIters(c.iterations, c.rf, b)
		if b > 0 && per.Len == 0 {
			same := p.opts.perKernelLoads
			if !same {
				p.cmAt[1] = p.cm.AppendResident(p.cmAt[1][:0])
				same = slices.Equal(p.cmAt[0], p.cmAt[1])
				p.cmAt[0], p.cmAt[1] = p.cmAt[1], p.cmAt[0]
			}
			if same && iters == blockIters(c.iterations, c.rf, b-1) {
				// Block b-1 is steady: it runs once more for b and
				// for every following block of as many iterations,
				// the full blocks up to the tail.
				n := c.iterations/c.rf - b
				ctxWords += n * blockCtx
				data += n * blockData
				per.Lead, per.Len, per.Repeat = (b-1)*nc, nc, n+1
				b += n - 1
				continue
			}
		}
		blockCtx, blockData = 0, 0
		// A cluster's data loads and stores depend only on the cluster
		// and the retention, not on the block. So a later block moves
		// block 0's data scaled to its own iteration count, and one of
		// as many iterations as block 0 costs block 0's data cycles.
		repeat := b > 0 && iters == iters0
		if repeat {
			blockData = block0
		}
		for i := range p.info.Clusters {
			ci := &p.info.Clusters[i]
			cl := ci.Cluster
			v := Visit{
				Cluster: cl.Index,
				Set:     cl.Set,
				Block:   b,
				Iters:   iters,
			}
			mark := len(moves)
			switch {
			case record && b > 0:
				// Block 0's visit per.Visits[i], scaled.
				moves = appendScaled(moves, per.Visits[i].Loads, iters0, iters)
				v.Loads, mark = carve(moves, mark)
				moves = appendScaled(moves, per.Visits[i].Stores, iters0, iters)
				v.Stores, mark = carve(moves, mark)
				if !repeat {
					blockData += dataCycles(p.pa, v.Loads) + dataCycles(p.pa, v.Stores)
				}
			case !repeat:
				var loads, stores int
				moves, loads = p.loads(moves, c, i, iters, record)
				v.Loads, mark = carve(moves, mark)
				moves, stores = p.stores(moves, c, i, iters, record)
				v.Stores, mark = carve(moves, mark)
				blockData += loads + stores
			}
			// Context loads: once per visit per context group at
			// most, fewer if the group survived in the CM. The Basic
			// Scheduler (perKernelLoads) is the DATE'99 baseline with
			// NO context reuse across cluster iterations: the CM is
			// reset at every visit boundary so each visit recharges
			// its full context volume even when the groups would
			// still be resident — pinning its traffic to
			// iterations x sum(ContextWords) (per-visit group sharing
			// from intra-kernel tiling still deduplicates).
			if p.opts.perKernelLoads {
				p.cm.Reset()
			}
			for _, ki := range cl.Kernels {
				k := &a.Kernels[ki]
				moved, err := p.cm.Load(int(p.groupOf[ki]), k.ContextWords)
				if err != nil {
					if !errors.Is(err, arch.ErrDoesNotFit) {
						// Anything but the expected
						// too-big-for-the-CM outcome means the
						// replay state itself broke; surface it
						// instead of mis-charging traffic.
						return 0, fmt.Errorf("core: context memory replay (cluster %d block %d): %w",
							cl.Index, b, err)
					}
					// A kernel whose contexts exceed the whole
					// CM reloads in pieces every visit; charge
					// the full volume.
					moved = k.ContextWords
				}
				if moved > 0 && record {
					moves = append(moves, Movement{Datum: k.CtxGroup(), Bytes: moved})
				}
				blockCtx += moved
				v.CtxWords += moved
				v.ComputeCycles += iters * k.ComputeCycles
			}
			if record {
				v.CtxLoads, _ = carve(moves, mark)
				per.Visits = append(per.Visits, v)
			}
		}
		if b == 0 {
			block0 = blockData
		}
		ctxWords += blockCtx
		data += blockData
	}
	if record {
		s.period = per
	}
	return p.pa.ContextCycles(ctxWords) + data, nil
}

// transfer charges one data movement of datum id: its DMA cycles, and
// the movement itself when record.
func (p *planner) transfer(moves []Movement, cycles int, record bool, id int32, iters int) ([]Movement, int) {
	a := p.info.P.App
	bytes := iters * a.SizeByID(id)
	if record {
		moves = append(moves, Movement{Datum: a.DatumName(id), Bytes: bytes})
	}
	return moves, cycles + p.pa.DataCycles(bytes)
}

// loads charges the data loads of one visit of cluster ci for iters
// iterations under the candidate's retention.
func (p *planner) loads(moves []Movement, c *candidate, ci int, iters int, record bool) ([]Movement, int) {
	a := p.info.P.App
	cl := p.info.Clusters[ci].Cluster
	cycles := 0
	if p.opts.perKernelLoads {
		// Basic Scheduler: each kernel transfers its own copy of its
		// cluster-external inputs. Streamed inputs are the exception
		// even here: a streamed datum arrives just in time for its
		// first consumer and stays placed for the rest of the visit,
		// so a second consumer reads the resident copy rather than
		// transferring its own.
		var buf [8]int32
		streamed := buf[:0]
		for _, ki := range cl.Kernels {
			for _, id := range a.KernelInputIDs(ki) {
				if prod := a.ProducerID(id); prod >= 0 && cl.Contains(int(prod)) {
					continue // intra-cluster intermediate
				}
				if a.IsStreamedID(id) {
					if slices.Contains(streamed, id) {
						continue
					}
					streamed = append(streamed, id)
				}
				moves, cycles = p.transfer(moves, cycles, record, id, iters)
			}
		}
		return moves, cycles
	}
	for _, id := range p.info.Walk(ci).External {
		if loader, ok := c.rl.loaderCluster[retKey{id, cl.Set}]; ok && loader != cl.Index {
			continue // resident: retained by an earlier cluster or kept since production
		}
		moves, cycles = p.transfer(moves, cycles, record, id, iters)
	}
	return moves, cycles
}

// stores charges the result stores of one visit of cluster ci for iters
// iterations under the candidate's retention.
func (p *planner) stores(moves []Movement, c *candidate, ci int, iters int, record bool) ([]Movement, int) {
	cycles := 0
	set := p.info.Clusters[ci].Cluster.Set
	for _, id := range p.info.Walk(ci).Persistent {
		if c.rl.skipStore[retKey{id, set}] {
			continue
		}
		moves, cycles = p.transfer(moves, cycles, record, id, iters)
	}
	return moves, cycles
}
