package main

// verified-corpus: the differential-fuzzing traffic. Operations mix
// 4:1:1 across three kinds, each a distinct corpus point, in an order the
// seed sets:
//
//   - a workloads.GenSpec point: spec.Build, then cds.CompareAllCtx, then
//     verify.Schedule on all three schedules;
//   - a workloads.GenArrivals log: stream.Split, Planner.Plan, a replan
//     after the tail segment changes, verify.Stream and Plan.Run with and
//     without context prefetch;
//   - a workloads.GenTenantMix mix: tenant.Schedule, then verify.Fairness.
//
// verify, extract and spec do most of the work here, and all three sim
// walks (static, streaming, multi-tenant) run.
//
// The result cache is off. Every key is new, so with it on each
// comparison would only miss and insert: the untraced run would pay for
// hashing the key and for holding the cache's full comparisons (hundreds
// of MiB for the collector to mark) while the traced mirror, which
// bypasses the cache, paid for neither, and the two runs would measure
// different work.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"

	"cds"
	"cds/internal/scherr"
	"cds/internal/spec"
	"cds/internal/stream"
	"cds/internal/tenant"
	"cds/internal/verify"
	"cds/internal/workloads"
)

// digestOps is how many leading operations the verdict digest covers.
const digestOps = 240

// corpusPerSecond sizes the run's fixed work: operations per second of
// the run's length on the reference host.
const corpusPerSecond = 215

// corpusSeed is the generator seed of the corpus points verified-corpus
// and tenants-miss send. Every run sends the same points and its own seed
// sets their order (see shuffler). With points drawn from the run's seed,
// their sizes set the run's cost: over ten seeds allocs_per_op spread by
// 1.0 to 1.6% and the timings by twice what one seed's repeats showed.
const corpusSeed = 1

// corpusWindow is the shuffler window of verified-corpus: eight rounds of
// the 4:1:1 mix, so every window holds the mix exactly.
const corpusWindow = 48

// corpusInput is one operation's input.
type corpusInput struct {
	kind  string
	index int
	spec  *spec.Spec
	arr   *workloads.ArrivalStream
	mix   *workloads.TenantMix
}

// corpusPoint generates corpus operation p: four spec points, then one
// arrival log, then one tenant mix, repeating.
func corpusPoint(p int) corpusInput {
	round, j := p/6, p%6
	switch {
	case j < 4:
		idx := round*4 + j
		return corpusInput{kind: "spec", index: idx, spec: workloads.GenSpec(corpusSeed, idx)}
	case j == 4:
		return corpusInput{kind: "arrivals", index: round, arr: workloads.GenArrivals(corpusSeed, round)}
	}
	return corpusInput{kind: "tenants", index: round, mix: workloads.GenTenantMix(corpusSeed, round)}
}

// shuffler maps positions in a run to items of a fixed set, in an order
// the seed draws. Positions are taken in windows of window items and each
// window's items are shuffled, so a position maps to the same item
// whatever the run's length and a run of whole windows visits the items
// 0..n-1. It is not safe for concurrent use.
type shuffler struct {
	seed   int64
	window int
	perms  map[int][]int
}

func newShuffler(seed int64, window int) *shuffler {
	return &shuffler{seed: seed, window: window, perms: map[int][]int{}}
}

// at returns the item at position i.
func (s *shuffler) at(i int) int {
	w, k := i/s.window, i%s.window
	p, ok := s.perms[w]
	if !ok {
		p = rand.New(rand.NewSource(s.seed*0x9e3779b9 + int64(w))).Perm(s.window)
		s.perms[w] = p
	}
	return w*s.window + p[k]
}

// corpusRecord is one operation's verdict: "ok", "infeasible" (an
// expected corpus outcome) or a failure signature.
type corpusRecord struct {
	Kind    string
	Index   int
	Verdict string
	Cycles  [3]int
	RF      int
}

func (c corpusRecord) ok() bool { return c.Verdict == "ok" || c.Verdict == "infeasible" }

// corpus runs the operations, traced or not.
type corpus struct {
	r        *run
	ctx      context.Context
	order    *shuffler
	inputs   []corpusInput
	reused   int
	replans  int
	outcomes map[int]outcome // traced spec operations' comparisons, for the mirror check
}

func newCorpus(r *run, seed int64) *corpus {
	return &corpus{r: r, ctx: context.Background(), order: newShuffler(seed, corpusWindow), outcomes: map[int]outcome{}}
}

// input is the input of the run's operation i.
func (c *corpus) input(i int) corpusInput {
	if i < len(c.inputs) {
		return c.inputs[i]
	}
	return corpusPoint(c.order.at(i))
}

func (c *corpus) op(i int) corpusRecord {
	in := c.input(i)
	rec := corpusRecord{Kind: in.kind, Index: in.index}
	var verdict string
	switch in.kind {
	case "spec":
		verdict = c.specOp(int64(i), in.spec, &rec)
	case "arrivals":
		verdict = c.arrivalsOp(int64(i), in.arr, &rec)
	default:
		verdict = c.tenantsOp(int64(i), in.mix, &rec)
	}
	rec.Verdict = verdict
	return rec
}

func (c *corpus) specOp(op int64, sp *spec.Spec, rec *corpusRecord) string {
	t := c.r.rec
	o := t.start(op, 0, "spec.build")
	part, pa, err := sp.Build()
	t.end(o)
	if err != nil {
		return "invalid-spec"
	}
	var cmp *cds.Comparison
	root := t.start(op, 0, "cds.compare")
	if t == nil {
		cmp, _ = cds.CompareAllCtx(c.ctx, pa, part)
	} else {
		cmp, _ = mirrorCompare(c.ctx, t, op, root.id, pa, part)
		if int(op) < digestOps {
			c.outcomes[int(op)] = outcomeOf(cmp)
		}
	}
	t.end(root)
	if cmp == nil {
		return "canceled"
	}
	out := outcomeOf(cmp)
	rec.Cycles, rec.RF = [3]int{out.Basic, out.DS, out.CDS}, out.RF
	if v := judge(cmp); v != "" {
		return v
	}
	for _, res := range []*cds.Result{cmp.Basic, cmp.DS, cmp.CDS} {
		if res == nil {
			continue
		}
		o := t.start(op, 0, "verify.schedule")
		err := verify.Schedule(res.Schedule)
		t.end(o)
		if err != nil {
			return "verify:" + res.Schedule.Scheduler
		}
	}
	return "ok"
}

// judge classifies a comparison the way the differential fuzzer does:
// "" when every produced schedule still needs verifying, "infeasible"
// when no scheduler could run the point, or a failure signature.
func judge(cmp *cds.Comparison) string {
	infeasible := func(err error) bool { return errors.Is(err, scherr.ErrInfeasible) }
	switch {
	case cmp.BasicErr != nil && !infeasible(cmp.BasicErr):
		return "error:basic"
	case cmp.DSErr != nil && !infeasible(cmp.DSErr):
		return "error:ds"
	case cmp.CDSErr != nil && !infeasible(cmp.CDSErr):
		return "error:cds"
	case (cmp.DSErr == nil) != (cmp.CDSErr == nil):
		return "feasibility:ds-vs-cds"
	case cmp.DSErr != nil && cmp.Basic != nil:
		return "feasibility:basic-only"
	case cmp.DSErr != nil:
		return "infeasible"
	case cmp.Basic != nil && cmp.DS.Timing.TotalCycles > cmp.Basic.Timing.TotalCycles:
		return "dominance:ds>basic"
	case cmp.CDS.Timing.TotalCycles > cmp.DS.Timing.TotalCycles:
		return "dominance:cds>ds"
	}
	return ""
}

func (c *corpus) arrivalsOp(op int64, a *workloads.ArrivalStream, rec *corpusRecord) string {
	t := c.r.rec
	lg, err := stream.Split(a.Spec, a.SegClusters, a.ArriveAt)
	if err != nil {
		return "invalid-spec"
	}
	pl := stream.NewPlanner(0)
	o := t.start(op, 0, "stream.plan")
	plan, err := pl.Plan(c.ctx, lg)
	t.end(o)
	if err != nil {
		if errors.Is(err, scherr.ErrInfeasible) {
			return "infeasible"
		}
		return "error:stream"
	}
	c.reused += plan.Reused
	c.replans += plan.Replanned
	o = t.start(op, 0, "stream.plan")
	plan, err = pl.Plan(c.ctx, tailMutated(lg))
	t.end(o)
	if err != nil {
		return "error:stream-replan"
	}
	c.reused += plan.Reused
	c.replans += plan.Replanned
	if plan.Replanned != 1 || plan.Reused != len(lg.Segments)-1 {
		return "stream:memo-miss"
	}
	var cycles [2]int
	for i, prefetch := range []bool{false, true} {
		o := t.start(op, 0, "verify.stream")
		err := verify.Stream(plan.Schedule, plan.Opts(prefetch))
		t.end(o)
		if err != nil {
			return "verify:stream"
		}
		o = t.start(op, 0, "sim.run_stream")
		res, err := plan.Run(prefetch)
		t.end(o)
		if err != nil {
			return "error:stream-run"
		}
		cycles[i] = res.TotalCycles
	}
	rec.Cycles = [3]int{cycles[0], cycles[1], 0}
	if cycles[1] > cycles[0] {
		return "stream:prefetch-regression"
	}
	return "ok"
}

// tailMutated returns a copy of the log whose last segment's first kernel
// computes one cycle longer: the replan must reuse every other segment.
func tailMutated(lg *stream.Log) *stream.Log {
	cp := *lg
	cp.Segments = append([]stream.Segment(nil), lg.Segments...)
	tail := &cp.Segments[len(cp.Segments)-1]
	tail.Kernels = append([]spec.Kernel(nil), tail.Kernels...)
	tail.Kernels[0].ComputeCycles++
	return &cp
}

func (c *corpus) tenantsOp(op int64, mix *workloads.TenantMix, rec *corpusRecord) string {
	t := c.r.rec
	tenants := make([]tenant.Tenant, len(mix.Tenants))
	for i, ts := range mix.Tenants {
		o := t.start(op, 0, "spec.build")
		part, _, err := ts.Spec.Build()
		t.end(o)
		if err != nil {
			return "invalid-spec"
		}
		tenants[i] = tenant.Tenant{
			ID: ts.ID, Weight: ts.Weight, Priority: ts.Priority, Arrive: ts.Arrive,
			Quota: tenant.Quota{FBBytes: ts.Spec.Arch.FBSetBytes, CMWords: ts.Spec.Arch.CMWords},
			Part:  part,
		}
	}
	o := t.start(op, 0, "tenant.schedule")
	plan, err := tenant.Schedule(c.ctx, mix.Base, tenants)
	t.end(o)
	if err != nil {
		if errors.Is(err, scherr.ErrInfeasible) {
			return "infeasible"
		}
		return "error:tenant"
	}
	rec.Cycles[0] = plan.Exec.TotalCycles
	if plan.MaxLag > plan.LagBound() {
		return "tenant:lag"
	}
	o = t.start(op, 0, "verify.fairness")
	err = verify.Fairness(mix.Base, plan.VerifyLanes(), plan.Order)
	t.end(o)
	if err != nil {
		return "tenant:fairness"
	}
	return "ok"
}

func runCorpus(r *run) error {
	defer cds.SetResultCaching(cds.SetResultCaching(false))
	c := newCorpus(r, r.cfg.seed)
	n := (r.ops(corpusPerSecond) + corpusWindow - 1) / corpusWindow * corpusWindow
	inputs, _, err := setup(r, func() ([]corpusInput, func(), error) {
		order := newShuffler(r.cfg.seed, corpusWindow)
		in := make([]corpusInput, n)
		for i := range in {
			in[i] = corpusPoint(order.at(i))
		}
		return in, nil, nil
	})
	if err != nil {
		return err
	}
	c.inputs = inputs

	analysis := markExtract()
	var records []corpusRecord
	r.closedLoop(n, func(i int) error {
		rec := c.op(i)
		records = append(records, rec)
		if !rec.ok() {
			return fmt.Errorf("%s %d: %s", rec.Kind, rec.Index, rec.Verdict)
		}
		return nil
	})
	if r.rec != nil {
		r.layersFromSpans()
		r.layers["extract.cache_hit_ratio"] = analysis.hitRatio()
		r.layers["stream.reuse_ratio"] = ratio(int64(c.reused), int64(c.reused+c.replans))
	}

	// The digest covers the leading operations; finish them untimed when
	// the run was too short to reach them all.
	for i := len(records); i < digestOps; i++ {
		rec := c.op(i)
		if !rec.ok() {
			r.fail("%s %d: %s", rec.Kind, rec.Index, rec.Verdict)
		}
		records = append(records, rec)
	}
	sum := corpusDigest(records[:digestOps])
	if g, err := loadGolden(); err != nil {
		r.fail("golden: %v", err)
	} else if want, ok := g.Corpus[fmt.Sprint(r.cfg.seed)]; ok && want != sum {
		r.fail("verdict digest of the first %d operations is %s, golden %s", digestOps, sum, want)
	}
	if r.rec != nil {
		r.checkMirror(c)
		var specs []compareInput
		for i := 0; i < digestOps; i++ {
			if in := c.input(i); in.kind == "spec" {
				if part, pa, err := in.spec.Build(); err == nil {
					specs = append(specs, compareInput{pa, part})
				}
			}
		}
		r.attributeAllocs(c.ctx, specs)
	}
	return nil
}

// checkMirror recomputes the traced run's leading spec operations through
// the facade: the mirror must have produced the same outcomes.
func (r *run) checkMirror(c *corpus) {
	for i, got := range c.outcomes {
		part, pa, err := c.input(i).spec.Build()
		if err != nil {
			continue
		}
		cmp, _ := cds.CompareAllCtx(c.ctx, pa, part)
		if cmp == nil || outcomeOf(cmp) != got {
			r.fail("op %d: traced comparison differs from the facade's", i)
		}
	}
}

// corpusDigest hashes the verdicts and cycles of a record sequence.
func corpusDigest(records []corpusRecord) string {
	h := sha256.New()
	for _, rec := range records {
		fmt.Fprintf(h, "%s %d %s %v %d\n", rec.Kind, rec.Index, rec.Verdict, rec.Cycles, rec.RF)
	}
	return hex.EncodeToString(h.Sum(nil))
}
