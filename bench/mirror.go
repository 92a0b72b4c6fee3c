package main

// The traced comparison. cds.CompareAllCtx runs three schedulers behind
// one call, so a benchmark timing it from outside sees one number. The
// mirror below replays the facade's pipeline step by step through the
// same public functions — conc.ForEach over the schedulers, each
// ScheduleCtx -> core.Allocate -> sim.Run, with the simulator wired in as
// the RF timing evaluator — and opens a span around each call. Every
// traced run checks that the mirror reproduces the facade's cycles, RF,
// DT and errors exactly; if the facade changes shape, that check fails
// rather than the mirror silently measuring something else.

import (
	"context"
	"fmt"

	"cds"
	"cds/internal/conc"
	"cds/internal/core"
	"cds/internal/extract"
	"cds/internal/scherr"
	"cds/internal/sim"
)

// kinds is the facade's fan-out order.
var kinds = []cds.SchedulerKind{cds.DS, cds.CDS, cds.Basic}

// outcome is everything a comparison reports that a correct answer must
// reproduce: per-scheduler cycles and errors, RF, DT and the Figure 6
// improvements. It is also what a /v1/compare answer carries.
type outcome struct {
	Basic    int     `json:"basic"`
	DS       int     `json:"ds"`
	CDS      int     `json:"cds"`
	RF       int     `json:"rf"`
	DT       int     `json:"dt"`
	ImpDS    float64 `json:"imp_ds"`
	ImpCDS   float64 `json:"imp_cds"`
	BasicErr string  `json:"basic_err,omitempty"`
	DSErr    string  `json:"ds_err,omitempty"`
	CDSErr   string  `json:"cds_err,omitempty"`
}

func outcomeOf(cmp *cds.Comparison) outcome {
	o := outcome{RF: cmp.RF, DT: cmp.DTBytes, ImpDS: cmp.ImprovementDS, ImpCDS: cmp.ImprovementCDS}
	cycles := func(r *cds.Result) int {
		if r == nil || r.Timing == nil {
			return 0
		}
		return r.Timing.TotalCycles
	}
	msg := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	o.Basic, o.DS, o.CDS = cycles(cmp.Basic), cycles(cmp.DS), cycles(cmp.CDS)
	o.BasicErr, o.DSErr, o.CDSErr = msg(cmp.BasicErr), msg(cmp.DSErr), msg(cmp.CDSErr)
	return o
}

// longName is the facade's scheduler name in wrapped errors.
func longName(k cds.SchedulerKind) string {
	switch k {
	case cds.DS:
		return "data"
	case cds.CDS:
		return "complete data"
	}
	return k.String()
}

// mirrorScheduler returns the scheduler the facade uses for kind, with a
// timing evaluator that records a sim.eval span under parent.
func mirrorScheduler(kind cds.SchedulerKind, rec *recorder, op, parent int64) core.Scheduler {
	eval := func(s *core.Schedule) (int, error) {
		sp := rec.start(op, parent, "sim.eval")
		res, err := sim.Run(s)
		rec.end(sp)
		if err != nil {
			return 0, err
		}
		return res.TotalCycles, nil
	}
	switch kind {
	case cds.DS:
		return core.DataScheduler{Eval: eval}
	case cds.CDS:
		return core.CompleteDataScheduler{Eval: eval}
	}
	return core.Basic{}
}

// mirrorCompare is cds.CompareAllCtx without the result cache, with a
// span around every layer call. parent is the operation's root span.
func mirrorCompare(ctx context.Context, rec *recorder, op, parent int64, pa cds.Arch, part *cds.Part) (*cds.Comparison, error) {
	// The schedulers look the analysis up themselves; looking it up first,
	// under a span, charges its cost (or its cache hit) to extract.
	sp := rec.start(op, parent, "extract.analyze")
	extract.AnalyzeCached(part, extract.Opts{})
	rec.end(sp)

	results := make([]*cds.Result, len(kinds))
	errs := make([]error, len(kinds))
	ferr := conc.ForEach(ctx, conc.DefaultLimit(), len(kinds), func(i int) error {
		errs[i] = conc.Safe(func() error {
			r, err := mirrorRun(ctx, rec, op, parent, kinds[i], pa, part)
			results[i] = r
			return err
		})
		return nil
	})
	cmp := &cds.Comparison{}
	if ferr != nil {
		return cmp, ferr
	}
	cmp.DS, cmp.CDS, cmp.Basic = results[0], results[1], results[2]
	for i, err := range errs {
		if err == nil {
			continue
		}
		switch kinds[i] {
		case cds.DS:
			cmp.DSErr = fmt.Errorf("cds: %s scheduler: %w", longName(kinds[i]), err)
		case cds.CDS:
			cmp.CDSErr = fmt.Errorf("cds: %s scheduler: %w", longName(kinds[i]), err)
		case cds.Basic:
			cmp.BasicErr = err
		}
	}
	if cmp.CDS != nil {
		cmp.RF = cmp.CDS.Schedule.RF
		cmp.DTBytes = cmp.CDS.Schedule.AvoidedBytesPerIter()
	}
	if cmp.BasicErr != nil {
		cmp.ImprovementDS, cmp.ImprovementCDS = 100, 100
	} else if cmp.Basic != nil {
		if cmp.DS != nil {
			cmp.ImprovementDS = sim.Improvement(cmp.Basic.Timing, cmp.DS.Timing)
		}
		if cmp.CDS != nil {
			cmp.ImprovementCDS = sim.Improvement(cmp.Basic.Timing, cmp.CDS.Timing)
		}
	}
	if cmp.DSErr != nil {
		return cmp, cmp.DSErr
	}
	if cmp.CDSErr != nil {
		return cmp, cmp.CDSErr
	}
	return cmp, nil
}

// mirrorRun is cds.RunCtx for one scheduler, traced.
func mirrorRun(ctx context.Context, rec *recorder, op, parent int64, kind cds.SchedulerKind, pa cds.Arch, part *cds.Part) (*cds.Result, error) {
	sp := rec.start(op, parent, "core.schedule."+kind.String())
	s, err := mirrorScheduler(kind, rec, op, sp.id).ScheduleCtx(ctx, pa, part)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	if err := scherr.FromContext(ctx); err != nil {
		return nil, err
	}
	sp = rec.start(op, parent, "core.allocate")
	alloc, err := core.Allocate(s, true)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.start(op, parent, "sim.run")
	timing, err := sim.Run(s)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	return &cds.Result{Schedule: s, Timing: timing, Allocation: alloc}, nil
}
