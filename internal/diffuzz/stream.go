package diffuzz

// The streaming oracles. Two differential claims tie the online
// scheduler (internal/stream) to the static CDS ground truth:
//
//   - static equivalence — a fully-known-in-advance stream (one segment
//     arriving at t=0) must reproduce the static CDS schedule
//     visit-for-visit, and must be infeasible exactly when static CDS
//     is. Check runs this oracle on every corpus point alongside the
//     scheduler comparison.
//
//   - arrival soundness — over the bursty-arrival corpus
//     (workloads.GenArrivals), replanning an unchanged log with a warm
//     memo must be a pure memo walk producing byte-identical output,
//     every streamed execution must pass the prefetch invariant family,
//     and prefetch must never lose to the serialized baseline.
//     CheckArrivals/RunArrivals drive this for the nightly sweep.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"

	"cds"
	"cds/internal/conc"
	"cds/internal/scherr"
	"cds/internal/spec"
	"cds/internal/stream"
	"cds/internal/verify"
	"cds/internal/workloads"
)

// checkStream asserts the static-equivalence oracle for one corpus
// point. cdsRes is the static CDS outcome (nil when infeasible); the
// returned Result is zero-verdict when the oracle holds.
func checkStream(ctx context.Context, sp *spec.Spec, res Result, cdsRes *cds.Result) (Result, bool) {
	plan, err := stream.NewPlanner(0).Plan(ctx, stream.FromSpec(sp, 0))
	if err != nil {
		if errors.Is(err, scherr.ErrCanceled) {
			res.Verdict = VerdictCanceled
			return res, true
		}
		if cdsRes == nil && errors.Is(err, scherr.ErrInfeasible) {
			return res, false // both sides refuse the workload — consistent
		}
		if cdsRes == nil {
			return fail(res, SigStream+":error", err), true
		}
		return fail(res, SigStream+":feasibility", fmt.Errorf(
			"static CDS schedules the workload but the stream planner reports: %w", err)), true
	}
	if cdsRes == nil {
		return fail(res, SigStream+":feasibility", fmt.Errorf(
			"stream planner schedules the workload but static CDS refused it")), true
	}
	if plan.Segments[0].RF != cdsRes.Schedule.RF {
		return fail(res, SigStream+":static-diverges", fmt.Errorf(
			"stream RF %d, static CDS RF %d", plan.Segments[0].RF, cdsRes.Schedule.RF)), true
	}
	if !reflect.DeepEqual(plan.Schedule.Visits(), cdsRes.Schedule.Visits()) {
		return fail(res, SigStream+":static-diverges", fmt.Errorf(
			"single-segment stream plan differs from the static CDS schedule (%d vs %d visits)",
			plan.Schedule.NumVisits(), cdsRes.Schedule.NumVisits())), true
	}
	return res, false
}

// CheckArrivals runs the arrival-soundness oracle on scenario index of
// seed's bursty-arrival stream.
func CheckArrivals(ctx context.Context, seed int64, index int) Result {
	a := workloads.GenArrivals(seed, index)
	res := Result{Name: a.Name, Index: index, Class: "arrivals"}
	lg, err := stream.Split(a.Spec, a.SegClusters, a.ArriveAt)
	if err != nil {
		return fail(res, SigInvalidSpec, err)
	}

	pl := stream.NewPlanner(0)
	plan, err := pl.Plan(ctx, lg)
	if err != nil {
		if errors.Is(err, scherr.ErrCanceled) {
			res.Verdict = VerdictCanceled
			return res
		}
		if errors.Is(err, scherr.ErrInfeasible) {
			res.Verdict = VerdictInfeasible
			return res
		}
		return fail(res, SigStream+":error", err)
	}

	// Delta identity: replanning the unchanged log against the warm memo
	// must replan nothing and reproduce the plan byte-for-byte.
	again, err := pl.Plan(ctx, lg)
	if err != nil {
		if errors.Is(err, scherr.ErrCanceled) {
			res.Verdict = VerdictCanceled
			return res
		}
		return fail(res, SigStream+":error", err)
	}
	if again.Replanned != 0 {
		return fail(res, SigStream+":memo-miss", fmt.Errorf(
			"replanning an unchanged %d-segment log re-ran CDS for %d segments",
			len(lg.Segments), again.Replanned))
	}
	b1, err := plan.MarshalCanonical()
	if err != nil {
		return fail(res, SigStream+":error", err)
	}
	b2, err := again.MarshalCanonical()
	if err != nil {
		return fail(res, SigStream+":error", err)
	}
	if !bytes.Equal(b1, b2) {
		return fail(res, SigStream+":delta-diverges", errors.New(
			"warm-memo replan of an unchanged log is not byte-identical"))
	}

	// Every streamed execution verifies, and prefetch never loses.
	for _, prefetch := range []bool{false, true} {
		if err := verify.Stream(plan.Schedule, plan.Opts(prefetch)); err != nil {
			sig := SigVerify + ":stream"
			var verr *verify.Error
			if errors.As(err, &verr) {
				sig = SigVerify + ":stream:" + verr.Invariant
			}
			return fail(res, sig, err)
		}
	}
	serial, err := plan.Run(false)
	if err != nil {
		return fail(res, SigStream+":error", err)
	}
	pre, err := plan.Run(true)
	if err != nil {
		return fail(res, SigStream+":error", err)
	}
	if pre.TotalCycles > serial.TotalCycles {
		return fail(res, SigStream+":prefetch-regression", fmt.Errorf(
			"prefetch makespan %d exceeds the serialized baseline %d",
			pre.TotalCycles, serial.TotalCycles))
	}
	res.CDSCycles = pre.TotalCycles
	res.DSCycles = serial.TotalCycles
	res.Verdict = VerdictOK
	return res
}

// RunArrivals checks arrival scenarios [0, cfg.N) of cfg.Seed's stream
// across a bounded worker pool, mirroring Run's result-ordering
// contract. Arrival scenarios are not journaled — the oracle is cheap
// enough to re-run whole.
func RunArrivals(ctx context.Context, cfg Config, onResult func(Result)) ([]Result, error) {
	results := make([]Result, cfg.N)
	for i := range results {
		results[i] = Result{
			Name:    workloads.ArrivalName(cfg.Seed, i),
			Index:   i,
			Class:   "arrivals",
			Verdict: VerdictCanceled,
		}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = conc.DefaultLimit()
	}
	_ = conc.ForEach(ctx, workers, cfg.N, func(i int) error {
		r := CheckArrivals(ctx, cfg.Seed, i)
		if r.Verdict == VerdictCanceled {
			return nil
		}
		results[i] = r
		if onResult != nil {
			onResult(r)
		}
		return nil
	})
	return results, scherr.FromContext(ctx)
}
