// Package sim is the event-driven timing simulator of the MorphoSys M1
// execution model the scheduling papers assume:
//
//   - the RC array computes one cluster visit at a time;
//   - the Frame Buffer is double-buffered, so the DMA may fill the other
//     set (loads and context loads for the NEXT visit) while the current
//     visit computes;
//   - data and context transfers share a single DMA channel and strictly
//     serialize;
//   - a visit's results are stored to external memory after it computes,
//     and its FB set cannot be refilled for a later visit until those
//     stores drain.
//
// One walk implements that model (walk.go). It takes two parameters:
//
//   - the issue policy — when a visit's transfers may issue: static (as
//     soon as the channel frees; Run), online (only after the previous
//     visit computed; RunStream) or prefetch (online, but hoisted under
//     the previous compute where FB and CM residency permit; RunStream
//     with Prefetch);
//   - the lanes and their slice order — which visits share the machine:
//     one schedule, K tenant schedules on disjoint FB quotas interleaved
//     slice by slice (RunTenants), or one schedule folded onto a single
//     FB set (RunSerial).
//
// Every entry point reports the total execution time plus a
// traffic/stall breakdown, and the traced variants record the same walk
// into a trace.Recorder. Overlap is emergent: transfers that fit inside
// the previous visit's compute window cost no wall-clock time.
//
// Every entry point walks the schedule's period (core.Period) without
// expanding it: a lane looks each visit and its block number up in the
// period. A static, unrecorded walk of one lane in one slice (Run,
// RunSerial, a one-lane RunTenants whose order is one slice) also
// fast-forwards through the period's steady runs. That applies once the
// machine state at the start of a steady run equals the state at the
// start of the run before it: the DMA-free
// cycle, the lane's done cycle and each pending store's set, position in
// the run, end and stores, all taken relative to the RC-free cycle at
// the run's start. It is exact because every step of the static machine
// is a max or a sum of cycles with no absolute ready time after the
// lane's arrival: from equal relative states, each later run repeats the
// last one shifted by the same number of cycles. The walk then shifts
// the clocks and the pending stores, adds the last run's counts once per
// run left and fills VisitStart/VisitEnd by offset. The recorded and the
// streaming walks run every visit.
package sim

import (
	"cds/internal/core"
	"cds/internal/trace"
)

// Result is the outcome of simulating one schedule.
type Result struct {
	// TotalCycles is the end-to-end execution time.
	TotalCycles int
	// ComputeCycles is the RC-array busy time (identical across
	// schedulers for the same application).
	ComputeCycles int
	// DataCycles and CtxCycles are the DMA channel busy times for data
	// and context traffic.
	DataCycles int
	CtxCycles  int
	// StallCycles is the RC-array idle time waiting for transfers.
	StallCycles int
	// LoadBytes/StoreBytes/CtxWords echo the schedule's volumes.
	LoadBytes, StoreBytes int
	CtxWords              int
	// VisitStart/VisitEnd give each visit's compute interval, for
	// inspection and tests (indexed like the schedule's execution
	// order, Schedule.Visit).
	VisitStart, VisitEnd []int
	// PrefetchCycles and PrefetchCount report the context traffic the
	// streaming executor hoisted into the previous visit's compute
	// window (RunStream with prefetch on); both are zero for the static
	// Run and for the serialized streaming baseline.
	PrefetchCycles int
	PrefetchCount  int
}

// DMABusy returns the total DMA channel busy time.
func (r *Result) DMABusy() int { return r.DataCycles + r.CtxCycles }

// Run simulates the schedule on the static machine — every transfer
// issues as soon as the DMA channel frees — and returns the timing
// result.
func Run(s *core.Schedule) (*Result, error) {
	return RunTraced(s, nil)
}

// RunTraced is Run recording every DMA transfer, compute interval and FB
// set switch into rec as cycle-stamped spans. A nil recorder records
// nothing, so traced and untraced results are identical by construction.
func RunTraced(s *core.Schedule, rec *trace.Recorder) (*Result, error) {
	if err := checkSchedule(s); err != nil {
		return nil, err
	}
	return walkOne(newLane(s), static, rec), nil
}

// Trace simulates the schedule and returns both the result and the
// recorded timeline, labeled by the schedule's scheduler name.
func Trace(s *core.Schedule) (*Result, *trace.Timeline, error) {
	if err := checkSchedule(s); err != nil {
		return nil, nil, err
	}
	// Each visit records at most its loads, its stores, one context
	// span, one compute span and one set-switch mark.
	per := s.Period()
	nv, n := s.NumVisits(), 0
	for i := range nv {
		j, _ := per.At(i)
		n += len(per.Visits[j].Loads) + len(per.Visits[j].Stores) + 2
	}
	rec := trace.NewRecorder()
	rec.Grow(n, nv)
	r := walkOne(newLane(s), static, rec)
	label := "schedule"
	if s.Scheduler != "" {
		label = s.Scheduler
	}
	return r, rec.Timeline(label, r.TotalCycles), nil
}

// Improvement returns the paper's metric: the relative execution-time
// improvement of a schedule over a baseline, in percent.
func Improvement(baseline, improved *Result) float64 {
	if baseline.TotalCycles == 0 {
		return 0
	}
	return 100 * float64(baseline.TotalCycles-improved.TotalCycles) / float64(baseline.TotalCycles)
}

// Compare simulates a baseline and a candidate schedule and returns both
// results plus the improvement percentage.
func Compare(baseline, candidate *core.Schedule) (base, cand *Result, improvementPct float64, err error) {
	base, err = Run(baseline)
	if err != nil {
		return nil, nil, 0, err
	}
	cand, err = Run(candidate)
	if err != nil {
		return nil, nil, 0, err
	}
	return base, cand, Improvement(base, cand), nil
}
