// Package verify is the post-hoc invariant checker for schedules: it
// extends the codegen checker's program-level discipline to whole
// schedules, so any scheduler output — hand-written, fuzzed or produced
// by a buggy policy — can be audited before it is trusted.
//
// Checked invariant families, each named in the returned *Error:
//
//	structure     — core.ValidateSchedule's visit/volume consistency
//	capacity      — the Frame Buffer allocation replay fits every set,
//	                live bytes never exceed FBSetBytes and placements
//	                stay in bounds without overlapping
//	liveness      — no kernel reads a datum instance that is dead
//	                (released) or never written (neither loaded from
//	                external memory nor produced by an earlier kernel),
//	                and every store drains a written placement
//	serialization — the timing simulator's single-DMA-channel model
//	                holds: wall clock dominates both the serialized DMA
//	                busy time and compute+stall, and visits execute in
//	                order on the RC array
//	timeline      — the traced execution is exact: per-resource spans
//	                tile the makespan (busy + idle, no overlaps) and
//	                the trace's busy totals equal the simulator's
//	                reported compute and transfer cycles
//	residency     — the generated transfer program passes codegen.Check's
//	                rules (contexts resident before EXEC, FB ranges
//	                legal, volumes matching the schedule)
//	fairness      — a multi-tenant plan (fairness.go) respects its
//	                quotas, preempts only at cluster boundaries, keeps
//	                weighted-share lag bounded and never beats any
//	                tenant's solo lower bound
//
// Schedule does each piece of work once. It replays the allocation
// itself (never trusting a caller's report) and shares that one replay
// among the capacity, liveness and residency checks, the last through
// codegen.CheckFrom. Serialization and timeline are both checked
// against one traced simulation (sim.Trace). The checkers key
// per-instance state by each replay event's dense instance key
// (AllocEvent.Inst) in flat tables, so no instance name is parsed,
// formatted or hashed per event. Liveness runs on core.Replay, the one
// execution-order walk of the replay that the functional machine
// (internal/machine) also runs on.
//
// Schedule audits a schedule stored as a period (core.Period) without
// walking every block. Loop fission runs the same visits in every block,
// so the runs of the steady block differ only in their block numbers, and
// each family's state is taken relative to the run:
//
//   - Per-run checks hold in every run once they hold in one run from the
//     same state: structure (a visit's volumes and kernels), capacity,
//     liveness within a run (dead and unwritten reads, stores of unwritten
//     data) and residency (contexts before EXEC, FB ranges, stores of
//     produced data). The allocation replay records one steady run and a
//     repeat count (core.EventPeriod) once a run leaves every FB set empty
//     and no remembered address moved; the capacity and liveness walks
//     skip the later runs when their live tables are empty at both ends
//     of that run, and the residency check skips them once the Context
//     Memory residency and the produced table at the end of a run equal
//     those at its start. A skipped run would replay the walked one from
//     the same state, so it passes as that run did.
//   - Checks that span runs are kept exact by arithmetic or by a state
//     that the shift leaves unchanged: structure's block positions (runs 0
//     and 1 pin the run to one block of every cluster) and iteration sums;
//     residency's volume and EXEC totals, which add each skipped run's
//     counts; liveness across runs, whose external-memory record is
//     stamped with the storing block, since a load only reads a result of
//     its own block.
//
// Errors name the indices of the expansion (visit, block, event,
// instruction), so a violation reads the same as on the explicit list.
// A schedule given as an explicit list (WithVisits), and a period whose
// state at a run boundary never repeats, are walked in full. The traced
// simulation behind serialization and timeline still covers every block.
//
// All violations match scherr.ErrVerify under errors.Is.
package verify

import (
	"cmp"
	"fmt"
	"slices"

	"cds/internal/codegen"
	"cds/internal/core"
	"cds/internal/scherr"
	"cds/internal/sim"
	"cds/internal/trace"
)

// Error is one invariant violation found by the verifier.
type Error struct {
	// Invariant names the violated family: "structure", "capacity",
	// "liveness", "serialization", "timeline" or "residency".
	Invariant string
	// Err details the violation.
	Err error
}

func (e *Error) Error() string {
	return fmt.Sprintf("verify: %s invariant violated: %v", e.Invariant, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// Is makes every verifier error match scherr.ErrVerify.
func (e *Error) Is(target error) bool { return target == scherr.ErrVerify }

func violated(invariant string, format string, args ...any) error {
	return &Error{Invariant: invariant, Err: fmt.Errorf(format, args...)}
}

// Schedule audits every invariant family against the schedule. A nil
// error means the schedule is structurally sound, fits the machine, only
// reads live written data, respects DMA serialization and keeps contexts
// resident ahead of every EXEC.
func Schedule(s *core.Schedule) error {
	if s == nil {
		return violated("structure", "nil schedule")
	}
	if err := core.ValidateSchedule(s); err != nil {
		return &Error{Invariant: "structure", Err: err}
	}
	rep, err := core.AllocateWithOptions(s, core.AllocOptions{AllowSplit: true})
	if err != nil {
		return &Error{Invariant: "capacity", Err: err}
	}
	if err := checkCapacity(s, rep); err != nil {
		return err
	}
	if err := checkLiveness(s, rep); err != nil {
		return err
	}
	res, tl, err := sim.Trace(s)
	if err != nil {
		return &Error{Invariant: "serialization", Err: err}
	}
	if err := checkSerialization(res); err != nil {
		return err
	}
	if err := checkTimeline(res, tl); err != nil {
		return err
	}
	if _, err := codegen.CheckFrom(s, rep); err != nil {
		return &Error{Invariant: "residency", Err: err}
	}
	return nil
}

// checkCapacity replays the allocation events and asserts that live
// bytes never exceed the set capacity, placements stay inside the set
// and (absent splitting) no two live placements overlap. It walks the
// report's period (core.EventPeriod): when nothing is live at either end
// of the steady run, the live tables are empty at both, so each later run
// of the same events would replay it exactly and is not walked.
func checkCapacity(s *core.Schedule, rep *core.AllocationReport) error {
	cap := s.Arch.FBSetBytes
	r, err := core.NewReplay(s, rep)
	if err != nil {
		return &Error{Invariant: "capacity", Err: err}
	}
	// live[slot] is the stored index (into rep.Events) of the event that
	// placed the instance on the set, or -1; nLive counts the placed
	// instances, liveAt those at the start of the steady run.
	live := make([]int32, r.Slots())
	for i := range live {
		live[i] = -1
	}
	nLive, liveAt := 0, 0
	used := make([]int, r.Sets)
	// byAddr[set] lists the set's live placements in address order.
	// Without splitting they are disjoint, so a new placement can only
	// overlap its neighbours in that order.
	byAddr := make([][]int32, r.Sets)
	addrOf := func(e int32, addr int) int { return cmp.Compare(rep.Events[e].Addr, addr) }
	p := rep.EventPeriod()
	for i, n := 0, rep.NumEvents(); i < n; i++ {
		if i == p.Lead {
			liveAt = nLive
		}
		if p.Repeat > 1 && i == p.Lead+p.Len && liveAt == 0 && nLive == 0 {
			if i += (p.Repeat - 1) * p.Len; i == n {
				break
			}
		}
		j, _ := p.At(i)
		ev := &rep.Events[j]
		slot := r.Slot(ev)
		if slot < 0 {
			return violated("capacity", "event %d: %s of %q on set %d names no instance of the schedule", i, ev.Op, rep.Object(*ev), ev.Set)
		}
		switch ev.Op {
		case core.OpAlloc:
			if live[slot] >= 0 {
				return violated("capacity", "event %d: %q allocated twice on set %d", i, rep.Object(*ev), ev.Set)
			}
			if ev.Bytes <= 0 {
				return violated("capacity", "event %d: %q has non-positive size %d", i, rep.Object(*ev), ev.Bytes)
			}
			if !ev.Split && (ev.Addr < 0 || ev.Addr+ev.Bytes > cap) {
				return violated("capacity", "event %d: %q at [%d,%d) outside set of %d bytes",
					i, rep.Object(*ev), ev.Addr, ev.Addr+ev.Bytes, cap)
			}
			if rep.Splits == 0 {
				list := byAddr[ev.Set]
				pos, _ := slices.BinarySearchFunc(list, ev.Addr, addrOf)
				for _, j := range [2]int{pos - 1, pos} {
					if j < 0 || j >= len(list) {
						continue
					}
					if oe := &rep.Events[list[j]]; ev.Addr < oe.Addr+oe.Bytes && oe.Addr < ev.Addr+ev.Bytes {
						return violated("capacity", "event %d: %q [%d,%d) overlaps live %q [%d,%d) on set %d",
							i, rep.Object(*ev), ev.Addr, ev.Addr+ev.Bytes, rep.Object(*oe), oe.Addr, oe.Addr+oe.Bytes, ev.Set)
					}
				}
				byAddr[ev.Set] = slices.Insert(list, pos, int32(j))
			}
			live[slot] = int32(j)
			nLive++
			used[ev.Set] += ev.Bytes
			if used[ev.Set] > cap {
				return violated("capacity", "event %d: set %d holds %d live bytes, capacity %d",
					i, ev.Set, used[ev.Set], cap)
			}
		case core.OpRelease:
			li := live[slot]
			if li < 0 {
				return violated("capacity", "event %d: release of %q which is not live on set %d", i, rep.Object(*ev), ev.Set)
			}
			live[slot] = -1
			nLive--
			used[ev.Set] -= rep.Events[li].Bytes
			if rep.Splits == 0 {
				list := byAddr[ev.Set]
				k := slices.Index(list, li)
				byAddr[ev.Set] = slices.Delete(list, k, k+1)
			}
		}
	}
	// Report the lowest over-full set.
	over := -1
	for set, peak := range rep.PeakUsed {
		if peak > cap && (over < 0 || set < over) {
			over = set
		}
	}
	if over >= 0 {
		return violated("capacity", "set %d peak occupancy %d exceeds capacity %d", over, rep.PeakUsed[over], cap)
	}
	return nil
}

// checkSerialization asserts the simulator's single-DMA-channel
// execution model on the traced run's result: the wall clock dominates
// both the serialized DMA busy time and the RC-array timeline (compute
// plus stalls), and visits start in order after their predecessor's
// compute.
func checkSerialization(res *sim.Result) error {
	if res.TotalCycles < res.DMABusy() {
		return violated("serialization", "total %d cycles < serialized DMA busy %d — transfers overlapped on one channel",
			res.TotalCycles, res.DMABusy())
	}
	if res.TotalCycles < res.ComputeCycles+res.StallCycles {
		return violated("serialization", "total %d cycles < compute %d + stalls %d",
			res.TotalCycles, res.ComputeCycles, res.StallCycles)
	}
	for vi := range res.VisitStart {
		if res.VisitEnd[vi] < res.VisitStart[vi] {
			return violated("serialization", "visit %d ends (%d) before it starts (%d)",
				vi, res.VisitEnd[vi], res.VisitStart[vi])
		}
		if vi > 0 && res.VisitStart[vi] < res.VisitEnd[vi-1] {
			return violated("serialization", "visit %d starts at %d while visit %d computes until %d — RC array double-booked",
				vi, res.VisitStart[vi], vi-1, res.VisitEnd[vi-1])
		}
	}
	return nil
}

// checkTimeline asserts the traced run's recorded execution is exact:
// on each resource the spans tile the makespan — non-overlapping, in
// bounds, busy plus idle equal to the wall clock — and the trace's busy
// totals agree with the simulator's accounting (DMA spans sum to the
// reported transfer cycles, compute spans to the reported compute
// cycles).
func checkTimeline(res *sim.Result, tl *trace.Timeline) error {
	if err := trace.CheckTiling(tl); err != nil {
		return &Error{Invariant: "timeline", Err: err}
	}
	if busy := tl.Busy(trace.DMA); busy != res.DMABusy() {
		return violated("timeline", "DMA spans sum to %d cycles, simulator reports %d", busy, res.DMABusy())
	}
	if busy := tl.Busy(trace.RCArray); busy != res.ComputeCycles {
		return violated("timeline", "compute spans sum to %d cycles, simulator reports %d", busy, res.ComputeCycles)
	}
	if busy := tl.BusyKind(trace.KindContext); busy != res.CtxCycles {
		return violated("timeline", "context spans sum to %d cycles, simulator reports %d", busy, res.CtxCycles)
	}
	return nil
}
