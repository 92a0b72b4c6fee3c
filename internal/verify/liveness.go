package verify

import (
	"cds/internal/core"
)

// checkLiveness walks the allocation replay in execution order
// (core.Replay, the walk the functional machine runs its bytes on) and
// asserts the data-flow invariants:
//
//   - every datum a kernel reads is PLACED in some Frame Buffer set at
//     that step (not released earlier — a dead read) and WRITTEN (loaded
//     from external memory or produced by an earlier kernel — not a read
//     of garbage);
//   - every external load brings in either a true external input or a
//     result some earlier visit stored (the external memory never serves
//     a datum nothing wrote);
//   - every store drains a placed, written instance.
//
// The walk's own failures, an event naming no instance of its visit, a
// step event out of execution order or an event after the last visit,
// are violations too.
//
// The walk is core.Replay.WalkPeriod: it skips the steady runs that
// repeat with nothing live at their ends. That keeps the check exact.
// written is false for every slot that holds no placement, so it is the
// same at both ends too. The external-memory record spans runs, but a
// load only asks for a result of its own block: absolute iteration
// Block*RF + iter with iter < Iters <= RF (ValidateSchedule checks the
// block sizes). So the record is kept per instance, stamped with the
// block that stored it, and a skipped run's stores are never asked for.
func checkLiveness(s *core.Schedule, rep *core.AllocationReport) error {
	a := s.P.App
	r, err := core.NewReplay(s, rep)
	if err != nil {
		return &Error{Invariant: "liveness", Err: err}
	}
	// written[slot] marks a live placement that carries real bytes.
	written := make([]bool, r.Slots())

	// stored[key] == block+1 marks the instance key's result of that
	// block, absolute iteration block*RF + Iter(key), as stored to
	// external memory.
	stored := make([]int32, r.Inst.Len())

	err = r.WalkPeriod(core.ReplayHooks{
		Event: func(vi, slot int, ev *core.AllocEvent, load bool) error {
			if ev.Op == core.OpRelease {
				written[slot] = false
				return nil
			}
			if !load {
				return nil
			}
			// The placement is filled from external memory: the
			// datum must exist out there.
			id := r.Inst.Datum(int(ev.Inst))
			block := s.Visit(vi).Block
			if a.ProducerID(id) >= 0 && stored[ev.Inst] != int32(block+1) {
				abs := block*s.RF + r.Inst.Iter(int(ev.Inst))
				return violated("liveness", "visit %d loads %s@%d which was never stored to external memory",
					vi, a.DatumName(id), abs)
			}
			written[slot] = true
			return nil
		},
		Step: func(vi, ki, iter int) error {
			v := s.Visit(vi)
			for _, in := range a.KernelInputIDs(ki) {
				pk := r.Find(v.Set, r.Inst.Key(in, iter))
				if pk < 0 {
					return violated("liveness", "visit %d: kernel %s reads %s#i%d which is dead (no live placement)",
						vi, a.Kernels[ki].Name, a.DatumName(in), iter)
				}
				if !written[pk] {
					return violated("liveness", "visit %d: kernel %s reads %s#i%d which was never written",
						vi, a.Kernels[ki].Name, a.DatumName(in), iter)
				}
			}
			for _, out := range a.KernelOutputIDs(ki) {
				pk := r.Find(v.Set, r.Inst.Key(out, iter))
				if pk < 0 {
					return violated("liveness", "visit %d: kernel %s writes %s#i%d with no live placement",
						vi, a.Kernels[ki].Name, a.DatumName(out), iter)
				}
				written[pk] = true
			}
			return nil
		},
		Stores: func(vi int) error {
			v := s.Visit(vi)
			for _, m := range v.Stores {
				id := a.DatumID(m.Datum)
				for slot := 0; slot < v.Iters; slot++ {
					pk := -1
					if id >= 0 {
						pk = r.Find(v.Set, r.Inst.Key(int32(id), slot))
					}
					if pk < 0 {
						return violated("liveness", "visit %d stores %s#i%d which is dead (no live placement)", vi, m.Datum, slot)
					}
					if !written[pk] {
						return violated("liveness", "visit %d stores %s#i%d which was never written", vi, m.Datum, slot)
					}
					stored[r.Inst.Key(int32(id), slot)] = int32(v.Block + 1)
				}
			}
			return nil
		},
	})
	if _, ok := err.(*Error); ok || err == nil {
		return err
	}
	return &Error{Invariant: "liveness", Err: err}
}
